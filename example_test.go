package nodesampling_test

import (
	"fmt"

	"nodesampling"
	"nodesampling/internal/rng"
)

// ExampleNewSampler unbiases a stream in which a single Sybil identifier
// carries half of everything the node hears.
func ExampleNewSampler() {
	sampler, err := nodesampling.NewSampler(20,
		nodesampling.WithSeed(42),
		nodesampling.WithSketch(15, 5))
	if err != nil {
		fmt.Println(err)
		return
	}
	const population, streamLen = 500, 100000
	sybil := nodesampling.NodeID(0)
	r := rng.New(7)
	var inPeak, outPeak int
	for i := 0; i < streamLen; i++ {
		id := sybil
		if r.Bernoulli(0.5) {
			id = nodesampling.NodeID(r.Intn(population))
		}
		if id == sybil {
			inPeak++
		}
		if sampler.Process(id) == sybil {
			outPeak++
		}
	}
	fmt.Printf("sybil share: input %d%%, output below 5%%: %v\n",
		inPeak*100/streamLen, outPeak*100/streamLen < 5)
	// Output:
	// sybil share: input 50%, output below 5%: true
}

// ExampleAttackEffort shows the defender's memory-vs-safety trade-off: the
// number of distinct certified identifiers an adversary must create grows
// linearly with the sketch width k.
func ExampleAttackEffort() {
	for _, k := range []int{10, 50, 250} {
		targeted, flooding, err := nodesampling.AttackEffort(k, 10, 1e-4)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("k=%-3d targeted=%-5d flooding=%d\n", k, targeted, flooding)
	}
	// Output:
	// k=10  targeted=111   flooding=110
	// k=50  targeted=571   flooding=650
	// k=250 targeted=2874  flooding=3676
}

// ExampleNewPool runs one sampler behind a worker goroutine: a 1-shard
// pool, which any number of goroutines may feed and read concurrently.
func ExampleNewPool() {
	pool, err := nodesampling.NewPool(8, 1,
		nodesampling.WithSeed(1),
		nodesampling.WithSketch(8, 3))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer pool.Close()

	for i := 0; i < 1000; i++ {
		if err := pool.Push(nodesampling.NodeID(i % 40)); err != nil {
			fmt.Println(err)
			return
		}
	}
	if err := pool.Close(); err != nil { // drain, then read the final sample
		fmt.Println(err)
		return
	}
	id, ok := pool.Sample()
	fmt.Println(ok, id < 40)
	// Output:
	// true true
}

// ExampleHashString derives stable node identifiers from node names, as the
// paper's SHA-1 identifier scheme does.
func ExampleHashString() {
	a := nodesampling.HashString("node-a.example.com:4000")
	b := nodesampling.HashString("node-b.example.com:4000")
	fmt.Println(a == nodesampling.HashString("node-a.example.com:4000"), a == b)
	// Output:
	// true false
}
