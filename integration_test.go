package nodesampling_test

// End-to-end integration tests across the whole stack: trace substrate →
// public sampling service → divergence metrics, and the analytical attack
// planner against the simulated attack.

import (
	"sync"
	"testing"

	"nodesampling"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
	"nodesampling/internal/trace"
	"nodesampling/internal/urn"
)

// TestTraceThroughPublicService replays a synthetic Zipf trace through the
// public sampling service, NewPool(c, 1), from multiple producer goroutines
// pushing one id at a time, and verifies the subscribed output stream is
// substantially closer to uniform and carries one draw per pushed id.
func TestTraceThroughPublicService(t *testing.T) {
	spec := trace.Spec{Name: "integration", M: 120000, N: 800, MaxFreq: 12000}
	tr, err := trace.Synthesize(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := nodesampling.NewPool(30, 1,
		nodesampling.WithSeed(6), nodesampling.WithSketch(15, 5))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := pool.Subscribe(1 << 18)
	if err != nil {
		t.Fatal(err)
	}

	input := metrics.NewHistogram()
	ids := tr.IDs()
	for _, id := range ids {
		input.Add(id)
	}
	// Concurrent producers partition the trace; interleaving changes the
	// order but not the multiset, which is what the measured divergences
	// depend on.
	const producers = 4
	var wg sync.WaitGroup
	chunk := (len(ids) + producers - 1) / producers
	for p := 0; p < producers; p++ {
		lo := p * chunk
		hi := lo + chunk
		if hi > len(ids) {
			hi = len(ids)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			for _, id := range part {
				if err := pool.Push(nodesampling.NodeID(id)); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(ids[lo:hi])
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	output := metrics.NewHistogram()
	for id := range sub.C() {
		output.Add(uint64(id))
	}
	if output.Total()+sub.Dropped() != uint64(len(ids)) {
		t.Fatalf("output %d + dropped %d != pushed %d", output.Total(), sub.Dropped(), len(ids))
	}
	g, err := metrics.Gain(input, output, spec.N)
	if err != nil {
		t.Fatal(err)
	}
	if g < 0.5 {
		t.Fatalf("end-to-end gain %v over the trace", g)
	}
}

// TestPlannerPredictsSimulatedAttack ties Section V's analysis to an actual
// attacked sampler: an adversary owning fewer distinct ids than the
// targeted-attack threshold cannot noticeably bias a victim's output share,
// by the very mechanism (uncorrupted minimum-row estimate) the analysis
// counts urns for.
func TestPlannerPredictsSimulatedAttack(t *testing.T) {
	const k, s, c = 15, 5, 20
	L, err := urn.TargetedEffort(k, s, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if L < 20 {
		t.Fatalf("threshold %d unexpectedly small", L)
	}
	// The adversary owns L/8 decoys — far below the threshold.
	decoys := L / 8
	sampler, err := nodesampling.NewSampler(c,
		nodesampling.WithSeed(7), nodesampling.WithSketch(k, s))
	if err != nil {
		t.Fatal(err)
	}
	const n, m = 400, 150000
	victim := nodesampling.NodeID(399)
	r := rng.New(8)
	output := metrics.NewHistogram()
	for i := 0; i < m; i++ {
		var id nodesampling.NodeID
		switch {
		case r.Bernoulli(0.4): // adversarial injections over the decoys
			id = nodesampling.NodeID(r.Intn(decoys))
		default: // legitimate uniform gossip
			id = nodesampling.NodeID(r.Intn(n))
		}
		output.Add(uint64(sampler.Process(id)))
	}
	share := float64(output.Count(uint64(victim))) / float64(output.Total())
	uniform := 1.0 / n
	if share < uniform/3 {
		t.Fatalf("victim output share %v collapsed below a third of uniform %v despite sub-threshold attack",
			share, uniform)
	}
}
