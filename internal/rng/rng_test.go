package rng

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSplitMix64Deterministic pins the splitmix64 stream by self-consistency:
// the same seed must always give the same sequence, and early outputs must be
// pairwise distinct.
func TestSplitMix64Deterministic(t *testing.T) {
	state := uint64(1234567)
	got := make([]uint64, 16)
	for i := range got {
		got[i] = SplitMix64(&state)
	}
	state2 := uint64(1234567)
	for i := range got {
		if v := SplitMix64(&state2); v != got[i] {
			t.Fatalf("splitmix64 not deterministic at step %d: %x vs %x", i, v, got[i])
		}
	}
	// Sanity: outputs must all differ (period is 2^64, collisions in the
	// first few draws would indicate a broken implementation).
	seen := map[uint64]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("splitmix64 repeated value %x in first draws", v)
		}
		seen[v] = true
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-seed generators diverged at step %d: %x vs %x", i, av, bv)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values out of 1000", same)
	}
}

func TestXoshiroAsRandSource(t *testing.T) {
	r := rand.New(New(7))
	// Must not panic and must respect bounds.
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	x := New(99)
	bounds := []uint64{1, 2, 3, 7, 10, 1000, 1 << 32, 1<<63 + 12345}
	for _, n := range bounds {
		for i := 0; i < 200; i++ {
			if v := x.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) returned %d", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	x := New(5)
	for i := 0; i < 10000; i++ {
		v := x.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	x := New(6)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += x.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v deviates from 0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	x := New(8)
	if x.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !x.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	if x.Bernoulli(-0.5) {
		t.Fatal("Bernoulli(-0.5) returned true")
	}
	if !x.Bernoulli(1.5) {
		t.Fatal("Bernoulli(1.5) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if x.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	x := New(11)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := x.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	x := New(12)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[x.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Perm first element %d appeared %d times, want about %v", i, c, want)
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	x := New(13)
	vals := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	x.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed element multiset: %v", vals)
	}
}

func TestSplitIndependence(t *testing.T) {
	x := New(21)
	y := x.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if x.Uint64() == y.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split generators produced %d identical values", same)
	}
}

func TestMix64Bijectivity(t *testing.T) {
	// Mix64 must be injective; spot-check with testing/quick that distinct
	// inputs give distinct outputs (a full proof is out of scope, but random
	// collisions would be astronomically unlikely for a bijection).
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Mix64(a) != Mix64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniformity(t *testing.T) {
	x := New(31)
	const n, trials = 10, 200000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[x.Uint64n(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("value %d appeared %d times, want about %v", i, c, want)
		}
	}
}

// TestQuotas is the one suite behind the service's one Γ-weighted draw:
// whatever level calls Quotas (shard sizes, member memories), these are the
// properties its uniformity over the union rests on.
func TestQuotas(t *testing.T) {
	weights := []uint64{384, 0, 96, 32, 0}
	t.Run("sum to n and skip zero weights", func(t *testing.T) {
		x := New(5)
		for _, n := range []int{1, 7, 4096, 65536} {
			q := x.Quotas(weights, n)
			if len(q) != len(weights) {
				t.Fatalf("n=%d: %d quotas for %d weights", n, len(q), len(weights))
			}
			sum := 0
			for i, c := range q {
				if weights[i] == 0 && c != 0 {
					t.Fatalf("n=%d: zero weight %d drew %d times", n, i, c)
				}
				sum += c
			}
			if sum != n {
				t.Fatalf("n=%d: quotas sum to %d", n, sum)
			}
		}
	})
	t.Run("nothing to draw", func(t *testing.T) {
		x, ref := New(9), New(9)
		if q := x.Quotas([]uint64{0, 0, 0}, 100); q != nil {
			t.Fatalf("all-zero weights yielded %v", q)
		}
		if q := x.Quotas(nil, 100); q != nil {
			t.Fatalf("no weights yielded %v", q)
		}
		if q := x.Quotas(weights, 0); q != nil {
			t.Fatalf("n=0 yielded %v", q)
		}
		if x.Uint64() != ref.Uint64() {
			t.Fatal("an empty draw consumed the generator")
		}
	})
	t.Run("chi-square against the weights", func(t *testing.T) {
		// 2·10⁵ draws in MaxBatch-sized calls, as the cluster merge makes them;
		// three non-zero cells, so df = 2 and 13.8 is the 0.001 critical value.
		x := New(31)
		const calls, per = 50, 4096
		got := make([]float64, len(weights))
		for c := 0; c < calls; c++ {
			for i, q := range x.Quotas(weights, per) {
				got[i] += float64(q)
			}
		}
		var total float64
		for _, w := range weights {
			total += float64(w)
		}
		chi := 0.0
		for i, w := range weights {
			if w == 0 {
				continue
			}
			want := calls * per * float64(w) / total
			chi += (got[i] - want) * (got[i] - want) / want
		}
		if chi > 13.8 {
			t.Fatalf("quotas %v do not follow weights %v: chi2 = %v (df = 2)", got, weights, chi)
		}
	})
	t.Run("same seed, same quotas", func(t *testing.T) {
		a, b := New(77), New(77)
		for round := 0; round < 8; round++ {
			qa, qb := a.Quotas(weights, 1000), b.Quotas(weights, 1000)
			for i := range qa {
				if qa[i] != qb[i] {
					t.Fatalf("round %d: %v != %v under one seed", round, qa, qb)
				}
			}
		}
		// One Uint64n(Σ weights) per draw and nothing else: a caller drawing
		// the indices itself stays in lockstep with the generator.
		x, ref := New(3), New(3)
		q := x.Quotas(weights, 500)
		want := make([]int, len(weights))
		for j := 0; j < 500; j++ {
			pick := ref.Uint64n(512)
			for i, w := range weights {
				if pick < w {
					want[i]++
					break
				}
				pick -= w
			}
		}
		for i := range q {
			if q[i] != want[i] {
				t.Fatalf("quotas %v, one-Uint64n-per-draw reference %v", q, want)
			}
		}
		if x.Uint64() != ref.Uint64() {
			t.Fatal("Quotas consumed the generator differently from one Uint64n per draw")
		}
	})
}

func BenchmarkXoshiroUint64(b *testing.B) {
	x := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Uint64()
	}
	_ = sink
}

func BenchmarkXoshiroFloat64(b *testing.B) {
	x := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += x.Float64()
	}
	_ = sink
}
