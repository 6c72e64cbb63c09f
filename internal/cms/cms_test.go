package cms

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nodesampling/internal/hashing"
	"nodesampling/internal/rng"
)

func mustSketch(t testing.TB, k, s int, seed uint64) *Sketch {
	t.Helper()
	sk, err := NewWithDimensions(k, s, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestNewFromAccuracyTargets(t *testing.T) {
	cases := []struct {
		epsilon, delta float64
		wantK, wantS   int
	}{
		{0.3, 0.01, 10, 7}, // k = ceil(e/0.3) = 10, s = ceil(log2 100) = 7
		{0.05, 0.001, 55, 10},
		{0.01, 1e-12, 272, 40},
	}
	for _, c := range cases {
		sk, err := New(c.epsilon, c.delta, rng.New(1))
		if err != nil {
			t.Fatalf("New(%v, %v): %v", c.epsilon, c.delta, err)
		}
		if sk.Cols() != c.wantK || sk.Rows() != c.wantS {
			t.Errorf("New(%v, %v) shape = (k=%d, s=%d), want (k=%d, s=%d)",
				c.epsilon, c.delta, sk.Cols(), sk.Rows(), c.wantK, c.wantS)
		}
	}
}

func TestNewValidation(t *testing.T) {
	r := rng.New(1)
	bad := []struct{ eps, delta float64 }{
		{0, 0.1}, {1, 0.1}, {-0.2, 0.1}, {0.1, 0}, {0.1, 1}, {0.1, -3},
	}
	for _, c := range bad {
		if _, err := New(c.eps, c.delta, r); err == nil {
			t.Errorf("New(%v, %v) should fail", c.eps, c.delta)
		}
	}
	if _, err := NewWithDimensions(0, 5, r); err == nil {
		t.Error("NewWithDimensions(0, 5) should fail")
	}
	if _, err := NewWithDimensions(5, 0, r); err == nil {
		t.Error("NewWithDimensions(5, 0) should fail")
	}
}

// TestNeverUnderestimates is the fundamental Count-Min guarantee: the
// estimate is always at least the true count.
func TestNeverUnderestimates(t *testing.T) {
	sk := mustSketch(t, 20, 4, 7)
	r := rng.New(8)
	truth := make(map[uint64]uint64)
	for i := 0; i < 50000; i++ {
		id := r.Uint64n(500)
		truth[id]++
		sk.Add(id)
	}
	for id, f := range truth {
		if est := sk.Estimate(id); est < f {
			t.Fatalf("Estimate(%d) = %d underestimates true count %d", id, est, f)
		}
	}
}

// TestErrorBound checks the (ε, δ) guarantee statistically: the fraction of
// ids whose estimate exceeds f + ε·m should be at most about δ.
func TestErrorBound(t *testing.T) {
	const epsilon, delta = 0.1, 0.05
	sk, err := New(epsilon, delta, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(10)
	const n, m = 1000, 100000
	truth := make(map[uint64]uint64, n)
	for i := 0; i < m; i++ {
		id := r.Uint64n(n)
		truth[id]++
		sk.Add(id)
	}
	bound := uint64(epsilon * float64(m))
	bad := 0
	for id, f := range truth {
		if sk.Estimate(id) > f+bound {
			bad++
		}
	}
	frac := float64(bad) / float64(len(truth))
	if frac > 3*delta {
		t.Fatalf("%v of ids exceed the epsilon bound, want <= about %v", frac, delta)
	}
}

func TestExactWhenSparse(t *testing.T) {
	// With far fewer distinct ids than columns and several rows, collisions
	// in every row simultaneously are very unlikely, so estimates should be
	// exact for most ids.
	sk := mustSketch(t, 1024, 6, 11)
	truth := map[uint64]uint64{1: 3, 2: 7, 42: 1, 999: 12}
	for id, f := range truth {
		for i := uint64(0); i < f; i++ {
			sk.Add(id)
		}
	}
	for id, f := range truth {
		if est := sk.Estimate(id); est != f {
			t.Errorf("Estimate(%d) = %d, want exact %d", id, est, f)
		}
	}
	if sk.Total() != 23 {
		t.Errorf("Total() = %d, want 23", sk.Total())
	}
}

// TestGlobalMinMatchesNaive is the property test for the incremental minσ
// tracker: after any sequence of adds it must equal a full scan.
func TestGlobalMinMatchesNaive(t *testing.T) {
	r := rng.New(12)
	f := func(seed uint64, nOps uint16) bool {
		sk, err := NewWithDimensions(1+int(seed%13), 1+int(seed%5), rng.New(seed))
		if err != nil {
			return false
		}
		local := rng.New(seed ^ 0xabcdef)
		ops := int(nOps%2000) + 1
		for i := 0; i < ops; i++ {
			sk.Add(local.Uint64n(64))
			if sk.GlobalMin() != sk.globalMinNaive() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng.NewRand(r.Uint64())}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalMinStartsAtZeroUntilMatrixFull(t *testing.T) {
	sk := mustSketch(t, 8, 2, 13)
	if sk.GlobalMin() != 0 {
		t.Fatalf("fresh sketch GlobalMin = %d, want 0", sk.GlobalMin())
	}
	// One add touches at most s counters, the rest stay zero.
	sk.Add(5)
	if sk.GlobalMin() != 0 {
		t.Fatalf("GlobalMin after one add = %d, want 0", sk.GlobalMin())
	}
}

func TestGlobalMinGrowsOnUniformStream(t *testing.T) {
	sk := mustSketch(t, 8, 3, 14)
	r := rng.New(15)
	for i := 0; i < 20000; i++ {
		sk.Add(r.Uint64n(1000))
	}
	if sk.GlobalMin() == 0 {
		t.Fatal("GlobalMin still zero after a long uniform stream over many ids")
	}
	if sk.GlobalMin() != sk.globalMinNaive() {
		t.Fatalf("GlobalMin %d != naive %d", sk.GlobalMin(), sk.globalMinNaive())
	}
}

// TestConservativeNeverUnderestimates: the CM-CU rule must preserve the
// upper-bound guarantee.
func TestConservativeNeverUnderestimates(t *testing.T) {
	sk := mustSketch(t, 20, 4, 30)
	r := rng.New(31)
	truth := make(map[uint64]uint64)
	for i := 0; i < 50000; i++ {
		id := r.Uint64n(500)
		truth[id]++
		sk.AddConservative(id)
	}
	for id, f := range truth {
		if est := sk.Estimate(id); est < f {
			t.Fatalf("CU Estimate(%d) = %d underestimates true count %d", id, est, f)
		}
	}
}

// TestConservativeTighterThanPlain: on the same stream and the same hash
// family, conservative-update estimates are never above plain Count-Min
// estimates, and are strictly tighter somewhere on a skewed stream.
func TestConservativeTighterThanPlain(t *testing.T) {
	plain := mustSketch(t, 10, 4, 32)
	cu := plain.Clone()
	cu.Reset()
	r := rng.New(33)
	ids := make([]uint64, 80000)
	for i := range ids {
		// Skewed: id 0 half the time, the rest uniform over 500.
		if r.Bernoulli(0.5) {
			ids[i] = 0
		} else {
			ids[i] = 1 + r.Uint64n(500)
		}
	}
	for _, id := range ids {
		plain.Add(id)
		cu.AddConservative(id)
	}
	strictly := false
	for id := uint64(0); id <= 500; id++ {
		p, c := plain.Estimate(id), cu.Estimate(id)
		if c > p {
			t.Fatalf("CU estimate %d above plain %d for id %d", c, p, id)
		}
		if c < p {
			strictly = true
		}
	}
	if !strictly {
		t.Fatal("CU never tighter than plain on a skewed stream")
	}
	if cu.GlobalMin() > plain.GlobalMin() {
		t.Fatalf("CU global min %d above plain %d", cu.GlobalMin(), plain.GlobalMin())
	}
}

// TestConservativeGlobalMinTracking: the incremental minσ tracker must stay
// correct under the jumpy CU cell updates.
func TestConservativeGlobalMinTracking(t *testing.T) {
	sk := mustSketch(t, 8, 3, 34)
	r := rng.New(35)
	for i := 0; i < 30000; i++ {
		sk.AddConservative(r.Uint64n(200))
		if i%97 == 0 && sk.GlobalMin() != sk.globalMinNaive() {
			t.Fatalf("step %d: GlobalMin %d != naive %d", i, sk.GlobalMin(), sk.globalMinNaive())
		}
	}
	if sk.GlobalMin() != sk.globalMinNaive() {
		t.Fatalf("final GlobalMin %d != naive %d", sk.GlobalMin(), sk.globalMinNaive())
	}
}

func TestHalve(t *testing.T) {
	sk := mustSketch(t, 16, 3, 40)
	for i := 0; i < 1000; i++ {
		sk.Add(7)
	}
	before := sk.Estimate(7)
	sk.Halve()
	after := sk.Estimate(7)
	if after != before/2 {
		t.Fatalf("estimate after halve = %d, want %d", after, before/2)
	}
	if sk.Total() != 500 {
		t.Fatalf("total after halve = %d, want 500", sk.Total())
	}
	if sk.GlobalMin() != sk.globalMinNaive() {
		t.Fatalf("GlobalMin inconsistent after halve: %d vs %d", sk.GlobalMin(), sk.globalMinNaive())
	}
	// Halving all the way down reaches zero and stays consistent.
	for i := 0; i < 20; i++ {
		sk.Halve()
	}
	if sk.Estimate(7) != 0 || sk.GlobalMin() != 0 {
		t.Fatalf("estimate %d / min %d after decaying to zero", sk.Estimate(7), sk.GlobalMin())
	}
}

func TestHalveDecaysOldHeavyHitters(t *testing.T) {
	sk := mustSketch(t, 32, 4, 41)
	// Old heavy hitter, then halvings interleaved with a new arrival.
	for i := 0; i < 10000; i++ {
		sk.Add(1)
	}
	for epoch := 0; epoch < 10; epoch++ {
		sk.Halve()
		for i := 0; i < 100; i++ {
			sk.Add(2)
		}
	}
	if old, fresh := sk.Estimate(1), sk.Estimate(2); old >= fresh {
		t.Fatalf("old id estimate %d not decayed below fresh id %d", old, fresh)
	}
}

func TestReset(t *testing.T) {
	sk := mustSketch(t, 16, 3, 16)
	for i := uint64(0); i < 1000; i++ {
		sk.Add(i)
	}
	sk.Reset()
	if sk.Total() != 0 {
		t.Errorf("Total after reset = %d", sk.Total())
	}
	if sk.GlobalMin() != 0 {
		t.Errorf("GlobalMin after reset = %d", sk.GlobalMin())
	}
	if est := sk.Estimate(3); est != 0 {
		t.Errorf("Estimate(3) after reset = %d", est)
	}
	// The sketch must remain consistent after reuse.
	sk.Add(3)
	if est := sk.Estimate(3); est != 1 {
		t.Errorf("Estimate(3) after reset+add = %d, want 1", est)
	}
}

func TestCloneSharesFamilyAndMerges(t *testing.T) {
	sk := mustSketch(t, 32, 4, 17)
	r := rng.New(18)
	for i := 0; i < 5000; i++ {
		sk.Add(r.Uint64n(100))
	}
	cp := sk.Clone()
	if cp.Estimate(42) != sk.Estimate(42) {
		t.Fatal("clone does not estimate identically")
	}
	// Diverge the copy, then merge back: totals and estimates add up.
	for i := 0; i < 1000; i++ {
		cp.Add(7)
	}
	before := sk.Estimate(7)
	if err := sk.Merge(cp); err != nil {
		t.Fatal(err)
	}
	if got := sk.Estimate(7); got < before+1000 {
		t.Fatalf("post-merge Estimate(7) = %d, want at least %d", got, before+1000)
	}
	if sk.GlobalMin() != sk.globalMinNaive() {
		t.Fatalf("GlobalMin inconsistent after merge: %d vs %d", sk.GlobalMin(), sk.globalMinNaive())
	}
}

func TestMergeValidation(t *testing.T) {
	a := mustSketch(t, 8, 2, 19)
	b := mustSketch(t, 16, 2, 19)
	if err := a.Merge(b); err == nil {
		t.Error("merge with mismatched dimensions should fail")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("merge with nil should fail")
	}
}

func TestEstimateMonotoneInAdds(t *testing.T) {
	sk := mustSketch(t, 16, 4, 20)
	prev := uint64(0)
	for i := 0; i < 500; i++ {
		sk.Add(99)
		est := sk.Estimate(99)
		if est < prev {
			t.Fatalf("estimate decreased from %d to %d", prev, est)
		}
		prev = est
	}
	if prev < 500 {
		t.Fatalf("estimate %d below true count 500", prev)
	}
}

func TestCounterBytes(t *testing.T) {
	sk := mustSketch(t, 50, 10, 21)
	if got := sk.CounterBytes(); got != 50*10*8 {
		t.Fatalf("CounterBytes = %d, want %d", got, 50*10*8)
	}
}

// TestHeavyHitterAccuracy mirrors the paper's use: under a skewed stream the
// sketch must rank a heavy hitter far above light ids.
func TestHeavyHitterAccuracy(t *testing.T) {
	sk := mustSketch(t, 50, 5, 22)
	r := rng.New(23)
	for i := 0; i < 50000; i++ {
		sk.Add(1) // heavy
		sk.Add(r.Uint64n(1000) + 10)
	}
	heavy := float64(sk.Estimate(1))
	light := float64(sk.Estimate(500))
	if heavy < 10*light {
		t.Fatalf("heavy hitter estimate %v not well separated from light id %v", heavy, light)
	}
	if math.Abs(heavy-50000)/50000 > 0.5 {
		t.Fatalf("heavy hitter estimate %v too far from true 50000", heavy)
	}
}

func BenchmarkAdd(b *testing.B) {
	sk := mustSketch(b, 50, 10, 1)
	r := rng.New(2)
	ids := make([]uint64, 4096)
	for i := range ids {
		ids[i] = r.Uint64n(10000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Add(ids[i&4095])
	}
}

func BenchmarkEstimate(b *testing.B) {
	sk := mustSketch(b, 50, 10, 1)
	r := rng.New(2)
	for i := 0; i < 100000; i++ {
		sk.Add(r.Uint64n(10000))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += sk.Estimate(uint64(i & 8191))
	}
	_ = sink
}

func BenchmarkAddAndEstimate(b *testing.B) {
	// The exact per-element cost profile of the knowledge-free sampler's
	// sketch interaction: one Add, one Estimate, one GlobalMin per id.
	sk := mustSketch(b, 50, 10, 1)
	r := rng.New(2)
	ids := make([]uint64, 4096)
	for i := range ids {
		ids[i] = r.Uint64n(10000)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		id := ids[i&4095]
		sk.Add(id)
		sink += sk.Estimate(id) + sk.GlobalMin()
	}
	_ = sink
}

// addEstimateReference is AddEstimate over the per-row reference hash path
// (Family.Hash instead of the fused Columns): the oracle the fused path is
// pinned against — the two must agree bit-for-bit on every counter and
// estimate.
func (sk *Sketch) addEstimateReference(id uint64) uint64 {
	sk.total++
	est := ^uint64(0)
	for row := 0; row < sk.rows; row++ {
		idx := row*sk.cols + sk.hashes.Hash(row, id)
		v := sk.counts[idx] + 1
		sk.counts[idx] = v
		if v-1 == sk.gMin {
			sk.gMinCnt--
		}
		if v < est {
			est = v
		}
	}
	if sk.gMinCnt == 0 {
		sk.rescanMin()
	}
	return est
}

// TestFusedMatchesReference pins the fused AddEstimate (bulk Columns, one
// premix per id) against the retained per-row reference path: identical
// estimates and identical global-min tracking over an interleaved stream,
// under both bucket maps.
func TestFusedMatchesReference(t *testing.T) {
	for _, mode := range []hashing.Mode{hashing.ModeModulo, hashing.ModeFastrange} {
		fused, err := NewWithDimensionsMode(64, 4, rng.New(71), mode)
		if err != nil {
			t.Fatal(err)
		}
		ref := fused.Clone()
		r := rng.New(72)
		for i := 0; i < 30000; i++ {
			id := r.Uint64n(500)
			ef := fused.AddEstimate(id)
			er := ref.addEstimateReference(id)
			if ef != er {
				t.Fatalf("mode %v step %d id %d: fused estimate %d != reference %d", mode, i, id, ef, er)
			}
			if fused.GlobalMin() != ref.GlobalMin() {
				t.Fatalf("mode %v step %d: global min diverged %d vs %d",
					mode, i, fused.GlobalMin(), ref.GlobalMin())
			}
		}
		for id := uint64(0); id < 600; id++ {
			if fused.Estimate(id) != ref.Estimate(id) {
				t.Fatalf("mode %v: final estimate mismatch for id %d", mode, id)
			}
		}
	}
}

// estimateReference is Estimate over the per-row reference hash path.
func (sk *Sketch) estimateReference(id uint64) uint64 {
	est := ^uint64(0)
	for row := 0; row < sk.rows; row++ {
		if v := sk.counts[row*sk.cols+sk.hashes.Hash(row, id)]; v < est {
			est = v
		}
	}
	return est
}

// TestColumnMemoMatchesReference pins the remembered columns under the
// paper's flood, 80 % of arrivals one id, where the memo serves most
// arrivals (TestFusedMatchesReference draws over 500 ids, so its memo hits
// ~0.2 % of the time). Between arrivals it interleaves every other
// operation on the sketch — conservative adds, estimates of other ids,
// Halve, Merge, Reset — and UnmarshalBinary into a sketch whose memo holds
// the victim hashed under a different family. After every step the sketch
// must agree with a clone driven through the reference hash path: same
// estimate, same global minimum, same counters.
func TestColumnMemoMatchesReference(t *testing.T) {
	const victim = 7
	for _, mode := range []hashing.Mode{hashing.ModeModulo, hashing.ModeFastrange} {
		sk, err := NewWithDimensionsMode(50, 10, rng.New(101), mode)
		if err != nil {
			t.Fatal(err)
		}
		ref := sk.Clone()
		peer := sk.CloneEmpty()
		r := rng.New(102)
		for step := 0; step < 40000; step++ {
			id := r.Uint64n(4096)
			if r.Float64() < 0.8 {
				id = victim
			}
			var op string
			var got, want uint64
			switch x := r.Intn(1000); {
			case x < 600:
				op, got, want = "AddEstimate", sk.AddEstimate(id), ref.addEstimateReference(id)
			case x < 800:
				// The reference runs the conservative rule with its memo
				// forgotten, so it hashes every arrival afresh.
				ref.memoOK = false
				op, got, want = "AddConservativeEstimate", sk.AddConservativeEstimate(id), ref.AddConservativeEstimate(id)
			case x < 950:
				other := r.Uint64n(4096)
				op, got, want = "Estimate", sk.Estimate(other), ref.estimateReference(other)
			case x < 970:
				sk.Halve()
				ref.Halve()
				op = "Halve"
			case x < 990:
				for i := 0; i < 64; i++ {
					peer.Add(r.Uint64n(4096))
				}
				if err := sk.Merge(peer); err != nil {
					t.Fatal(err)
				}
				if err := ref.Merge(peer); err != nil {
					t.Fatal(err)
				}
				op = "Merge"
			case x < 995:
				sk.Reset()
				ref.Reset()
				op = "Reset"
			default:
				foreign, err := NewWithDimensionsMode(50, 10, rng.New(uint64(1000+step)), mode)
				if err != nil {
					t.Fatal(err)
				}
				foreign.AddEstimate(victim) // remember the victim's columns under another family
				blob, err := sk.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := foreign.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				sk = foreign
				op = "UnmarshalBinary"
			}
			if got != want {
				t.Fatalf("mode %v step %d %s: estimate %d, reference %d", mode, step, op, got, want)
			}
			if e, er := sk.Estimate(victim), ref.estimateReference(victim); e != er {
				t.Fatalf("mode %v step %d after %s: victim estimate %d, reference %d", mode, step, op, e, er)
			}
			if sk.GlobalMin() != ref.GlobalMin() || sk.Total() != ref.Total() || !slices.Equal(sk.counts, ref.counts) {
				t.Fatalf("mode %v step %d after %s: sketch diverged from the reference", mode, step, op)
			}
		}
	}
}

// TestLegacyModuloBlobRestores: a modulo-mode sketch must serialise as the
// legacy version-1 layout (so pre-mode blobs and readers interoperate) and
// restore under the modulo map with bit-identical behaviour.
func TestLegacyModuloBlobRestores(t *testing.T) {
	sk, err := NewWithDimensionsMode(32, 3, rng.New(81), hashing.ModeModulo)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(82)
	for i := 0; i < 10000; i++ {
		sk.Add(r.Uint64n(200))
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.BigEndian.Uint32(data[4:8]); v != 1 {
		t.Fatalf("modulo sketch serialised as version %d, want legacy version 1", v)
	}
	if want := headerLenV1 + sk.rows*16 + sk.rows*sk.cols*8; len(data) != want {
		t.Fatalf("modulo blob length %d, want v1 layout length %d", len(data), want)
	}
	var back Sketch
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Mode() != hashing.ModeModulo {
		t.Fatalf("restored mode %v, want modulo", back.Mode())
	}
	for id := uint64(0); id < 300; id++ {
		if back.Estimate(id) != sk.Estimate(id) {
			t.Fatalf("estimate mismatch for id %d after legacy restore", id)
		}
	}
}

// TestFastrangeBlobRoundTripsMode: a fastrange sketch round-trips through
// the version-2 layout keeping its mode and exact estimates.
func TestFastrangeBlobRoundTripsMode(t *testing.T) {
	sk, err := NewWithDimensionsMode(32, 3, rng.New(83), hashing.ModeFastrange)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(84)
	for i := 0; i < 10000; i++ {
		sk.Add(r.Uint64n(200))
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.BigEndian.Uint32(data[4:8]); v != 2 {
		t.Fatalf("fastrange sketch serialised as version %d, want 2", v)
	}
	var back Sketch
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Mode() != hashing.ModeFastrange {
		t.Fatalf("restored mode %v, want fastrange", back.Mode())
	}
	for id := uint64(0); id < 300; id++ {
		if back.Estimate(id) != sk.Estimate(id) {
			t.Fatalf("estimate mismatch for id %d after v2 restore", id)
		}
	}
	sk.Add(9)
	back.Add(9)
	if back.Estimate(9) != sk.Estimate(9) {
		t.Fatal("post-restore evolution diverged")
	}
}

// TestMergeAcrossModesRejected: identical (a, b) parameters under different
// bucket maps are different hash functions; SharesFamily and Merge must say
// so. The two constructions draw from identically-seeded generators, so the
// parameters really do coincide — only the mode differs.
func TestMergeAcrossModesRejected(t *testing.T) {
	a, err := NewWithDimensionsMode(64, 4, rng.New(91), hashing.ModeModulo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWithDimensionsMode(64, 4, rng.New(91), hashing.ModeFastrange)
	if err != nil {
		t.Fatal(err)
	}
	if a.SharesFamily(b) {
		t.Fatal("SharesFamily ignored the bucket map mode")
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("Merge across bucket map modes accepted")
	}
}

func BenchmarkSketchAddEstimate(b *testing.B) {
	for _, tc := range []struct {
		name string
		add  func(*Sketch, uint64) uint64
	}{
		{"fused", (*Sketch).AddEstimate},
		{"reference", (*Sketch).addEstimateReference},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sk := mustSketch(b, 1024, 5, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.add(sk, uint64(i)&1023)
			}
		})
	}
}

// TestSketchBytesGolden pins the column maps across hash-kernel rewrites:
// a sketch drawn from a fixed seed and fed a fixed id sequence must marshal
// to the bytes it marshalled to before Family.Columns went from two Mersenne
// reductions per row to one (checksums taken at that parent commit). A kernel
// that moved any id to another column would pass no restored snapshot's
// estimates on unchanged, and this is where it would show.
func TestSketchBytesGolden(t *testing.T) {
	golden := map[hashing.Mode]string{
		hashing.ModeFastrange: "b842ee67385fced575f9cb85ab23434fa94d1e3e5065c29765350e946ccf5fcd",
		hashing.ModeModulo:    "9aed65766f412f1e1f2c47c4ac07e830aa0a269c41fc0e4edaa3832e8ceece58",
	}
	for mode, want := range golden {
		sk, err := NewWithDimensionsMode(50, 10, rng.New(7), mode)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(13)
		for i := 0; i < 100000; i++ {
			id := r.Uint64()
			if i%2 == 0 {
				id %= 100000 // half the stream small dense ids, half full-width
			}
			sk.AddEstimate(id)
		}
		data, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("mode %v: sketch bytes hash to %s, want %s", mode, got, want)
		}
	}
}
