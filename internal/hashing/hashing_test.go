package hashing

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"nodesampling/internal/rng"
)

// TestMulModMersenneAgainstBig cross-checks the fast Mersenne reduction
// against math/big over random operands.
func TestMulModMersenneAgainstBig(t *testing.T) {
	r := rng.New(1)
	p := new(big.Int).SetUint64(MersennePrime)
	for i := 0; i < 20000; i++ {
		a := r.Uint64n(MersennePrime)
		b := r.Uint64n(MersennePrime)
		got := mulModMersenne(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		if got != want.Uint64() {
			t.Fatalf("mulModMersenne(%d, %d) = %d, want %d", a, b, got, want.Uint64())
		}
	}
}

func TestMulModMersenneEdgeCases(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 0},
		{0, MersennePrime - 1},
		{MersennePrime - 1, MersennePrime - 1},
		{1, MersennePrime - 1},
		{MersennePrime / 2, 2},
	}
	p := new(big.Int).SetUint64(MersennePrime)
	for _, c := range cases {
		got := mulModMersenne(c.a, c.b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(c.a), new(big.Int).SetUint64(c.b))
		want.Mod(want, p)
		if got != want.Uint64() {
			t.Errorf("mulModMersenne(%d, %d) = %d, want %d", c.a, c.b, got, want.Uint64())
		}
	}
}

func TestAddModMersenneProperty(t *testing.T) {
	r := rng.New(2)
	f := func(_ uint64) bool {
		a := r.Uint64n(MersennePrime)
		b := r.Uint64n(MersennePrime)
		got := addModMersenne(a, b)
		want := (a + b) % MersennePrime
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceModMersenne(t *testing.T) {
	r := rng.New(3)
	for i := 0; i < 10000; i++ {
		x := r.Uint64()
		if got, want := reduceModMersenne(x), x%MersennePrime; got != want {
			t.Fatalf("reduceModMersenne(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestNewUniversal2Validation(t *testing.T) {
	r := rng.New(4)
	if _, err := NewUniversal2Mode(0, r, ModeModulo); err == nil {
		t.Error("NewUniversal2Mode(0) should fail")
	}
	if _, err := NewUniversal2Mode(-3, r, ModeModulo); err == nil {
		t.Error("NewUniversal2Mode(-3) should fail")
	}
	if _, err := NewUniversal2Mode(10, nil, ModeModulo); err == nil {
		t.Error("NewUniversal2Mode with nil rng should fail")
	}
}

func TestUniversal2Range(t *testing.T) {
	r := rng.New(5)
	for _, k := range []int{1, 2, 7, 64, 1000} {
		h, err := NewUniversal2Mode(k, r, ModeModulo)
		if err != nil {
			t.Fatal(err)
		}
		if h.K() != k {
			t.Fatalf("K() = %d, want %d", h.K(), k)
		}
		for i := 0; i < 1000; i++ {
			if b := h.Hash(r.Uint64()); b < 0 || b >= k {
				t.Fatalf("bucket %d out of range [0,%d)", b, k)
			}
		}
	}
}

// TestUniversal2CollisionBound estimates the pairwise collision probability
// over random draws of the function and checks it is close to 1/k, the
// 2-universality guarantee from Section III-D of the paper.
func TestUniversal2CollisionBound(t *testing.T) {
	r := rng.New(6)
	const k = 16
	const pairs = 64
	const draws = 4000
	collisions := 0
	for i := 0; i < pairs; i++ {
		x := r.Uint64()
		y := r.Uint64()
		if x == y {
			continue
		}
		for j := 0; j < draws/pairs; j++ {
			h, err := NewUniversal2Mode(k, r, ModeModulo)
			if err != nil {
				t.Fatal(err)
			}
			if h.Hash(x) == h.Hash(y) {
				collisions++
			}
		}
	}
	p := float64(collisions) / draws
	// 2-universality promises p <= 1/k (up to rounding); allow generous
	// statistical slack above the bound.
	bound := 1.0/k + 4*math.Sqrt((1.0/k)*(1-1.0/k)/draws)
	if p > bound {
		t.Fatalf("collision probability %v exceeds 2-universal bound %v", p, bound)
	}
}

// TestUniversal2Uniformity checks a single drawn function spreads a
// structured key set (consecutive integers) evenly via a chi-square test.
func TestUniversal2Uniformity(t *testing.T) {
	r := rng.New(7)
	const k = 32
	const n = 64000
	h, err := NewUniversal2Mode(k, r, ModeModulo)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, k)
	for x := uint64(0); x < n; x++ {
		counts[h.Hash(x)]++
	}
	want := float64(n) / k
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	// 31 degrees of freedom; 99.9th percentile is about 61.1. A pairwise-
	// independent linear map on consecutive keys is in fact very regular, so
	// this is a loose sanity check rather than a sharp test.
	if chi2 > 100 {
		t.Fatalf("chi-square %v too large for uniform buckets", chi2)
	}
}

func TestFamilyIndependentFunctions(t *testing.T) {
	r := rng.New(8)
	f, err := NewFamilyMode(5, 64, r, ModeFastrange)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 5 || f.K() != 64 {
		t.Fatalf("family shape = (%d, %d), want (5, 64)", f.Size(), f.K())
	}
	// Two distinct rows should disagree on most keys.
	agree := 0
	const n = 1000
	for i := 0; i < n; i++ {
		x := r.Uint64()
		if f.Hash(0, x) == f.Hash(1, x) {
			agree++
		}
	}
	if agree > n/4 {
		t.Fatalf("rows 0 and 1 agreed on %d/%d keys; functions look identical", agree, n)
	}
}

func TestNewFamilyValidation(t *testing.T) {
	r := rng.New(9)
	if _, err := NewFamilyMode(0, 8, r, ModeFastrange); err == nil {
		t.Error("NewFamilyMode(0, 8) should fail")
	}
	if _, err := NewFamilyMode(3, 0, r, ModeFastrange); err == nil {
		t.Error("NewFamilyMode(3, 0) should fail")
	}
}

func TestMinWiseIsInjectiveOnSamples(t *testing.T) {
	r := rng.New(10)
	m, err := NewMinWise(r)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]uint64)
	for i := 0; i < 20000; i++ {
		x := r.Uint64n(MersennePrime)
		img := m.Image(x)
		if prev, ok := seen[img]; ok && prev != x {
			t.Fatalf("min-wise image collision: %d and %d both map to %d", prev, x, img)
		}
		seen[img] = x
	}
}

func TestMinWiseMinUniformity(t *testing.T) {
	// The defining property of min-wise families: over the random draw of
	// the permutation, each element of a fixed set is the minimum with
	// probability close to 1/|set|.
	r := rng.New(11)
	ids := []uint64{3, 17, 101, 9999, 123456789}
	const draws = 20000
	wins := make([]int, len(ids))
	for d := 0; d < draws; d++ {
		m, err := NewMinWise(r)
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for i := 1; i < len(ids); i++ {
			if m.Less(ids[i], ids[best]) {
				best = i
			}
		}
		wins[best]++
	}
	want := float64(draws) / float64(len(ids))
	for i, w := range wins {
		if math.Abs(float64(w)-want) > 6*math.Sqrt(want) {
			t.Fatalf("id %d was minimum %d times, want about %v", ids[i], w, want)
		}
	}
}

func TestMinWiseNilRNG(t *testing.T) {
	if _, err := NewMinWise(nil); err == nil {
		t.Error("NewMinWise(nil) should fail")
	}
}

func BenchmarkUniversal2Hash(b *testing.B) {
	r := rng.New(1)
	h, err := NewUniversal2Mode(1024, r, ModeModulo)
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	for i := 0; i < b.N; i++ {
		sink += h.Hash(uint64(i))
	}
	_ = sink
}

func BenchmarkMinWiseImage(b *testing.B) {
	r := rng.New(1)
	m, err := NewMinWise(r)
	if err != nil {
		b.Fatal(err)
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Image(uint64(i))
	}
	_ = sink
}

// TestColumnsMatchesHash pins the fused bulk path against the per-row
// reference Hash bit-for-bit, over randomized shapes and keys, both bucket
// maps, and bucket counts up to the fastrange limit (k near 2^31 exercises
// the scaled multiply's top end).
func TestColumnsMatchesHash(t *testing.T) {
	r := rng.New(99)
	ks := []int{1, 2, 3, 7, 10, 1000, 1 << 20, (1 << 31) - 1, 1 << 31}
	for _, mode := range []Mode{ModeModulo, ModeFastrange} {
		for _, k := range ks {
			for _, s := range []int{1, 4, 17} {
				f, err := NewFamilyMode(s, k, r, mode)
				if err != nil {
					t.Fatal(err)
				}
				if f.Mode() != mode {
					t.Fatalf("family mode %v, want %v", f.Mode(), mode)
				}
				cols := make([]int, s)
				for trial := 0; trial < 200; trial++ {
					x := r.Uint64()
					if trial < 4 {
						// Also cover structured keys: 0, 1, p, ^0.
						x = []uint64{0, 1, MersennePrime, ^uint64(0)}[trial]
					}
					f.Columns(x, cols)
					for row := 0; row < s; row++ {
						want := f.Hash(row, x)
						if cols[row] != want {
							t.Fatalf("mode %v k=%d s=%d row %d key %#x: Columns %d != Hash %d",
								mode, k, s, row, x, cols[row], want)
						}
						if cols[row] < 0 || cols[row] >= k {
							t.Fatalf("mode %v k=%d: bucket %d out of range", mode, k, cols[row])
						}
					}
				}
			}
		}
	}
}

// TestModesDisagree: for a non-trivial bucket count the two maps must be
// genuinely different functions of the same (a, b) parameters — otherwise
// the mode versioning would be guarding nothing.
func TestModesDisagree(t *testing.T) {
	r := rng.New(5)
	fm, err := NewFamilyMode(4, 1000, r, ModeModulo)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := NewFamilyFromParamsMode(fm.Params(), 1000, ModeFastrange)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for x := uint64(0); x < 1000; x++ {
		for row := 0; row < 4; row++ {
			if fm.Hash(row, x) != ff.Hash(row, x) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("modulo and fastrange agreed on every key; modes are not distinct maps")
	}
}

// TestFastrangeUniform: the fastrange map composed with the family stays
// statistically uniform (the same chi-square criterion the modulo map
// passes).
func TestFastrangeUniform(t *testing.T) {
	const k, draws = 64, 200000
	r := rng.New(11)
	h, err := NewUniversal2Mode(k, r, ModeFastrange)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, k)
	for i := 0; i < draws; i++ {
		counts[h.Hash(r.Uint64())]++
	}
	want := float64(draws) / k
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	// 99.9th percentile of chi-square with 63 degrees of freedom ≈ 103.
	if chi2 > 103 {
		t.Fatalf("chi-square %.1f over 63 dof; fastrange buckets not uniform", chi2)
	}
}

// TestFamilyFromParamsModeRoundTrip: params + mode reconstruct the exact
// family under both modes.
func TestFamilyFromParamsModeRoundTrip(t *testing.T) {
	r := rng.New(3)
	for _, mode := range []Mode{ModeModulo, ModeFastrange} {
		f, err := NewFamilyMode(3, 777, r, mode)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewFamilyFromParamsMode(f.Params(), 777, mode)
		if err != nil {
			t.Fatal(err)
		}
		if g.Mode() != mode {
			t.Fatalf("mode %v lost in round trip", mode)
		}
		for x := uint64(0); x < 500; x++ {
			for row := 0; row < 3; row++ {
				if f.Hash(row, x) != g.Hash(row, x) {
					t.Fatalf("mode %v: reconstructed family diverged at key %d", mode, x)
				}
			}
		}
	}
}

func BenchmarkFamilyColumns(b *testing.B) {
	for _, mode := range []Mode{ModeModulo, ModeFastrange} {
		b.Run(mode.String(), func(b *testing.B) {
			f, err := NewFamilyMode(5, 1024, rng.New(1), mode)
			if err != nil {
				b.Fatal(err)
			}
			cols := make([]int, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Columns(uint64(i), cols)
			}
		})
	}
}

// unmix64 inverts rng.Mix64 (every step of the splitmix64 finalizer is a
// bijection), so a test can choose the premixed value a key reduces to.
func unmix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= 0x319642b2d24d8ec3 // inverse of 0x94d049bb133111eb mod 2^64
	x ^= x>>27 ^ x>>54
	x *= 0x96de1b173f119089 // inverse of 0xbf58476d1ce4e5b9 mod 2^64
	return x ^ x>>30 ^ x>>60
}

// TestLinearModMersenneBoundaries pins the single-reduction row kernel
// against math/big and against the reference's two full reductions on the
// vectors where a fold or the final subtract can go wrong: the extreme
// operands, a 128-bit sum whose low word carries, and sums whose first fold
// lands exactly on p, on 2^61 and on the largest value a fold can produce.
func TestLinearModMersenneBoundaries(t *testing.T) {
	const p = MersennePrime
	cases := []struct{ a, u, b uint64 }{
		{1, 0, 0}, {1, 0, p - 1}, {p - 1, 0, p - 1},
		{1, 1, 0}, {p - 1, 1, 0}, {p - 1, 1, p - 1},
		{1, p - 1, 0}, {p - 1, p - 1, 0}, {p - 1, p - 1, p - 1}, // the largest a·u+b
		{p - 1, 1, 1},         // a·u+b = p: folds to exactly p
		{p - 1, 1, 2},         // a·u+b = 2^61
		{2, p - 1, 3},         // a·u+b = 2p+1: first fold is exactly 2^61
		{8, p - 1, 15},        // a·u+b = 2^64−1: low word all ones
		{8, p - 1, 16},        // a·u+b = 2^64: the add carries into the high word
		{1 << 60, 1 << 60, 0}, // a·u = 2^120: low word zero
	}
	r := rng.New(123)
	for i := 0; i < 20000; i++ {
		cases = append(cases, struct{ a, u, b uint64 }{1 + r.Uint64n(p-1), r.Uint64n(p), r.Uint64n(p)})
	}
	bp := new(big.Int).SetUint64(p)
	for _, c := range cases {
		want := new(big.Int).Mul(new(big.Int).SetUint64(c.a), new(big.Int).SetUint64(c.u))
		want.Add(want, new(big.Int).SetUint64(c.b)).Mod(want, bp)
		if got := linearModMersenne(c.a, c.u, c.b); got != want.Uint64() {
			t.Errorf("linearModMersenne(%d, %d, %d) = %d, want %d", c.a, c.u, c.b, got, want.Uint64())
		}
		if ref := addModMersenne(mulModMersenne(c.a, c.u), c.b); ref != want.Uint64() {
			t.Errorf("reference (%d·%d + %d) mod p = %d, want %d", c.a, c.u, c.b, ref, want.Uint64())
		}
	}
}

// TestColumnsMatchesHashAtBoundaries drives the same boundary through the
// public surface: families rebuilt from extreme (a, b) parameters, keys
// chosen (by inverting the premix) to reduce to u ∈ {0, 1, 2, p−1}, both
// bucket maps — Columns must name the bucket Universal2.Hash names.
func TestColumnsMatchesHashAtBoundaries(t *testing.T) {
	const p = MersennePrime
	params := [][2]uint64{{1, 0}, {1, p - 1}, {p - 1, 0}, {p - 1, 1}, {p - 1, 2}, {p - 1, p - 1}, {2, 3}, {8, 15}, {8, 16}}
	var keys []uint64
	for _, u := range []uint64{0, 1, 2, p - 1} {
		// p ≡ 0 (mod p), so u, u+p, … all reduce to u; cover every wrap of
		// the 64-bit premix over the 61-bit modulus that fits.
		for m := u; m >= u && m-u <= 7*p; m += p {
			if reduceModMersenne(rng.Mix64(unmix64(m))) != u {
				t.Fatalf("unmix64(%#x) does not reduce to %d", m, u)
			}
			keys = append(keys, unmix64(m))
		}
	}
	for _, mode := range []Mode{ModeModulo, ModeFastrange} {
		for _, k := range []int{1, 2, 50, 1000, 1 << 31} {
			f, err := NewFamilyFromParamsMode(params, k, mode)
			if err != nil {
				t.Fatal(err)
			}
			cols := make([]int, f.Size())
			for _, x := range keys {
				f.Columns(x, cols)
				for row := range cols {
					if want := f.Hash(row, x); cols[row] != want {
						t.Fatalf("mode %v k=%d params %v key %#x: Columns %d != Hash %d",
							mode, k, params[row], x, cols[row], want)
					}
				}
			}
		}
	}
}
