// Package hashing implements the 2-universal hash family the paper relies on
// (Section III-D) plus the min-wise hashing used by the Brahms-style
// baseline sampler.
//
// The family is the classic Carter–Wegman construction over the Mersenne
// prime p = 2^61 − 1:
//
//	h_{a,b}(x) = ((a·x + b) mod p) mod k,  a ∈ [1, p−1], b ∈ [0, p−1]
//
// For any two distinct x, y the collision probability over the random choice
// of (a, b) is at most 1/k (up to the negligible p-rounding term), which is
// exactly the 2-universality property Algorithm 2 (Count-Min sketch) and the
// urn analysis of Section V assume.
package hashing

import (
	"errors"
	"fmt"
	"math/bits"

	"nodesampling/internal/rng"
)

// MersennePrime is p = 2^61 − 1, the modulus of the hash family.
const MersennePrime uint64 = (1 << 61) - 1

// Mode selects how a family member's 61-bit linear value v = (a·x+b) mod p
// is mapped onto its bucket range [0, K). The two maps partition [0, p)
// differently, so the mode is part of a family's identity: sketches built
// under different modes place ids in different columns and must never be
// merged, and serialised sketches record their mode (cms marshal version 2)
// so a restored sketch keeps estimating bit-identically.
type Mode uint8

const (
	// ModeModulo is the original map, bucket = v mod k — one 64-bit
	// division per row per key. Every sketch serialised before modes
	// existed is a ModeModulo sketch.
	ModeModulo Mode = iota
	// ModeFastrange is Lemire's multiply-shift range reduction: v is
	// scaled to the full 64-bit range (v < 2^61, so v·8 loses nothing)
	// and bucket = high64(8v · k) = ⌊v·k/2^61⌋ — a multiply instead of a
	// division. The map is still an (almost) equipartition of [0, p) into
	// k buckets, just by contiguous blocks instead of residue classes, so
	// composed with the 2-universal family it has the same collision
	// bound; only the concrete bucket of a given (a, b, v) differs.
	ModeFastrange
)

func (m Mode) String() string {
	switch m {
	case ModeModulo:
		return "modulo"
	case ModeFastrange:
		return "fastrange"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// valid reports whether m names a defined mode (for deserialisation).
func (m Mode) valid() bool { return m == ModeModulo || m == ModeFastrange }

// mulModMersenne returns (a * b) mod (2^61 − 1) using a 128-bit intermediate
// product and the standard fold reduction for Mersenne primes.
func mulModMersenne(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi·2^64 + lo. With p = 2^61 − 1 we have 2^61 ≡ 1 (mod p), so we
	// fold the value into 61-bit chunks and sum them.
	// lo = lo61 + 2^61·loHi where loHi has 3 bits; hi contributes hi·2^64 =
	// hi·8·2^61 ≡ 8·hi (mod p).
	sum := (lo & MersennePrime) + (lo >> 61) + ((hi << 3) & MersennePrime) + (hi >> 58)
	sum = (sum & MersennePrime) + (sum >> 61)
	if sum >= MersennePrime {
		sum -= MersennePrime
	}
	return sum
}

// addModMersenne returns (a + b) mod (2^61 − 1) for a, b < 2^61.
func addModMersenne(a, b uint64) uint64 {
	sum := a + b
	sum = (sum & MersennePrime) + (sum >> 61)
	if sum >= MersennePrime {
		sum -= MersennePrime
	}
	return sum
}

// reduceModMersenne reduces an arbitrary 64-bit value mod 2^61 − 1.
func reduceModMersenne(x uint64) uint64 {
	x = (x & MersennePrime) + (x >> 61)
	if x >= MersennePrime {
		x -= MersennePrime
	}
	return x
}

// Universal2 is one member h_{a,b} of the 2-universal family mapping uint64
// keys to buckets [0, K).
type Universal2 struct {
	a, b uint64
	k    uint64
	mode Mode
}

// NewUniversal2 draws a random member of the family with range [0, k) under
// the legacy modulo bucket map. It returns an error if k == 0.
func NewUniversal2(k int, r *rng.Xoshiro) (Universal2, error) {
	return NewUniversal2Mode(k, r, ModeModulo)
}

// NewUniversal2Mode draws a random member with an explicit bucket map mode.
func NewUniversal2Mode(k int, r *rng.Xoshiro, mode Mode) (Universal2, error) {
	if k <= 0 {
		return Universal2{}, fmt.Errorf("hashing: bucket count must be positive, got %d", k)
	}
	if k > maxFastrangeK && mode == ModeFastrange {
		return Universal2{}, fmt.Errorf("hashing: bucket count %d exceeds fastrange limit %d", k, maxFastrangeK)
	}
	if r == nil {
		return Universal2{}, errors.New("hashing: nil random source")
	}
	if !mode.valid() {
		return Universal2{}, fmt.Errorf("hashing: unknown bucket map %v", mode)
	}
	a := 1 + r.Uint64n(MersennePrime-1) // a ∈ [1, p−1]
	b := r.Uint64n(MersennePrime)       // b ∈ [0, p−1]
	return Universal2{a: a, b: b, k: uint64(k), mode: mode}, nil
}

// maxFastrangeK bounds the bucket count under ModeFastrange so the scaled
// product 8v·k (v < 2^61) stays exact in the 128-bit intermediate; 2^31 is
// far beyond any sketch width the service uses and matches the modulo
// path's practical range.
const maxFastrangeK = 1 << 31

// NewUniversal2FromParams reconstructs a family member from its parameters
// (for deserialising sketches); a must lie in [1, p−1] and b in [0, p−1].
// The member uses the legacy modulo bucket map.
func NewUniversal2FromParams(a, b uint64, k int) (Universal2, error) {
	return NewUniversal2FromParamsMode(a, b, k, ModeModulo)
}

// NewUniversal2FromParamsMode is NewUniversal2FromParams with an explicit
// bucket map mode, for sketches serialised after modes existed.
func NewUniversal2FromParamsMode(a, b uint64, k int, mode Mode) (Universal2, error) {
	if k <= 0 {
		return Universal2{}, fmt.Errorf("hashing: bucket count must be positive, got %d", k)
	}
	if k > maxFastrangeK && mode == ModeFastrange {
		return Universal2{}, fmt.Errorf("hashing: bucket count %d exceeds fastrange limit %d", k, maxFastrangeK)
	}
	if a < 1 || a >= MersennePrime {
		return Universal2{}, fmt.Errorf("hashing: parameter a=%d outside [1, p-1]", a)
	}
	if b >= MersennePrime {
		return Universal2{}, fmt.Errorf("hashing: parameter b=%d outside [0, p-1]", b)
	}
	if !mode.valid() {
		return Universal2{}, fmt.Errorf("hashing: unknown bucket map %v", mode)
	}
	return Universal2{a: a, b: b, k: uint64(k), mode: mode}, nil
}

// Params returns the (a, b) parameters identifying this family member, so a
// sketch can be serialised and later reconstructed with identical hashing.
func (h Universal2) Params() (a, b uint64) { return h.a, h.b }

// K returns the number of buckets.
func (h Universal2) K() int { return int(h.k) }

// Mode returns the member's bucket map mode.
func (h Universal2) Mode() Mode { return h.mode }

// bucket maps a 61-bit linear value v = (a·x+b) mod p onto [0, K) under the
// member's mode.
func (h Universal2) bucket(v uint64) int {
	if h.mode == ModeFastrange {
		// v < 2^61, so v<<3 occupies the full 64-bit range without overflow
		// and hi = ⌊v·k/2^61⌋ ∈ [0, k). Without the shift the product would
		// only cover [0, k/8): fastrange divides the *input* range evenly,
		// so the input must span the whole 64-bit word.
		hi, _ := bits.Mul64(v<<3, h.k)
		return int(hi)
	}
	return int(v % h.k)
}

// Hash maps x to a bucket in [0, K).
//
// The key is first passed through a fixed 64-bit bijection (the splitmix64
// finalizer). Composing a 2-universal family with a fixed bijection keeps it
// 2-universal, and the mixing reproduces the paper's setting in which node
// identifiers are SHA-1-sized random values: without it, consecutive integer
// ids form arithmetic progressions under the linear map and can leave hash
// buckets systematically uncovered.
//
// This is the reference implementation of the row hash; the hot path is
// Family.Columns, which a property test pins against per-row Hash calls
// bit-for-bit.
func (h Universal2) Hash(x uint64) int {
	return h.bucket(addModMersenne(mulModMersenne(h.a, reduceModMersenne(rng.Mix64(x))), h.b))
}

// Family is an independent collection of 2-universal hash functions sharing
// the same range and bucket map mode, as used by the Count-Min sketch (one
// function per row).
type Family struct {
	fns  []Universal2
	mode Mode
}

// NewFamily draws s independent functions with range [0, k) under
// ModeFastrange — the default for every newly built sketch. Families
// reconstructed from pre-mode serialised parameters (NewFamilyFromParams)
// stay on ModeModulo so their column maps never change.
func NewFamily(s, k int, r *rng.Xoshiro) (*Family, error) {
	return NewFamilyMode(s, k, r, ModeFastrange)
}

// NewFamilyMode draws s independent functions with an explicit bucket map.
func NewFamilyMode(s, k int, r *rng.Xoshiro, mode Mode) (*Family, error) {
	if s <= 0 {
		return nil, fmt.Errorf("hashing: family size must be positive, got %d", s)
	}
	fns := make([]Universal2, s)
	for i := range fns {
		h, err := NewUniversal2Mode(k, r, mode)
		if err != nil {
			return nil, fmt.Errorf("draw function %d: %w", i, err)
		}
		fns[i] = h
	}
	return &Family{fns: fns, mode: mode}, nil
}

// NewFamilyFromParams reconstructs a family from serialised member
// parameters, all sharing the bucket count k, under the legacy modulo map —
// the mode every sketch serialised before modes existed was built with.
func NewFamilyFromParams(params [][2]uint64, k int) (*Family, error) {
	return NewFamilyFromParamsMode(params, k, ModeModulo)
}

// NewFamilyFromParamsMode reconstructs a family with an explicit mode, for
// deserialising sketches whose blob records one.
func NewFamilyFromParamsMode(params [][2]uint64, k int, mode Mode) (*Family, error) {
	if len(params) == 0 {
		return nil, errors.New("hashing: empty parameter list")
	}
	fns := make([]Universal2, len(params))
	for i, p := range params {
		h, err := NewUniversal2FromParamsMode(p[0], p[1], k, mode)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		fns[i] = h
	}
	return &Family{fns: fns, mode: mode}, nil
}

// Params returns each member's (a, b) parameters in order.
func (f *Family) Params() [][2]uint64 {
	out := make([][2]uint64, len(f.fns))
	for i, fn := range f.fns {
		out[i][0], out[i][1] = fn.Params()
	}
	return out
}

// Size returns the number of functions in the family.
func (f *Family) Size() int { return len(f.fns) }

// K returns the shared bucket count.
func (f *Family) K() int { return f.fns[0].K() }

// Mode returns the family's shared bucket map mode. Families with equal
// (a, b) parameters but different modes hash to different columns and are
// therefore distinct families.
func (f *Family) Mode() Mode { return f.mode }

// Hash returns the bucket of x under the i-th function. This per-row form
// is the reference path; batch consumers use Columns.
func (f *Family) Hash(i int, x uint64) int { return f.fns[i].Hash(x) }

// Columns computes the bucket of x under every function in one fused pass,
// writing member i's bucket to cols[i]; cols must have length ≥ Size. The
// splitmix64 premix and its Mersenne reduction are row-invariant, so they
// run once per key instead of once per row, and the per-row tail is one
// 128-bit multiply-add, one reduction and the bucket map. Bit-identical to
// calling Hash per row (the property the fused-vs-reference test pins).
func (f *Family) Columns(x uint64, cols []int) {
	u := reduceModMersenne(rng.Mix64(x))
	if f.mode == ModeFastrange {
		for i := range f.fns {
			h := &f.fns[i]
			hi, _ := bits.Mul64(linearModMersenne(h.a, u, h.b)<<3, h.k)
			cols[i] = int(hi)
		}
		return
	}
	for i := range f.fns {
		h := &f.fns[i]
		cols[i] = int(linearModMersenne(h.a, u, h.b) % h.k)
	}
}

// linearModMersenne returns (a·u + b) mod p, p = 2^61 − 1, for a, u, b < p with
// a single reduction of the 128-bit a·u + b, where Hash's mulModMersenne
// then addModMersenne reduce fully twice; both yield the canonical residue
// in [0, p), so the two agree on every input. a·u + b ≤ p·(p−1) < 2^122, so
// the part above bit 61 is below 2^61 and the folded sum below 2^62: one
// more fold leaves at most p, and one conditional subtract finishes.
func linearModMersenne(a, u, b uint64) uint64 {
	hi, lo := bits.Mul64(a, u)
	lo, carry := bits.Add64(lo, b, 0)
	hi += carry
	sum := (lo & MersennePrime) + (hi<<3 | lo>>61)
	sum = (sum & MersennePrime) + (sum >> 61)
	if sum >= MersennePrime {
		sum -= MersennePrime
	}
	return sum
}

// MinWise is a random "permutation" over the 61-bit id universe used by the
// Brahms-style baseline (Bortnikov et al.): the sampler keeps the id whose
// image under the permutation is minimal. A pairwise-independent linear
// function modulo a prime is a standard min-wise approximation; we expose it
// as a total order over ids.
type MinWise struct {
	a, b uint64
}

// NewMinWise draws a random member of the min-wise family.
func NewMinWise(r *rng.Xoshiro) (MinWise, error) {
	if r == nil {
		return MinWise{}, errors.New("hashing: nil random source")
	}
	a := 1 + r.Uint64n(MersennePrime-1)
	b := r.Uint64n(MersennePrime)
	return MinWise{a: a, b: b}, nil
}

// Image returns the permutation image of x, a value in [0, p). The key is
// pre-mixed with the same fixed bijection as Universal2.Hash, for the same
// reason: structured integer ids must behave like the paper's random
// SHA-1-sized identifiers.
func (m MinWise) Image(x uint64) uint64 {
	return addModMersenne(mulModMersenne(m.a, reduceModMersenne(rng.Mix64(x))), m.b)
}

// Less reports whether x precedes y under the permutation order.
func (m MinWise) Less(x, y uint64) bool { return m.Image(x) < m.Image(y) }
