// Package rng provides the deterministic randomness substrate used by every
// simulation and sampler in this repository.
//
// Experiments must be reproducible across runs and across Go releases, so we
// do not rely on the (version-dependent) default math/rand source. Instead we
// implement two small, well-known generators:
//
//   - SplitMix64: used for seeding and for cheap stateless mixing.
//   - Xoshiro256**: the main generator, exposed as a rand.Source64 so it can
//     back a math/rand.Rand when the convenience API is wanted.
//
// The package has no global state; callers create generators explicitly and
// pass them down, which keeps concurrent simulations race-free and
// independently seeded.
package rng

import (
	"math/bits"
	"math/rand"
)

// SplitMix64 advances the given state and returns the next value of the
// splitmix64 sequence. It is the recommended way to derive independent seeds
// for Xoshiro256** generators from a single root seed.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns a stateless 64-bit mix of x. It is the finalizer of
// splitmix64 and is a good integer hash for seeding and sharding purposes.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro implements the xoshiro256** 1.0 generator by Blackman and Vigna.
// It satisfies rand.Source64. The zero value is not a valid generator; use
// New or Seed.
type Xoshiro struct {
	s [4]uint64
}

var _ rand.Source64 = (*Xoshiro)(nil)

// New returns a Xoshiro generator seeded from seed via splitmix64, as
// recommended by the xoshiro authors.
func New(seed uint64) *Xoshiro {
	var x Xoshiro
	x.Seed(int64(seed))
	return &x
}

// NewRand returns a *rand.Rand backed by a freshly seeded Xoshiro generator.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(New(seed))
}

// Seed resets the generator state from seed. It implements rand.Source.
func (x *Xoshiro) Seed(seed int64) {
	state := uint64(seed)
	for i := range x.s {
		x.s[i] = SplitMix64(&state)
	}
	// An all-zero state would be absorbing; splitmix64 cannot produce four
	// consecutive zeros, but guard anyway for defence in depth.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64-bit value of the xoshiro256** sequence.
func (x *Xoshiro) Uint64() uint64 {
	result := bits.RotateLeft64(x.s[1]*5, 7) * 9
	t := x.s[1] << 17

	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = bits.RotateLeft64(x.s[3], 45)

	return result
}

// Int63 implements rand.Source.
func (x *Xoshiro) Int63() int64 {
	return int64(x.Uint64() >> 1)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0, matching
// the contract of the math/rand *n functions.
func (x *Xoshiro) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	hi, lo := bits.Mul64(x.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(x.Uint64(), n)
		}
	}
	return hi
}

// Quotas draws n independent indices with P(i) = weights[i] / Σ weights and
// returns how many landed on each — the multinomial counts of the service's
// one Γ-weighted draw: pick a source with probability |Γᵢ| / Σ|Γ|, then a
// uniform element of it, which is a uniform draw over the union of the
// sources whatever their sizes. The shard pool calls it over shard sizes and
// the daemon's cluster merge over member memories. It consumes the generator
// one Uint64n(Σ weights) per draw, so the counts are a function of the
// generator's state and the weights alone. A zero weight never draws; zero n
// or all-zero weights yield nil and leave the generator untouched.
func (x *Xoshiro) Quotas(weights []uint64, n int) []int {
	var total uint64
	for _, w := range weights {
		total += w
	}
	if total == 0 || n < 1 {
		return nil
	}
	quotas := make([]int, len(weights))
	for ; n > 0; n-- {
		pick := x.Uint64n(total)
		for i, w := range weights {
			if pick < w {
				quotas[i]++
				break
			}
			pick -= w
		}
	}
	return quotas
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. Probabilities outside [0, 1]
// are clamped.
func (x *Xoshiro) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return x.Float64() < p
}

// Perm returns a uniform random permutation of [0, n) as a slice.
func (x *Xoshiro) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := x.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the swap function,
// mirroring rand.Shuffle.
func (x *Xoshiro) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		swap(i, j)
	}
}

// Split returns a new generator seeded from the current one such that the
// two streams are statistically independent. It is the supported way to hand
// private generators to concurrent workers.
func (x *Xoshiro) Split() *Xoshiro {
	return New(x.Uint64())
}
