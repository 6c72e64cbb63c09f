// Package cms implements the Count-Min sketch of Cormode and Muthukrishnan,
// exactly as used by Algorithm 2 of the paper: an s × k matrix F̂ of counters
// with one 2-universal hash function per row. Each arriving id increments one
// counter per row; the frequency estimate f̂_j is the minimum of j's counters
// and never underestimates the true frequency f_j, while
// P{f̂_j > f_j + ε·m} ≤ δ for k = ⌈e/ε⌉ and s = ⌈log₂(1/δ)⌉.
//
// The knowledge-free sampler (Algorithm 3) additionally needs minσ, the
// minimum counter value over the whole matrix; Sketch maintains it
// incrementally so a sampler step stays O(s) instead of O(s·k).
package cms

import (
	"fmt"
	"math"

	"nodesampling/internal/hashing"
	"nodesampling/internal/rng"
)

// Sketch is a Count-Min sketch over uint64 identifiers. It is not safe for
// concurrent use; wrap it or confine it to one goroutine.
type Sketch struct {
	rows int // s in the paper
	cols int // k in the paper
	// counts is the s × k counter matrix flattened row-major into one
	// array: row r, column c lives at counts[r*cols+c]. One flat slice
	// keeps the whole matrix in a single allocation, makes a row access
	// plain index arithmetic instead of a slice-header load, and turns the
	// full-matrix passes (rescanMin, Halve, Merge) into single linear
	// scans the compiler bounds-checks once.
	counts  []uint64
	hashes  *hashing.Family
	total   uint64 // number of Add calls (stream length m)
	gMin    uint64 // cached min over all counters
	gMinCnt int    // how many counters currently equal gMin
	scratch []int  // per-row columns of memo, shared by every hash pass
	// memo is the id whose columns scratch holds, valid while memoOK: a
	// flood repeats one id back to back, and under one hash family its
	// columns never change, so the repeat skips the hash pass.
	memo   uint64
	memoOK bool
}

// New creates a sketch from the accuracy targets of Algorithm 2:
// k = ⌈e/ε⌉ columns and s = ⌈log₂(1/δ)⌉ rows.
func New(epsilon, delta float64, r *rng.Xoshiro) (*Sketch, error) {
	if !(epsilon > 0 && epsilon < 1) {
		return nil, fmt.Errorf("cms: epsilon must be in (0,1), got %v", epsilon)
	}
	if !(delta > 0 && delta < 1) {
		return nil, fmt.Errorf("cms: delta must be in (0,1), got %v", delta)
	}
	k := int(math.Ceil(math.E / epsilon))
	s := int(math.Ceil(math.Log2(1 / delta)))
	if s < 1 {
		s = 1
	}
	return NewWithDimensions(k, s, r)
}

// NewWithDimensions creates a sketch with an explicit k × s shape, matching
// the parameterisation used throughout the paper's evaluation section. New
// sketches hash under hashing.ModeFastrange; sketches deserialised from
// pre-mode blobs stay on the modulo map (see NewWithDimensionsMode and
// UnmarshalBinary).
func NewWithDimensions(k, s int, r *rng.Xoshiro) (*Sketch, error) {
	return NewWithDimensionsMode(k, s, r, hashing.ModeFastrange)
}

// NewWithDimensionsMode is NewWithDimensions with an explicit bucket map
// mode — primarily for tests and for interoperating with legacy
// modulo-mode sketch state.
func NewWithDimensionsMode(k, s int, r *rng.Xoshiro, mode hashing.Mode) (*Sketch, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cms: column count k must be positive, got %d", k)
	}
	if s <= 0 {
		return nil, fmt.Errorf("cms: row count s must be positive, got %d", s)
	}
	fam, err := hashing.NewFamilyMode(s, k, r, mode)
	if err != nil {
		return nil, fmt.Errorf("cms: %w", err)
	}
	return &Sketch{
		rows:    s,
		cols:    k,
		counts:  make([]uint64, s*k),
		hashes:  fam,
		gMin:    0,
		gMinCnt: s * k,
		scratch: make([]int, s),
	}, nil
}

// Rows returns s, the number of rows (hash functions).
func (sk *Sketch) Rows() int { return sk.rows }

// Cols returns k, the number of counters per row.
func (sk *Sketch) Cols() int { return sk.cols }

// Total returns the number of ids added so far (the stream length m).
func (sk *Sketch) Total() uint64 { return sk.total }

// Mode returns the bucket map mode of the sketch's hash family.
func (sk *Sketch) Mode() hashing.Mode { return sk.hashes.Mode() }

// Add records one occurrence of id, incrementing one counter per row
// (Algorithm 2, lines 6–7).
func (sk *Sketch) Add(id uint64) { sk.AddEstimate(id) }

// AddEstimate records one occurrence of id and returns its updated estimate
// f̂_id from the same hash pass: with plain Count-Min every one of id's
// counters gains exactly one, so the post-add estimate is the minimum of
// the incremented counters. Equivalent to Add followed by Estimate, minus
// the second set of row hashes — the saving that makes batch ingestion
// (KnowledgeFree.ProcessBatch) cheaper per id than the single-id path.
// The row hashes come from one fused Columns pass (a single key premix
// for all rows, no per-row division under fastrange); the per-row Hash
// path survives as a test oracle (addEstimateReference) that pins it
// bit-identical.
func (sk *Sketch) AddEstimate(id uint64) uint64 {
	sk.total++
	sk.columns(id)
	est := ^uint64(0)
	gMin := sk.gMin
	counts := sk.counts
	base := 0
	for row := 0; row < sk.rows; row++ {
		idx := base + sk.scratch[row]
		v := counts[idx] + 1
		counts[idx] = v
		if v-1 == gMin {
			sk.gMinCnt--
		}
		if v < est {
			est = v
		}
		base += sk.cols
	}
	if sk.gMinCnt == 0 {
		sk.rescanMin()
	}
	return est
}

// AddConservative records one occurrence of id with the conservative-update
// (CM-CU) rule of Estan & Varghese: only counters that would otherwise fall
// below the new estimate est+1 are raised, i.e. each of id's counters
// becomes max(counter, est+1) where est is id's estimate before the update.
// The estimate remains an upper bound on the true frequency while the
// collision over-count shrinks dramatically on skewed streams, which
// sharpens the knowledge-free strategy's discrimination when k is small
// relative to the population (see the ablation-cu experiment).
func (sk *Sketch) AddConservative(id uint64) { sk.AddConservativeEstimate(id) }

// AddConservativeEstimate is AddConservative returning the updated estimate
// f̂_id: the CM-CU rule lifts every counter of id to at least est+1, so the
// post-update estimate is exactly est+1. One hash pass computes the columns
// for both the estimate and the update.
func (sk *Sketch) AddConservativeEstimate(id uint64) uint64 {
	sk.total++
	sk.columns(id)
	est := ^uint64(0)
	for row := 0; row < sk.rows; row++ {
		if v := sk.counts[row*sk.cols+sk.scratch[row]]; v < est {
			est = v
		}
	}
	target := est + 1
	for row := 0; row < sk.rows; row++ {
		idx := row*sk.cols + sk.scratch[row]
		v := sk.counts[idx]
		if v >= target {
			continue
		}
		sk.counts[idx] = target
		if v == sk.gMin {
			sk.gMinCnt--
		}
	}
	if sk.gMinCnt == 0 {
		sk.rescanMin()
	}
	return target
}

// rescanMin recomputes the global minimum after all counters at the previous
// minimum have been incremented. Counters only ever grow, so the new minimum
// is at least the old one; a full scan is the simplest correct recovery and
// it amortises: between rescans every one of the s·k counters at the minimum
// must receive an increment.
func (sk *Sketch) rescanMin() {
	minV := ^uint64(0)
	cnt := 0
	for _, v := range sk.counts {
		switch {
		case v < minV:
			minV, cnt = v, 1
		case v == minV:
			cnt++
		}
	}
	sk.gMin, sk.gMinCnt = minV, cnt
}

// Estimate returns f̂_id, the estimated number of occurrences of id: the
// minimum of its counters across rows (Algorithm 2, line 8). The estimate
// never underestimates the true count.
func (sk *Sketch) Estimate(id uint64) uint64 {
	sk.columns(id)
	est := ^uint64(0)
	for row := 0; row < sk.rows; row++ {
		if v := sk.counts[row*sk.cols+sk.scratch[row]]; v < est {
			est = v
		}
	}
	return est
}

// columns fills scratch with id's column in every row, unless it already
// holds them.
func (sk *Sketch) columns(id uint64) {
	if id != sk.memo || !sk.memoOK {
		sk.hashes.Columns(id, sk.scratch)
		sk.memo, sk.memoOK = id, true
	}
}

// GlobalMin returns minσ, the minimum counter value over the entire matrix,
// as used for the insertion probability of Algorithm 3 (line 6).
func (sk *Sketch) GlobalMin() uint64 { return sk.gMin }

// globalMinNaive is the O(s·k) reference implementation of GlobalMin, used
// by tests to validate the incremental tracker.
func (sk *Sketch) globalMinNaive() uint64 {
	minV := ^uint64(0)
	for _, v := range sk.counts {
		if v < minV {
			minV = v
		}
	}
	return minV
}

// Halve divides every counter by two (rounding down) and rescans the global
// minimum. Halving the sketch periodically exponentially decays the weight
// of old stream elements, letting the knowledge-free sampler track a slowly
// changing population — the paper assumes churn ceases at T0; this is the
// natural relaxation for streams where it merely slows down. Estimates stay
// within a factor-2 window of the decayed frequencies and never drop below
// half of a just-observed burst.
func (sk *Sketch) Halve() {
	for i := range sk.counts {
		sk.counts[i] >>= 1
	}
	sk.total >>= 1
	sk.rescanMin()
}

// Reset zeroes all counters while keeping the hash functions, so the sketch
// can be reused across experiment trials without re-deriving the family.
func (sk *Sketch) Reset() {
	for i := range sk.counts {
		sk.counts[i] = 0
	}
	sk.total = 0
	sk.gMin = 0
	sk.gMinCnt = sk.rows * sk.cols
}

// SharesFamily reports whether both sketches use the same dimensions, the
// same hash-function parameters and the same bucket map mode, i.e. whether
// identical ids hit identical counters in both. Only such sketches can be
// merged meaningfully: summing counters accumulated under different hash
// families (or the same parameters under different bucket maps) yields a
// matrix whose minima estimate nothing.
func (sk *Sketch) SharesFamily(other *Sketch) bool {
	if other == nil || sk.rows != other.rows || sk.cols != other.cols {
		return false
	}
	if sk.hashes.Mode() != other.hashes.Mode() {
		return false
	}
	a, b := sk.hashes.Params(), other.hashes.Params()
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Merge adds the counters of other into sk. Both sketches must share the
// same dimensions and the same hash family (SharesFamily); when every id was
// counted by exactly one of the merged sketches, the result is bit-identical
// to a single sketch that saw the union of their streams — the property the
// sharded pool's resize hand-off relies on.
func (sk *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("cms: merge with nil sketch")
	}
	if sk.rows != other.rows || sk.cols != other.cols {
		return fmt.Errorf("cms: dimension mismatch: %dx%d vs %dx%d",
			sk.rows, sk.cols, other.rows, other.cols)
	}
	if !sk.SharesFamily(other) {
		return fmt.Errorf("cms: merge across distinct hash families")
	}
	for i := range sk.counts {
		sk.counts[i] += other.counts[i]
	}
	sk.total += other.total
	sk.rescanMin()
	return nil
}

// Clone returns a deep copy of the sketch sharing the same hash family, so
// that the copy estimates identically and is mergeable with the original.
func (sk *Sketch) Clone() *Sketch {
	counts := make([]uint64, len(sk.counts))
	copy(counts, sk.counts)
	return &Sketch{
		rows:    sk.rows,
		cols:    sk.cols,
		counts:  counts,
		hashes:  sk.hashes,
		total:   sk.total,
		gMin:    sk.gMin,
		gMinCnt: sk.gMinCnt,
		scratch: make([]int, sk.rows),
	}
}

// CloneEmpty returns a zero-counter sketch sharing sk's hash family, so the
// clone estimates over its own stream yet remains mergeable with sk and with
// every other clone — the construction behind the pool's per-shard sketches.
func (sk *Sketch) CloneEmpty() *Sketch {
	return &Sketch{
		rows:    sk.rows,
		cols:    sk.cols,
		counts:  make([]uint64, sk.rows*sk.cols),
		hashes:  sk.hashes,
		gMin:    0,
		gMinCnt: sk.rows * sk.cols,
		scratch: make([]int, sk.rows),
	}
}

// CounterBytes returns the memory footprint of the counter matrix in bytes,
// which is what the paper means by the "very small memory" of the sampler.
func (sk *Sketch) CounterBytes() int { return sk.rows * sk.cols * 8 }
