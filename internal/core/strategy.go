package core

import (
	"errors"
	"fmt"

	"nodesampling/internal/cms"
	"nodesampling/internal/rng"
)

// This file defines the seam between the knowledge-free sampler and
// everything that runs it: the PoolSampler contract and the SamplerFactory
// that builds and restores samplers. The shard pool, the public Pool/Service
// API, snapshots, and the unsd daemon reach the sampler only through these,
// which keeps the cluster plane's state opaque and lets tests substitute a
// failing factory.

// PoolSampler is the full contract a sampler implements to run inside the
// sharded pool. It extends the minimal Sampler interface with the batch hot
// path, state management for snapshots, the decay hook the pool's global
// decay clock drives, and the cloning/merging operations Resize needs.
//
// Process consumes one id from the input stream σ and returns the sampler's
// current output σ′; Decay ages the frequency state (a sketch halving);
// MarshalState must round-trip through the factory's Restore hook.
type PoolSampler interface {
	Sampler

	// ProcessBatch consumes ids without collecting the emitted samples.
	ProcessBatch(ids []uint64)
	// ProcessBatchEmit consumes ids and appends one emitted sample per id
	// to out, returning the extended slice.
	ProcessBatchEmit(ids []uint64, out []uint64) []uint64

	// SampleN appends up to n independent samples to out.
	SampleN(n int, out []uint64) []uint64
	// MemorySize reports how many ids the sampler memory currently holds.
	MemorySize() int
	// MemoryCap reports the configured memory capacity c.
	MemoryCap() int
	// RestoreMemory replaces the sampler memory with the given ids.
	RestoreMemory(ids []uint64) error
	// Estimate reports the sampler's frequency knowledge for one id (its
	// Count-Min estimate).
	Estimate(id uint64) uint64

	// Decay applies one aging step. The pool's global decay clock calls
	// this once per DecayEvery ids observed pool-wide.
	Decay()

	// CloneEmpty derives a fresh, empty sampler of the same shape, driven by
	// r. Clones of one sampler are state-mergeable.
	CloneEmpty(r *rng.Xoshiro) (PoolSampler, error)
	// MergeState folds another sampler's frequency state (not its memory)
	// into this one. Both must share a family.
	MergeState(other PoolSampler) error
	// MarshalState serialises the frequency state for snapshots; the
	// factory's Restore hook reverses it.
	MarshalState() ([]byte, error)
	// StateDesc is a human-readable shape description ("count-min 64x4")
	// used in snapshot-mismatch errors.
	StateDesc() string
	// SharesFamily reports whether other uses the same hash/seed family,
	// i.e. whether MergeState between the two is meaningful.
	SharesFamily(other PoolSampler) bool
	// StrategyName returns the name this sampler was built under.
	StrategyName() string
}

// StrategyParams carries the knobs NewFactory binds into the samplers it
// builds.
type StrategyParams struct {
	K, S        int     // Count-Min shape: k columns, s rows (0,0 = default 50x10)
	UseAccuracy bool    // derive the sketch shape from (Epsilon, Delta) instead
	Epsilon     float64 // relative accuracy when UseAccuracy
	Delta       float64 // failure probability when UseAccuracy
	Options     []Option
}

// SamplerFactory builds and restores samplers of one named strategy. The
// capacity is a per-call argument (not baked in at resolve time) because a
// snapshot restore learns the capacity from the blob, after the factory has
// already been resolved.
type SamplerFactory struct {
	// Name is the strategy name snapshots record (DefaultStrategy).
	Name string
	// New builds a fresh sampler with memory capacity c, driven by r.
	New func(c int, r *rng.Xoshiro) (PoolSampler, error)
	// Restore rebuilds a sampler from MarshalState bytes.
	Restore func(c int, state []byte, r *rng.Xoshiro) (PoolSampler, error)
}

// DefaultStrategy is the paper's estimator, the only strategy, and the name
// implied by pre-strategy (v1) snapshot blobs.
const DefaultStrategy = "knowledge-free"

// Strategies lists the strategy names NewFactory accepts.
func Strategies() []string { return []string{DefaultStrategy} }

// NewFactory binds the params to the knowledge-free sampler and returns a
// factory the pool can call per shard. name must be "" or DefaultStrategy.
// The BASALT-style backend was retired: its G_KL against the tournament's
// four attacks was 0.06, −0.07, −1.01 and −8.87, so three of its four
// outputs were further from uniform than their inputs.
func NewFactory(name string, p StrategyParams) (SamplerFactory, error) {
	switch name {
	case "", DefaultStrategy:
	case "basalt":
		return SamplerFactory{}, fmt.Errorf("core: sampler strategy %q was retired: its output was further from uniform than its input under three of four attacks; use %q",
			name, DefaultStrategy)
	default:
		return SamplerFactory{}, fmt.Errorf("core: unknown sampler strategy %q (known: %q)", name, DefaultStrategy)
	}
	return SamplerFactory{
		Name: DefaultStrategy,
		New: func(c int, r *rng.Xoshiro) (PoolSampler, error) {
			if p.UseAccuracy {
				return NewKnowledgeFreeFromAccuracy(c, p.Epsilon, p.Delta, r, p.Options...)
			}
			k, s := p.K, p.S
			if k == 0 && s == 0 {
				k, s = 50, 10
			}
			return NewKnowledgeFree(c, k, s, r, p.Options...)
		},
		Restore: func(c int, state []byte, r *rng.Xoshiro) (PoolSampler, error) {
			sk := new(cms.Sketch)
			if err := sk.UnmarshalBinary(state); err != nil {
				return nil, err
			}
			return NewKnowledgeFreeWithSketch(c, sk, r, p.Options...)
		},
	}, nil
}

// --- KnowledgeFree: PoolSampler surface -----------------------------------

var _ PoolSampler = (*KnowledgeFree)(nil)

// SampleN appends up to n independent uniform draws from Γ to out.
func (kf *KnowledgeFree) SampleN(n int, out []uint64) []uint64 {
	for i := 0; i < n; i++ {
		id, ok := kf.Sample()
		if !ok {
			break
		}
		out = append(out, id)
	}
	return out
}

// Estimate reports the Count-Min frequency estimate for id.
func (kf *KnowledgeFree) Estimate(id uint64) uint64 { return kf.sketch.Estimate(id) }

// Decay halves every sketch counter — the knowledge-free aging step.
func (kf *KnowledgeFree) Decay() { kf.sketch.Halve() }

// CloneEmpty derives a fresh sampler sharing the sketch's hash family, with
// empty counters and empty Γ, driven by r.
func (kf *KnowledgeFree) CloneEmpty(r *rng.Xoshiro) (PoolSampler, error) {
	if r == nil {
		return nil, errors.New("core: rng must not be nil")
	}
	return &KnowledgeFree{
		mem:          newGamma(kf.mem.cap),
		sketch:       kf.sketch.CloneEmpty(),
		r:            r,
		evict:        kf.evict,
		conservative: kf.conservative,
		halveEvery:   kf.halveEvery,
	}, nil
}

// MergeState adds other's sketch counters into this sampler's sketch.
func (kf *KnowledgeFree) MergeState(other PoolSampler) error {
	o, ok := other.(*KnowledgeFree)
	if !ok {
		return fmt.Errorf("core: cannot merge %s state into %s", other.StrategyName(), DefaultStrategy)
	}
	return kf.sketch.Merge(o.sketch)
}

// MarshalState serialises the sketch (the Γ memory is carried separately by
// the snapshot layer). The bytes are exactly the sketch's binary form, which
// keeps v2 snapshot bodies bit-identical to v1 bodies.
func (kf *KnowledgeFree) MarshalState() ([]byte, error) { return kf.sketch.MarshalBinary() }

// StateDesc describes the sketch shape for snapshot-mismatch errors.
func (kf *KnowledgeFree) StateDesc() string {
	return fmt.Sprintf("count-min %dx%d", kf.sketch.Cols(), kf.sketch.Rows())
}

// SharesFamily reports whether other is a knowledge-free sampler over the
// same hash family (same seeds, rows, cols).
func (kf *KnowledgeFree) SharesFamily(other PoolSampler) bool {
	o, ok := other.(*KnowledgeFree)
	return ok && kf.sketch.SharesFamily(o.sketch)
}

// StrategyName returns DefaultStrategy.
func (kf *KnowledgeFree) StrategyName() string { return DefaultStrategy }
