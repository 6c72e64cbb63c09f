package core

import (
	"errors"
	"fmt"
	"sort"

	"nodesampling/internal/cms"
	"nodesampling/internal/rng"
)

// This file defines the pluggable strategy layer: the PoolSampler contract
// every sampling backend implements, and the registry that names them. The
// shard pool, the public Pool/Service API, snapshots, and the unsd daemon
// build samplers exclusively through SamplerFactory values resolved here, so
// a new backend (Honeybee, LIFT, ...) plugs in by registering one entry and
// inherits sharding, snapshots, telemetry, and the uniformity proofs.

// PoolSampler is the full contract a sampling strategy implements to run
// inside the sharded pool. It extends the minimal Sampler interface with the
// batch hot path, state management for snapshots, the decay hook the pool's
// global decay clock drives, and the cloning/merging operations Resize needs.
//
// The contract mirrors the paper's strategy shape rather than any one
// estimator: Process consumes one id from the input stream σ and returns the
// sampler's current output σ′; Decay ages the frequency state (a sketch
// halving for the knowledge-free strategy, a slot-seed refresh for BASALT);
// MarshalState must round-trip through the registry's Restore hook so
// snapshots stay strategy-generic.
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
	// Estimate reports the sampler's frequency knowledge for one id (a
	// Count-Min estimate, a hit counter, ... — strategy-defined).
	Estimate(id uint64) uint64

	// Decay applies one aging step. The pool's global decay clock calls
	// this once per DecayEvery ids observed pool-wide.
	Decay()

	// CloneEmpty derives a fresh, empty sampler of the same strategy and
	// shape, driven by r. Clones of one sampler are state-mergeable.
	CloneEmpty(r *rng.Xoshiro) (PoolSampler, error)
	// MergeState folds another sampler's frequency state (not its memory)
	// into this one. Both must be the same strategy and family.
	MergeState(other PoolSampler) error
	// MarshalState serialises the frequency state for snapshots; the
	// registry's Restore hook reverses it.
	MarshalState() ([]byte, error)
	// StateDesc is a human-readable shape description ("count-min 64x4",
	// "basalt 50 slots") used in snapshot-mismatch errors.
	StateDesc() string
	// SharesFamily reports whether other uses the same hash/seed family,
	// i.e. whether MergeState between the two is meaningful.
	SharesFamily(other PoolSampler) bool
	// StrategyName returns the registry name this sampler was built under.
	StrategyName() string
}

// StrategyParams carries the knobs a strategy may consult when building a
// sampler. Sketch-free strategies ignore the sketch shape.
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
	// Name is the registry name ("knowledge-free", "basalt", ...).
	Name string
	// New builds a fresh sampler with memory capacity c, driven by r.
	New func(c int, r *rng.Xoshiro) (PoolSampler, error)
	// Restore rebuilds a sampler from MarshalState bytes.
	Restore func(c int, state []byte, r *rng.Xoshiro) (PoolSampler, error)
}

// DefaultStrategy is the paper's estimator and the name implied by
// pre-strategy (v1) snapshot blobs.
const DefaultStrategy = "knowledge-free"

// strategyDef is one registry entry.
type strategyDef struct {
	build   func(p StrategyParams, c int, r *rng.Xoshiro) (PoolSampler, error)
	restore func(p StrategyParams, c int, state []byte, r *rng.Xoshiro) (PoolSampler, error)
}

var strategyRegistry = map[string]strategyDef{
	DefaultStrategy: {
		build: func(p StrategyParams, c int, r *rng.Xoshiro) (PoolSampler, error) {
			if p.UseAccuracy {
				return NewKnowledgeFreeFromAccuracy(c, p.Epsilon, p.Delta, r, p.Options...)
			}
			k, s := p.K, p.S
			if k == 0 && s == 0 {
				k, s = 50, 10
			}
			return NewKnowledgeFree(c, k, s, r, p.Options...)
		},
		restore: func(p StrategyParams, c int, state []byte, r *rng.Xoshiro) (PoolSampler, error) {
			sk := new(cms.Sketch)
			if err := sk.UnmarshalBinary(state); err != nil {
				return nil, err
			}
			return NewKnowledgeFreeWithSketch(c, sk, r, p.Options...)
		},
	},
	"basalt": {
		build: func(p StrategyParams, c int, r *rng.Xoshiro) (PoolSampler, error) {
			return NewBasalt(c, r, p.Options...)
		},
		restore: func(p StrategyParams, c int, state []byte, r *rng.Xoshiro) (PoolSampler, error) {
			return RestoreBasalt(c, state, r, p.Options...)
		},
	},
}

// Strategies lists the registered strategy names, sorted.
func Strategies() []string {
	names := make([]string, 0, len(strategyRegistry))
	for name := range strategyRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewFactory resolves name ("" means DefaultStrategy) against the registry
// and binds the params, returning a factory the pool can call per shard.
func NewFactory(name string, p StrategyParams) (SamplerFactory, error) {
	if name == "" {
		name = DefaultStrategy
	}
	def, ok := strategyRegistry[name]
	if !ok {
		return SamplerFactory{}, fmt.Errorf("core: unknown sampler strategy %q (registered: %v)", name, Strategies())
	}
	bound := name
	return SamplerFactory{
		Name: bound,
		New: func(c int, r *rng.Xoshiro) (PoolSampler, error) {
			return def.build(p, c, r)
		},
		Restore: func(c int, state []byte, r *rng.Xoshiro) (PoolSampler, error) {
			return def.restore(p, c, state, r)
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

// StrategyName returns the registry name of the paper's estimator.
func (kf *KnowledgeFree) StrategyName() string { return DefaultStrategy }
