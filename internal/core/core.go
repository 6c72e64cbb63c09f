// Package core implements the paper's contribution: the uniform node
// sampling service tolerant to collusions of malicious nodes.
//
// A sampler is a one-pass, online component local to a correct node. It
// reads the node's input stream σ of node identifiers — which an adversary
// may bias arbitrarily — and produces an output stream σ′ intended to
// satisfy two properties (Section IV):
//
//	Uniformity: ∀t, ∀j ∈ N, P{S(t) = j} = 1/n
//	Freshness:  ∀t, ∀j ∈ N, {t′ > t : S(t′) = j} ≠ ∅ with probability 1
//
// Two strategies are provided, faithful to Algorithms 1 and 3:
//
//   - Omniscient: knows each id's true occurrence probability p_j (through
//     an Oracle) and admits an arriving id into the sampling memory Γ with
//     probability a_j = min_i(p_i)/p_j, evicting a uniform victim.
//   - KnowledgeFree: estimates frequencies with a Count-Min sketch and
//     admits with probability a_j = minσ/f̂_j, where minσ is the smallest
//     counter of the whole sketch.
//
// Two baselines are included for comparison: FullSpace (the impracticable
// exact strategy that remembers every id) and MinWiseSampler (the
// min-wise-permutation sampler of Bortnikov et al. [6], which converges to
// a uniform choice but then never changes — violating Freshness).
package core

import (
	"errors"
	"fmt"

	"nodesampling/internal/cms"
	"nodesampling/internal/hashing"
	"nodesampling/internal/rng"
)

// Sampler is the node sampling service interface shared by the strategies
// and baselines. Implementations are single-goroutine components; wrap them
// (see the root package's Service) for concurrent use.
type Sampler interface {
	// Process reads one id from the input stream and returns the id written
	// to the output stream for this step.
	Process(id uint64) uint64
	// Sample returns the service's current sample S(t) without consuming
	// input. ok is false before any id has been processed.
	Sample() (id uint64, ok bool)
	// Memory returns a copy of the sampler's current memory Γ.
	Memory() []uint64
}

// Stats counts the sampler's internal activity; useful for experiments and
// ablations.
type Stats struct {
	Processed  uint64 // ids read from the input stream
	Admitted   uint64 // ids inserted into Γ (fill or replacement)
	Evicted    uint64 // ids removed from Γ
	Duplicates uint64 // arrivals already present in Γ (no-ops, the chain's self-loops)
}

// EvictionPolicy selects the element of Γ to evict when a new id is
// admitted into a full memory. The paper's analysis (Theorem 4) requires
// the removal probabilities r_j to be identical — UniformEviction — to make
// the stationary distribution uniform; alternative policies are provided
// for the ablation study.
type EvictionPolicy interface {
	// Pick returns the index in mem of the victim. mem is non-empty.
	Pick(mem []uint64, r *rng.Xoshiro) int
}

// UniformEviction picks the victim uniformly: r_k/Σr_ℓ = 1/|Γ| for the
// constant family r_j = 1/n of Corollary 5.
type UniformEviction struct{}

var _ EvictionPolicy = UniformEviction{}

// Pick implements EvictionPolicy.
func (UniformEviction) Pick(mem []uint64, r *rng.Xoshiro) int {
	return r.Intn(len(mem))
}

// WeightedEviction picks the victim with probability proportional to
// Weight(id), i.e. a non-constant family (r_j). Used by the ablation
// benches to demonstrate that Theorem 4's uniformity breaks when r_j is not
// constant.
type WeightedEviction struct {
	Weight func(id uint64) float64
}

var _ EvictionPolicy = WeightedEviction{}

// Pick implements EvictionPolicy. Non-positive total weight falls back to
// uniform choice.
func (w WeightedEviction) Pick(mem []uint64, r *rng.Xoshiro) int {
	total := 0.0
	for _, id := range mem {
		if v := w.Weight(id); v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return r.Intn(len(mem))
	}
	x := r.Float64() * total
	for i, id := range mem {
		if v := w.Weight(id); v > 0 {
			x -= v
			if x < 0 {
				return i
			}
		}
	}
	return len(mem) - 1
}

// gammaScanThreshold is the memory capacity above which Γ maintains a
// hash index for membership tests. Below it a linear scan over the
// contiguous items slice is faster than any map operation (the whole
// memory fits in a couple of cache lines at the paper's operating points,
// c ∈ [10, 50]), and replacement needs no index maintenance at all.
const gammaScanThreshold = 128

// gamma is the sampling memory Γ: a set of at most c distinct ids with
// cheap membership, insertion, replacement and uniform choice.
type gamma struct {
	items []uint64
	index map[uint64]int // nil below gammaScanThreshold: scanning wins
	cap   int
	// last and lastIn remember the latest membership answer, because a
	// flood asks about one id over and over. add and replace keep it exact;
	// the zero value (id 0, absent) is exact for the empty memory.
	last   uint64
	lastIn bool
}

func newGamma(c int) gamma {
	g := gamma{
		items: make([]uint64, 0, c),
		cap:   c,
	}
	if c > gammaScanThreshold {
		g.index = make(map[uint64]int, c)
	}
	return g
}

func (g *gamma) contains(id uint64) bool {
	if id == g.last {
		return g.lastIn
	}
	in := false
	if g.index != nil {
		_, in = g.index[id]
	} else {
		for _, v := range g.items {
			if v == id {
				in = true
				break
			}
		}
	}
	g.last, g.lastIn = id, in
	return in
}

func (g *gamma) full() bool { return len(g.items) == g.cap }
func (g *gamma) size() int  { return len(g.items) }

// add appends id to a non-full memory.
func (g *gamma) add(id uint64) {
	if g.index != nil {
		g.index[id] = len(g.items)
	}
	g.items = append(g.items, id)
	if id == g.last {
		g.lastIn = true
	}
}

// replace evicts the element at index i and installs id in its place.
func (g *gamma) replace(i int, id uint64) (evicted uint64) {
	evicted = g.items[i]
	if g.index != nil {
		delete(g.index, evicted)
		g.index[id] = i
	}
	g.items[i] = id
	switch g.last {
	case id:
		g.lastIn = true
	case evicted:
		g.lastIn = false
	}
	return evicted
}

// snapshot returns a copy of the memory contents.
func (g *gamma) snapshot() []uint64 {
	out := make([]uint64, len(g.items))
	copy(out, g.items)
	return out
}

// config carries the options shared by the two strategies.
type config struct {
	eviction     EvictionPolicy
	conservative bool
	halveEvery   uint64
}

// Option customises a sampler at construction time.
type Option func(*config) error

// WithEviction overrides the eviction policy (default UniformEviction).
func WithEviction(p EvictionPolicy) Option {
	return func(c *config) error {
		if p == nil {
			return errors.New("core: nil eviction policy")
		}
		c.eviction = p
		return nil
	}
}

// WithPeriodicHalving makes the knowledge-free strategy halve all sketch
// counters every `every` processed ids, exponentially decaying the weight
// of old stream elements. The paper's model assumes churn stops at time T0;
// periodic halving is the natural relaxation that lets the sampler follow a
// population that keeps changing slowly: departed ids wash out of the
// frequency estimates instead of suppressing newcomers forever. The option
// has no effect on the omniscient strategy.
func WithPeriodicHalving(every uint64) Option {
	return func(c *config) error {
		if every == 0 {
			return errors.New("core: halving period must be positive")
		}
		c.halveEvery = every
		return nil
	}
}

// WithConservativeUpdate makes the knowledge-free strategy feed its sketch
// with the conservative-update rule (CM-CU) instead of the plain Count-Min
// increments of Algorithm 2. Estimates remain upper bounds but carry far
// less collision over-count, which markedly improves the strategy's
// discrimination when the sketch width k is small relative to the
// population (the paper's Figure 7b operating point). The option has no
// effect on the omniscient strategy.
func WithConservativeUpdate() Option {
	return func(c *config) error {
		c.conservative = true
		return nil
	}
}

func buildConfig(opts []Option) (config, error) {
	cfg := config{eviction: UniformEviction{}}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Oracle supplies the omniscient strategy with the knowledge Algorithm 1
// assumes: the true occurrence probability of every id in the input stream
// and the minimum probability over the population.
// stream.Categorical satisfies this interface, as does CountOracle for
// recorded traces.
type Oracle interface {
	// Prob returns p_j, the occurrence probability of id j in the stream.
	Prob(id uint64) float64
	// MinProb returns min over the population of the non-zero p_i.
	MinProb() float64
}

// Omniscient implements Algorithm 1. It requires an Oracle for the stream's
// true occurrence probabilities; with the families a_j = min(p_i)/p_j and
// r_j = 1/n the output stream is provably uniform and fresh (Corollary 5).
type Omniscient struct {
	mem    gamma
	oracle Oracle
	r      *rng.Xoshiro
	evict  EvictionPolicy
	stats  Stats
}

var _ Sampler = (*Omniscient)(nil)

// NewOmniscient creates an omniscient sampler with memory capacity c.
func NewOmniscient(c int, oracle Oracle, r *rng.Xoshiro, opts ...Option) (*Omniscient, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: memory size c must be at least 1, got %d", c)
	}
	if oracle == nil {
		return nil, errors.New("core: nil oracle")
	}
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return &Omniscient{
		mem:    newGamma(c),
		oracle: oracle,
		r:      r,
		evict:  cfg.eviction,
	}, nil
}

// Process implements one step of Algorithm 1.
func (o *Omniscient) Process(id uint64) uint64 {
	o.stats.Processed++
	switch {
	case o.mem.contains(id):
		// Γ is a set: a present id leaves the state unchanged (the Markov
		// chain's self-loop).
		o.stats.Duplicates++
	case !o.mem.full():
		o.mem.add(id)
		o.stats.Admitted++
	default:
		aj := o.admissionProb(id)
		if o.r.Bernoulli(aj) {
			victim := o.evict.Pick(o.mem.items, o.r)
			o.mem.replace(victim, id)
			o.stats.Admitted++
			o.stats.Evicted++
		}
	}
	out, _ := o.Sample()
	return out
}

// admissionProb returns a_j = min_i(p_i)/p_j, clamped to [0, 1]. An id the
// oracle has never seen (p_j = 0) is treated as maximally rare (a_j = 1):
// rarer than the rarest known id, it must be admitted.
func (o *Omniscient) admissionProb(id uint64) float64 {
	pj := o.oracle.Prob(id)
	if pj <= 0 {
		return 1
	}
	aj := o.oracle.MinProb() / pj
	if aj > 1 {
		aj = 1
	}
	return aj
}

// Sample returns a uniformly chosen element of Γ.
func (o *Omniscient) Sample() (uint64, bool) {
	if o.mem.size() == 0 {
		return 0, false
	}
	return o.mem.items[o.r.Intn(o.mem.size())], true
}

// Memory returns a copy of Γ.
func (o *Omniscient) Memory() []uint64 { return o.mem.snapshot() }

// Stats returns the sampler's activity counters.
func (o *Omniscient) Stats() Stats { return o.stats }

// KnowledgeFree implements Algorithm 3: the omniscient structure with the
// oracle replaced by a Count-Min sketch built on the fly over the same
// stream. The admission probability is a_j = minσ/f̂_j with minσ the global
// minimum counter of the sketch and f̂_j the estimate for the arriving id.
type KnowledgeFree struct {
	mem          gamma
	sketch       *cms.Sketch
	r            *rng.Xoshiro
	evict        EvictionPolicy
	conservative bool
	halveEvery   uint64
	stats        Stats
}

var _ Sampler = (*KnowledgeFree)(nil)

// NewKnowledgeFree creates a knowledge-free sampler with memory capacity c
// and a k-column, s-row Count-Min sketch (the paper's notation).
func NewKnowledgeFree(c, k, s int, r *rng.Xoshiro, opts ...Option) (*KnowledgeFree, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: memory size c must be at least 1, got %d", c)
	}
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	sketch, err := cms.NewWithDimensions(k, s, r)
	if err != nil {
		return nil, err
	}
	return &KnowledgeFree{
		mem:          newGamma(c),
		sketch:       sketch,
		r:            r,
		evict:        cfg.eviction,
		conservative: cfg.conservative,
		halveEvery:   cfg.halveEvery,
	}, nil
}

// NewKnowledgeFreeWithSketch creates a knowledge-free sampler around an
// existing sketch, taking ownership of it. The sharded pool uses this to
// give every shard an empty clone of one template sketch (a shared hash
// family makes per-shard sketches mergeable at resize), and to revive
// samplers from snapshots and resize hand-offs with their frequency state
// intact.
func NewKnowledgeFreeWithSketch(c int, sk *cms.Sketch, r *rng.Xoshiro, opts ...Option) (*KnowledgeFree, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: memory size c must be at least 1, got %d", c)
	}
	if sk == nil {
		return nil, errors.New("core: nil sketch")
	}
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return &KnowledgeFree{
		mem:          newGamma(c),
		sketch:       sk,
		r:            r,
		evict:        cfg.eviction,
		conservative: cfg.conservative,
		halveEvery:   cfg.halveEvery,
	}, nil
}

// NewKnowledgeFreeFromAccuracy creates a knowledge-free sampler whose sketch
// is sized from the (ε, δ) accuracy targets of Algorithm 2: k = ⌈e/ε⌉ and
// s = ⌈log₂(1/δ)⌉.
func NewKnowledgeFreeFromAccuracy(c int, epsilon, delta float64, r *rng.Xoshiro, opts ...Option) (*KnowledgeFree, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: memory size c must be at least 1, got %d", c)
	}
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	sketch, err := cms.New(epsilon, delta, r)
	if err != nil {
		return nil, err
	}
	return &KnowledgeFree{
		mem:          newGamma(c),
		sketch:       sketch,
		r:            r,
		evict:        cfg.eviction,
		conservative: cfg.conservative,
		halveEvery:   cfg.halveEvery,
	}, nil
}

// Process implements one step of Algorithm 3: the sketch and the sampling
// logic both consume the arriving id (the paper's cobegin).
func (kf *KnowledgeFree) Process(id uint64) uint64 {
	kf.processOne(id)
	out, _ := kf.Sample()
	return out
}

// processOne runs the sketch update and admission for one arriving id,
// shared by Process and ProcessBatch. The fused add-and-estimate keeps the
// sketch work to a single hash pass; fj ≥ 1 because the sketch just
// counted id.
func (kf *KnowledgeFree) processOne(id uint64) {
	kf.stats.Processed++
	var fj uint64
	if kf.conservative {
		fj = kf.sketch.AddConservativeEstimate(id)
	} else {
		fj = kf.sketch.AddEstimate(id)
	}
	if kf.halveEvery > 0 && kf.stats.Processed%kf.halveEvery == 0 {
		kf.sketch.Halve()
		// On a halving step the admission probability is computed from the
		// halved counters.
		fj = kf.sketch.Estimate(id)
	}
	kf.admitStep(id, fj)
}

// admitStep is the admission half of Algorithm 3, shared by the single-id
// and batch paths: given the arriving id and its frequency estimate f̂_j,
// admit it into Γ with probability minσ/f̂_j, evicting a victim chosen by
// the eviction policy.
func (kf *KnowledgeFree) admitStep(id, fj uint64) {
	switch {
	case kf.mem.contains(id):
		kf.stats.Duplicates++
	case !kf.mem.full():
		kf.mem.add(id)
		kf.stats.Admitted++
	default:
		minSigma := kf.sketch.GlobalMin()
		aj := float64(minSigma) / float64(fj)
		if kf.r.Bernoulli(aj) {
			victim := kf.evict.Pick(kf.mem.items, kf.r)
			kf.mem.replace(victim, id)
			kf.stats.Admitted++
			kf.stats.Evicted++
		}
	}
}

// ProcessBatch consumes a whole batch of ids with the same admission logic
// as Process, but without drawing a per-id output sample: batch ingestion
// (the sharded pool) serves samples on demand, so the per-step output draw
// of the paper's one-pass loop would be pure waste.
func (kf *KnowledgeFree) ProcessBatch(ids []uint64) {
	for _, id := range ids {
		kf.processOne(id)
	}
}

// ProcessBatchEmit consumes a batch like ProcessBatch but restores the
// per-id output draw of the paper's one-pass loop: after each ingested id
// one uniform element of Γ is appended to out — the output stream σ′ that
// Algorithm 1 writes continuously. It returns the extended slice. Γ is
// non-empty from the first processed id on, so exactly len(ids) draws are
// appended whenever the memory was seeded (always, except for the ids at
// the very front of the sampler's first ever batch before one is admitted —
// and the first id is always admitted, so in practice one draw per id).
func (kf *KnowledgeFree) ProcessBatchEmit(ids []uint64, out []uint64) []uint64 {
	for _, id := range ids {
		kf.processOne(id)
		if s, ok := kf.Sample(); ok {
			out = append(out, s)
		}
	}
	return out
}

// Sample returns a uniformly chosen element of Γ.
func (kf *KnowledgeFree) Sample() (uint64, bool) {
	if kf.mem.size() == 0 {
		return 0, false
	}
	return kf.mem.items[kf.r.Intn(kf.mem.size())], true
}

// Memory returns a copy of Γ.
func (kf *KnowledgeFree) Memory() []uint64 { return kf.mem.snapshot() }

// MemorySize returns the current |Γ| without copying the memory.
func (kf *KnowledgeFree) MemorySize() int { return kf.mem.size() }

// MemoryCap returns c, the capacity of Γ.
func (kf *KnowledgeFree) MemoryCap() int { return kf.mem.cap }

// RestoreMemory replaces Γ with the given ids (duplicates collapse; Γ is a
// set). The resize and snapshot-restore paths use it to hand a repartitioned
// or deserialised memory to a sampler. Fails without modifying the sampler
// if the distinct ids exceed the capacity; callers shedding overflow must
// choose the survivors uniformly to preserve the Uniformity argument.
func (kf *KnowledgeFree) RestoreMemory(ids []uint64) error {
	mem := newGamma(kf.mem.cap)
	for _, id := range ids {
		if mem.contains(id) {
			continue
		}
		if mem.full() {
			return fmt.Errorf("core: restoring %d distinct ids into a memory of capacity %d", len(ids), kf.mem.cap)
		}
		mem.add(id)
	}
	kf.mem = mem
	return nil
}

// Stats returns the sampler's activity counters.
func (kf *KnowledgeFree) Stats() Stats { return kf.stats }

// Sketch exposes the underlying Count-Min sketch (read-only use intended);
// experiments use it to inspect estimation error under attack.
func (kf *KnowledgeFree) Sketch() *cms.Sketch { return kf.sketch }

// CountOracle is an Oracle built from exact id counts — the "omniscient"
// knowledge for a recorded trace, obtained by a preliminary full pass.
type CountOracle struct {
	probs map[uint64]float64
	min   float64
}

var _ Oracle = (*CountOracle)(nil)

// NewCountOracle builds an oracle from a count table.
func NewCountOracle(counts map[uint64]uint64) (*CountOracle, error) {
	if len(counts) == 0 {
		return nil, errors.New("core: empty count table")
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return nil, errors.New("core: all counts are zero")
	}
	probs := make(map[uint64]float64, len(counts))
	min := 2.0
	for id, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		probs[id] = p
		if p < min {
			min = p
		}
	}
	return &CountOracle{probs: probs, min: min}, nil
}

// NewCountOracleFromStream counts a recorded stream and builds the oracle.
func NewCountOracleFromStream(ids []uint64) (*CountOracle, error) {
	if len(ids) == 0 {
		return nil, errors.New("core: empty stream")
	}
	counts := make(map[uint64]uint64)
	for _, id := range ids {
		counts[id]++
	}
	return NewCountOracle(counts)
}

// Prob implements Oracle.
func (o *CountOracle) Prob(id uint64) float64 { return o.probs[id] }

// MinProb implements Oracle.
func (o *CountOracle) MinProb() float64 { return o.min }

// FullSpace is the impracticable exact baseline discussed in the paper's
// introduction: it stores every distinct id ever seen and samples uniformly
// among them. Its memory grows linearly with the population, which is
// precisely what the paper's strategies avoid.
type FullSpace struct {
	ids  []uint64
	seen map[uint64]struct{}
	r    *rng.Xoshiro
}

var _ Sampler = (*FullSpace)(nil)

// NewFullSpace creates the full-memory baseline.
func NewFullSpace(r *rng.Xoshiro) (*FullSpace, error) {
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	return &FullSpace{seen: make(map[uint64]struct{}), r: r}, nil
}

// Process records the id if new and returns a uniform sample of all ids
// seen so far.
func (f *FullSpace) Process(id uint64) uint64 {
	if _, ok := f.seen[id]; !ok {
		f.seen[id] = struct{}{}
		f.ids = append(f.ids, id)
	}
	out, _ := f.Sample()
	return out
}

// Sample returns a uniform element among all distinct ids seen.
func (f *FullSpace) Sample() (uint64, bool) {
	if len(f.ids) == 0 {
		return 0, false
	}
	return f.ids[f.r.Intn(len(f.ids))], true
}

// Memory returns a copy of all distinct ids seen (unbounded).
func (f *FullSpace) Memory() []uint64 {
	out := make([]uint64, len(f.ids))
	copy(out, f.ids)
	return out
}

// MinWiseSampler is the Bortnikov et al. baseline [6]: it keeps the id whose
// image under a randomly drawn min-wise permutation is smallest. Over a
// stream that eventually contains every id, the kept id converges to a
// uniform choice — and then never changes again, violating Freshness. The
// paper's introduction and related-work sections argue against exactly this
// behaviour; the ablation bench quantifies it.
type MinWiseSampler struct {
	perm hashing.MinWise
	cur  uint64
	img  uint64
	has  bool
	// changes counts how many times the sample value changed, exposing the
	// staticity defect: it stops growing once convergence is reached.
	changes uint64
}

var _ Sampler = (*MinWiseSampler)(nil)

// NewMinWiseSampler draws a random min-wise permutation for the sampler.
func NewMinWiseSampler(r *rng.Xoshiro) (*MinWiseSampler, error) {
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	perm, err := hashing.NewMinWise(r)
	if err != nil {
		return nil, err
	}
	return &MinWiseSampler{perm: perm}, nil
}

// Process keeps the minimum-image id and returns the current sample.
func (m *MinWiseSampler) Process(id uint64) uint64 {
	img := m.perm.Image(id)
	if !m.has || img < m.img {
		if m.has && id != m.cur {
			m.changes++
		}
		m.cur, m.img, m.has = id, img, true
	}
	out, _ := m.Sample()
	return out
}

// Sample returns the current minimum-image id.
func (m *MinWiseSampler) Sample() (uint64, bool) { return m.cur, m.has }

// Memory returns the single stored id (or empty before any input).
func (m *MinWiseSampler) Memory() []uint64 {
	if !m.has {
		return nil
	}
	return []uint64{m.cur}
}

// Changes reports how many times the sample value has changed since the
// first arrival; a static sampler stops changing early in the stream.
func (m *MinWiseSampler) Changes() uint64 { return m.changes }
