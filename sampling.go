package nodesampling

import (
	cryptorand "crypto/rand"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"

	"nodesampling/internal/adversary"
	"nodesampling/internal/core"
	"nodesampling/internal/rng"
)

// NodeID identifies a node. The paper draws identifiers from {1, …, 2^160}
// (SHA-1 images); this implementation uses their first 64 bits, which keeps
// the collision probability negligible at any simulated scale while leaving
// the algorithms unchanged. Use HashID/HashString to derive ids from
// arbitrary node names, addresses or certificates.
type NodeID uint64

// HashID maps arbitrary bytes (a node certificate, address, public key) to
// a NodeID via SHA-1, mirroring the paper's identifier construction.
func HashID(data []byte) NodeID {
	sum := sha1.Sum(data)
	return NodeID(binary.BigEndian.Uint64(sum[:8]))
}

// HashString maps a string to a NodeID via SHA-1.
func HashString(s string) NodeID { return HashID([]byte(s)) }

// Sampler is the node sampling service: a one-pass component that reads the
// (possibly adversarially biased) input stream of node identifiers and
// emits a stream satisfying Uniformity and Freshness.
//
// Implementations returned by this package are not safe for concurrent use;
// wrap them in a Service for that.
type Sampler interface {
	// Process consumes one id from the input stream and returns the id
	// emitted to the output stream at this step.
	Process(id NodeID) NodeID
	// Sample returns the current sample without consuming input. ok is
	// false before the first Process call.
	Sample() (id NodeID, ok bool)
	// Memory returns a copy of the sampling memory Γ.
	Memory() []NodeID
}

// Oracle supplies the omniscient strategy with the true occurrence
// probability of every identifier in the input stream.
type Oracle interface {
	// Prob returns p_j, the occurrence probability of id j.
	Prob(id NodeID) float64
	// MinProb returns the smallest non-zero occurrence probability over the
	// population.
	MinProb() float64
}

// config collects the constructor options.
type config struct {
	seed       uint64
	seedSet    bool
	strategy   string
	k, s       int
	useAcc     bool
	eps, del   float64
	coreOption []core.Option
	decayEvery uint64

	// Pool-only knobs (see NewPool); ignored by the sampler constructors.
	shardBuffer    int
	shardBufferSet bool
	nonBlocking    bool
}

// Option customises a sampler constructor.
type Option func(*config) error

// WithSeed fixes the sampler's random seed, making its behaviour
// reproducible. Without it a seed is derived from a private source.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		c.seedSet = true
		return nil
	}
}

// WithStrategy names the sampling strategy. The only one is
// "knowledge-free", the paper's Algorithm 3 and the default; any other name
// makes NewSampler and NewPool fail (the retired "basalt" by name). The
// strategy is recorded in Pool.Snapshot blobs: a snapshot restores only
// under the strategy that wrote it.
func WithStrategy(name string) Option {
	return func(c *config) error {
		if name == "" {
			return errors.New("nodesampling: empty strategy name")
		}
		c.strategy = name
		return nil
	}
}

// Strategies lists the sampling strategy names WithStrategy accepts.
func Strategies() []string { return core.Strategies() }

// WithSketch sets the Count-Min sketch shape to k columns × s rows (the
// paper's notation). Width k is the defender's main lever: the adversary
// needs Θ(k) distinct identifiers to mount a successful attack.
func WithSketch(k, s int) Option {
	return func(c *config) error {
		if k < 1 || s < 1 {
			return fmt.Errorf("nodesampling: invalid sketch shape k=%d s=%d", k, s)
		}
		c.k, c.s = k, s
		c.useAcc = false
		return nil
	}
}

// WithSketchAccuracy sizes the sketch from the Count-Min accuracy targets:
// k = ⌈e/ε⌉ columns and s = ⌈log₂(1/δ)⌉ rows.
func WithSketchAccuracy(epsilon, delta float64) Option {
	return func(c *config) error {
		if !(epsilon > 0 && epsilon < 1) || !(delta > 0 && delta < 1) {
			return fmt.Errorf("nodesampling: invalid accuracy targets epsilon=%v delta=%v", epsilon, delta)
		}
		c.eps, c.del = epsilon, delta
		c.useAcc = true
		return nil
	}
}

// WithDecay makes the knowledge-free sampler halve its sketch counters
// every `every` processed ids, exponentially forgetting old stream
// elements. The paper assumes churn ceases at a time T0; enable decay when
// the population keeps changing slowly, so that departed nodes wash out of
// the frequency estimates and fresh attackers are suppressed promptly
// (extension; see the ablation-churn experiment). Affects knowledge-free
// samplers only. In a NewPool the period is a global decay clock: every
// shard halves each time the pool as a whole has processed `every` further
// ids, so shard estimates stay comparable even when the salted partition
// is momentarily skewed.
func WithDecay(every uint64) Option {
	return func(c *config) error {
		if every == 0 {
			return fmt.Errorf("nodesampling: decay period must be positive")
		}
		c.decayEvery = every
		return nil
	}
}

// WithConservativeEstimates switches the sketch to the conservative-update
// rule (CM-CU), which keeps the no-underestimate guarantee while shedding
// most of the collision over-count. Affects knowledge-free samplers only:
// those from NewSampler and every shard of a NewPool (extension; see the
// ablation-cu experiment).
func WithConservativeEstimates() Option {
	return func(c *config) error {
		c.coreOption = append(c.coreOption, core.WithConservativeUpdate())
		return nil
	}
}

func buildConfig(opts []Option) (config, error) {
	cfg := config{k: 50, s: 10} // a Table I operating point: L≈571, E≈650 adversary effort
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return cfg, err
		}
	}
	if !cfg.seedSet {
		cfg.seed = seedFromEntropy()
	}
	return cfg, nil
}

// seedFromEntropy draws a fresh random seed from the operating system,
// used when the caller did not ask for reproducibility via WithSeed.
func seedFromEntropy() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand.Read practically cannot fail; fall back to a fixed
		// odd constant rather than propagate an error from a constructor
		// path that is otherwise infallible.
		return 0x9e3779b97f4a7c15
	}
	return binary.BigEndian.Uint64(b[:])
}

// strategySampler adapts the factory-built core.PoolSampler to the public
// NodeID API.
type strategySampler struct {
	inner core.PoolSampler
}

var _ Sampler = (*strategySampler)(nil)

func (w *strategySampler) Process(id NodeID) NodeID { return NodeID(w.inner.Process(uint64(id))) }

func (w *strategySampler) Sample() (NodeID, bool) {
	id, ok := w.inner.Sample()
	return NodeID(id), ok
}

func (w *strategySampler) Memory() []NodeID { return convertIDs(w.inner.Memory()) }

// omniscient adapts core.Omniscient to the public NodeID API.
type omniscient struct {
	inner *core.Omniscient
}

var _ Sampler = (*omniscient)(nil)

func (w *omniscient) Process(id NodeID) NodeID { return NodeID(w.inner.Process(uint64(id))) }

func (w *omniscient) Sample() (NodeID, bool) {
	id, ok := w.inner.Sample()
	return NodeID(id), ok
}

func (w *omniscient) Memory() []NodeID { return convertIDs(w.inner.Memory()) }

func convertIDs(in []uint64) []NodeID {
	out := make([]NodeID, len(in))
	for i, v := range in {
		out[i] = NodeID(v)
	}
	return out
}

// oracleAdapter bridges the public Oracle to the internal one.
type oracleAdapter struct{ o Oracle }

func (a oracleAdapter) Prob(id uint64) float64 { return a.o.Prob(NodeID(id)) }
func (a oracleAdapter) MinProb() float64       { return a.o.MinProb() }

// NewSampler returns the sampling service with sampling memory capacity c,
// running the paper's knowledge-free Algorithm 3, estimating frequencies
// online with a Count-Min sketch sized by WithSketch or WithSketchAccuracy
// (default 50×10).
//
// Sizing rule: keep the sketch width k well below
// the expected number of distinct identifiers in the stream (the paper's
// evaluation uses k ∈ [10, 50] for populations of 1000). If a sketch column
// is never hit — possible when k approaches the population size — the
// global minimum counter stays at zero and the memory stops refreshing.
func NewSampler(c int, opts ...Option) (Sampler, error) {
	if c < 1 {
		return nil, fmt.Errorf("nodesampling: memory size c must be at least 1, got %d", c)
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.decayEvery > 0 {
		// Single sampler: the decay clock is simply its own processed count.
		cfg.coreOption = append(cfg.coreOption, core.WithPeriodicHalving(cfg.decayEvery))
	}
	factory, err := core.NewFactory(cfg.strategy, core.StrategyParams{
		K: cfg.k, S: cfg.s,
		UseAccuracy: cfg.useAcc, Epsilon: cfg.eps, Delta: cfg.del,
		Options: cfg.coreOption,
	})
	if err != nil {
		return nil, err
	}
	inner, err := factory.New(c, rng.New(cfg.seed))
	if err != nil {
		return nil, err
	}
	return &strategySampler{inner: inner}, nil
}

// NewOmniscientSampler returns the omniscient strategy (the paper's
// Algorithm 1): provably uniform and fresh given an oracle for the true
// occurrence probabilities. Use it as a reference in evaluations, or with
// an exact counting pass (NewCountingOracle) over recorded streams.
func NewOmniscientSampler(c int, oracle Oracle, opts ...Option) (Sampler, error) {
	if c < 1 {
		return nil, fmt.Errorf("nodesampling: memory size c must be at least 1, got %d", c)
	}
	if oracle == nil {
		return nil, errors.New("nodesampling: nil oracle")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewOmniscient(c, oracleAdapter{oracle}, rng.New(cfg.seed))
	if err != nil {
		return nil, err
	}
	return &omniscient{inner: inner}, nil
}

// NewCountingOracle builds an Oracle from exact occurrence counts (for
// example a preliminary pass over a recorded trace).
func NewCountingOracle(counts map[NodeID]uint64) (Oracle, error) {
	raw := make(map[uint64]uint64, len(counts))
	for id, c := range counts {
		raw[uint64(id)] = c
	}
	inner, err := core.NewCountOracle(raw)
	if err != nil {
		return nil, err
	}
	return countingOracle{inner}, nil
}

type countingOracle struct{ inner *core.CountOracle }

func (o countingOracle) Prob(id NodeID) float64 { return o.inner.Prob(uint64(id)) }
func (o countingOracle) MinProb() float64       { return o.inner.MinProb() }

// AttackEffort reports the minimum number of distinct identifiers an
// adversary must create to defeat a sampler configured with a k×s sketch,
// with success probability exceeding 1−eta (the paper's Section V):
// targeted is L_{k,s} (bias one chosen victim id), flooding is E_k (bias
// every id). Raising k raises both linearly — the "memory buys safety"
// trade-off of the paper's Table I.
func AttackEffort(k, s int, eta float64) (targeted, flooding int, err error) {
	p, err := adversary.NewPlan(k, s, eta)
	if err != nil {
		return 0, 0, err
	}
	return p.TargetedIDs, p.FloodingIDs, nil
}
