package nodesampling

import (
	"errors"
	"fmt"

	"nodesampling/internal/core"
	"nodesampling/internal/netgossip"
	"nodesampling/internal/shard"
	"nodesampling/internal/subhub"
)

// ErrPoolClosed is returned by Pool.Push, Pool.PushBatch and Pool.Flush
// after Close.
var ErrPoolClosed = errors.New("nodesampling: pool closed")

// WithShardBuffer sets each shard's ingest queue capacity, counted in
// batches (default 16). Raise it for bursty producers; it bounds how far
// ingestion can run ahead of the shard samplers. Only affects NewPool.
func WithShardBuffer(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("nodesampling: negative shard buffer %d", n)
		}
		c.shardBuffer = n
		c.shardBufferSet = true
		return nil
	}
}

// WithNonBlockingIngest makes Pool.Push and Pool.PushBatch drop (and count)
// sub-batches aimed at a full shard queue instead of blocking the producer,
// and makes a shard drop (and count, as PoolStats.EmitDropped) a pushed
// batch's σ′ draws when the output plane lags instead of waiting for it.
// This is the right policy for a network daemon absorbing hostile floods: a
// slow shard costs samples — which a uniform sampling stream can afford —
// rather than stalling the listener. Only affects NewPool.
func WithNonBlockingIngest() Option {
	return func(c *config) error {
		c.nonBlocking = true
		return nil
	}
}

// ShardStats is one shard's activity snapshot.
type ShardStats struct {
	Processed  uint64 // ids processed by the shard's sampler
	Dropped    uint64 // ids discarded because the shard queue was full
	Halvings   uint64 // decay halvings applied to the shard's sketch
	QueueDepth int    // batches currently waiting in the shard queue
	MemorySize int    // current |Γ| of the shard's sampler
}

// SubscriberStats is one output-stream subscription's delivery accounting.
type SubscriberStats struct {
	ID        uint64 // stable per-pool subscription identifier
	Offered   uint64 // σ′ draws published while the subscription was live
	Delivered uint64 // draws handed to the subscription's buffer
	Dropped   uint64 // draws lost to the drop-oldest policy
	Filtered  uint64 // draws thinned away by the decimation interval
	Capped    uint64 // draws discarded by the delivery rate cap
	Capacity  int    // subscription buffer capacity
	Depth     int    // draws currently buffered
	Every     int    // decimation interval (1 delivers everything)
	Rate      uint32 // delivery rate cap in ids/second (0 = uncapped)
}

// PoolStats is a whole-pool activity snapshot.
type PoolStats struct {
	Shards      []ShardStats
	Epoch       uint64 // shard map epoch: 0 at creation, +1 per Resize
	Processed   uint64 // includes work done by shards retired through Resize
	Dropped     uint64 // includes drops at shards retired through Resize
	EmitDropped uint64 // σ′ draws lost before the subscription hub (non-blocking pools only)
	Subscribers []SubscriberStats
}

// Pool runs the sampling service local to a correct node of the paper's
// Figure 1 — continuously reading σ and writing σ′ — for many concurrent
// producers and consumers. NewPool(c, 1) is one Sampler behind a worker
// goroutine; more shards scale it horizontally: N independent
// knowledge-free sampler shards, each with its own Count-Min sketch,
// sampling memory Γ of c identifiers and worker goroutine. Identifiers are
// partitioned across shards by an epoch-versioned shard map (salted
// rendezvous hashing, unpredictable to an adversary and stable between
// resizes), so shards never contend; PushBatch amortises the hand-off over
// many ids. Sample draws a shard weighted by its current |Γ| and then a
// uniform element of it — a uniform draw over the union of the memories,
// preserving the paper's Uniformity at the population level, while
// Freshness holds per shard because every id keeps hashing to the same
// shard's single-stream sampler.
//
// The pool is elastic and durable: Resize re-partitions a live pool to a
// new shard count (Γ and sketch state follow the moved ids), and
// Snapshot/RestorePool serialise and revive the whole plane so attacker
// frequency estimates survive restarts.
//
// All methods are safe for concurrent use. A Pool must be created with
// NewPool (or RestorePool) and released with Close.
type Pool struct {
	inner *shard.Pool
}

// NewPool creates a sharded sampling pool of the given shard count (at
// most 256), each shard holding a sampling memory of c identifiers. It accepts the same
// options as NewSampler (seed, sketch shape or accuracy, decay,
// conservative update — applied to every shard, with independent per-shard
// randomness split from the seed) plus the pool-specific WithShardBuffer
// and WithNonBlockingIngest.
func NewPool(c, shards int, opts ...Option) (*Pool, error) {
	if c < 1 {
		return nil, fmt.Errorf("nodesampling: memory size c must be at least 1, got %d", c)
	}
	if shards < 1 || shards > shard.MaxShards {
		return nil, fmt.Errorf("nodesampling: shard count must be in [1, %d], got %d", shard.MaxShards, shards)
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	sc, err := poolShardConfig(c, shards, cfg)
	if err != nil {
		return nil, err
	}
	inner, err := shard.New(sc)
	if err != nil {
		return nil, err
	}
	return &Pool{inner: inner}, nil
}

// poolShardConfig translates the public options into the internal shard
// configuration shared by NewPool and RestorePool: core.NewFactory checks
// the strategy name and binds the sketch shape (or accuracy targets) and
// per-sampler options into one factory every shard builds from.
func poolShardConfig(c, shards int, cfg config) (shard.Config, error) {
	factory, err := core.NewFactory(cfg.strategy, core.StrategyParams{
		K: cfg.k, S: cfg.s,
		UseAccuracy: cfg.useAcc, Epsilon: cfg.eps, Delta: cfg.del,
		Options: cfg.coreOption,
	})
	if err != nil {
		return shard.Config{}, err
	}
	buffer := 16
	if cfg.shardBufferSet {
		buffer = cfg.shardBuffer
	}
	return shard.Config{
		Shards:   shards,
		Buffer:   buffer,
		Block:    !cfg.nonBlocking,
		Seed:     cfg.seed,
		Capacity: c,
		// WithDecay is implemented pool-wide: the shards share one decay
		// epoch derived from the total processed count (see
		// shard.Config.DecayEvery) instead of each decaying on its own
		// count, so per-shard samplers are never passed the core-level
		// halving option here.
		DecayEvery: cfg.decayEvery,
		// One sampler template per pool: every shard clones it empty, so all
		// shards share a hash/seed family and stay mergeable across Resize.
		Sampler: factory,
	}, nil
}

// RestorePool revives a pool from a Pool.Snapshot blob: the shard map,
// every shard's sketch and sampling memory Γ, and the decay epoch resume
// exactly where the snapshot left them, so frequency estimates — including
// an attacker's — survive a restart. The snapshot governs the shard count,
// memory capacity and sketch shape; pass the same functional options the
// original pool was built with (decay, conservative updates, buffering —
// they are configuration, not state, and are not persisted). A sketch
// shape requested via WithSketch/WithSketchAccuracy is checked against the
// snapshot and mismatches fail loudly.
func RestorePool(data []byte, opts ...Option) (*Pool, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	// Capacity and shard count come from the blob; the placeholder values
	// here only shape the template used for validation.
	sc, err := poolShardConfig(1, 1, cfg)
	if err != nil {
		return nil, err
	}
	inner, err := shard.Restore(sc, data)
	if err != nil {
		return nil, err
	}
	return &Pool{inner: inner}, nil
}

// Resize re-partitions the live pool to the given shard count under the
// next shard-map epoch. A flush barrier quiesces the shards (the only
// ingestion stall), Γ entries move to their new owners, and sketch state
// follows by merging, so frequency estimates of moved ids survive within
// standard Count-Min error. Growing adds parallel capacity for free;
// shrinking concentrates the pool (shedding uniformly chosen Γ overflow
// only when the total memory no longer fits). See shard.Pool.Resize for
// the precise hand-off semantics.
func (p *Pool) Resize(shards int) error {
	return poolErr(p.inner.Resize(shards))
}

// Snapshot serialises the pool — shard map, per-shard sketches and Γ, and
// the decay epoch — into one versioned blob for RestorePool. Taken under
// live ingest it is internally consistent per shard; call Flush first for
// an exact cut. The blob embeds the pool's private partition salt, so
// store it like key material.
func (p *Pool) Snapshot() ([]byte, error) {
	return p.inner.Snapshot()
}

// Epoch returns the shard map epoch: 0 at creation, incremented by every
// completed Resize, preserved across Snapshot/RestorePool.
func (p *Pool) Epoch() uint64 { return p.inner.Epoch() }

// NumShards returns the pool's shard count.
func (p *Pool) NumShards() int { return p.inner.NumShards() }

// Topology returns the shard map epoch and the shard count from a single
// atomic load of the shard map. Calling Epoch and NumShards separately can
// straddle a concurrent Resize and pair epoch N with the shard count of
// epoch N+1; Topology can not.
func (p *Pool) Topology() (epoch uint64, shards int) { return p.inner.Topology() }

// LoadSignals is a cheap snapshot of the pool's ingest pressure — the
// input of a load-driven resize policy. Queue figures are instantaneous;
// the counters are cumulative and stay monotone across Resize, so a
// controller diffs successive snapshots for per-tick rates.
type LoadSignals struct {
	Epoch       uint64 // shard map epoch, consistent with Shards
	Shards      int    // current shard count
	QueueLen    int    // batches waiting across all shard queues
	QueueCap    int    // total queue capacity (Shards × shard buffer)
	MaxQueueLen int    // deepest single shard queue, in batches
	Processed   uint64 // cumulative ids processed (incl. retired shards)
	Dropped     uint64 // cumulative ids dropped at full queues (incl. retired)
	EmitDropped uint64 // cumulative σ′ draws lost before the subscription hub
}

// LoadSignals returns the pool's current load signals: the surface a
// caller embedding a Pool drives its own Resize policy against (the unsd
// daemon's autoscaler consumes the same signals).
func (p *Pool) LoadSignals() LoadSignals {
	return LoadSignals(p.inner.LoadSignals())
}

// Push feeds a single id from the input stream. PushBatch is the efficient
// path; Push exists as a drop-in for single-id producers.
func (p *Pool) Push(id NodeID) error {
	return poolErr(p.inner.Push(uint64(id)))
}

// PushBatch feeds a batch of ids, partitioning them across the shards in
// one pass (the conversion and the partition share a single copy). The
// slice may be reused immediately.
func (p *Pool) PushBatch(ids []NodeID) error {
	return poolErr(shard.PushBatchOf(p.inner, ids))
}

// Sample returns one uniform sample. ok is false only while every shard is
// still empty.
func (p *Pool) Sample() (NodeID, bool) {
	id, ok := p.inner.Sample()
	return NodeID(id), ok
}

// SampleN returns n independent samples (fewer while the pool is empty).
func (p *Pool) SampleN(n int) []NodeID {
	return convertIDs(p.inner.SampleN(n))
}

// Memory returns the concatenation of every shard's sampling memory Γ.
func (p *Pool) Memory() []NodeID {
	return convertIDs(p.inner.Memory())
}

// Flush blocks until every id pushed before the call has been processed by
// its shard. Useful before reading Stats or Memory deterministically.
func (p *Pool) Flush() error {
	return poolErr(p.inner.Flush())
}

// Stats returns per-shard and aggregate counters: processed ids, drops
// under WithNonBlockingIngest, queue depths, memory sizes, decay halvings
// and the output plane's per-subscriber delivery accounting.
func (p *Pool) Stats() PoolStats {
	st := p.inner.Stats()
	out := PoolStats{
		Shards:      make([]ShardStats, len(st.Shards)),
		Epoch:       st.Epoch,
		Processed:   st.Processed,
		Dropped:     st.Dropped,
		EmitDropped: st.EmitDropped,
		Subscribers: make([]SubscriberStats, len(st.Subscribers)),
	}
	for i, s := range st.Shards {
		out.Shards[i] = ShardStats(s)
	}
	for i, s := range st.Subscribers {
		out.Subscribers[i] = SubscriberStats(s)
	}
	return out
}

// PoolSubscription is a live subscription to the pool's output stream σ′:
// one uniform draw from the pooled memories per ingested id, exactly the
// continuous output stream of the paper's Algorithm 1 at sharded
// throughput. Obtain one from Pool.Subscribe; read ids from C; release it
// with Cancel (or Pool.Unsubscribe).
type PoolSubscription struct {
	inner *subhub.Subscription
	c     <-chan NodeID
}

// Subscribe registers a subscriber to the pool's output stream σ′ with a
// buffer of the given capacity, in ids. Output draws are only generated
// while at least one subscription is live, so an unsubscribed pool pays
// nothing for the streaming plane. A subscriber that lags loses the oldest
// buffered elements (counted in Stats) instead of slowing ingestion.
func (p *Pool) Subscribe(capacity int) (*PoolSubscription, error) {
	return p.SubscribeEvery(capacity, 1)
}

// SubscribeEvery is Subscribe with per-subscription decimation: only every
// every-th σ′ draw is delivered (the rest are counted as filtered in
// Stats). A 1-in-k thinning of an i.i.d. uniform stream is itself i.i.d.
// uniform, so a decimated subscriber keeps the paper's guarantees at a
// rate it can afford.
func (p *Pool) SubscribeEvery(capacity, every int) (*PoolSubscription, error) {
	if capacity < 1 || capacity > subhub.MaxSubscriptionBuffer {
		return nil, fmt.Errorf("nodesampling: subscription capacity must be in [1, %d], got %d", subhub.MaxSubscriptionBuffer, capacity)
	}
	if every < 1 || every > netgossip.MaxDecimation {
		return nil, fmt.Errorf("nodesampling: decimation interval must be in [1, %d], got %d", netgossip.MaxDecimation, every)
	}
	inner, err := p.inner.SubscribeEvery(capacity, every)
	if err != nil {
		return nil, poolErr(err)
	}
	return &PoolSubscription{inner: inner, c: subhub.Chan[NodeID](inner)}, nil
}

// Unsubscribe cancels a subscription obtained from Subscribe. Nil-safe and
// idempotent; equivalent to s.Cancel.
func (p *Pool) Unsubscribe(s *PoolSubscription) {
	if s != nil {
		s.Cancel()
	}
}

// C returns the channel carrying the output stream σ′. It is closed when
// the subscription is cancelled or the pool closes; the draws it buffered
// by then stay readable, and those it had no room for count as Dropped.
func (s *PoolSubscription) C() <-chan NodeID { return s.c }

// Delivered reports how many draws were handed to this subscription's
// buffer.
func (s *PoolSubscription) Delivered() uint64 { return s.inner.Delivered() }

// Dropped reports how many draws this subscription lost to the drop-oldest
// policy (a measure of how far the consumer lags the stream).
func (s *PoolSubscription) Dropped() uint64 { return s.inner.Dropped() }

// Cancel detaches the subscription and closes its channel. Idempotent.
func (s *PoolSubscription) Cancel() { s.inner.Cancel() }

// Close stops every shard worker after draining what was already enqueued.
// Idempotent; pushes racing with Close either complete or return
// ErrPoolClosed.
func (p *Pool) Close() error {
	return p.inner.Close()
}

// poolErr rewrites the internal sentinel into the public one so callers can
// errors.Is against ErrPoolClosed.
func poolErr(err error) error {
	if errors.Is(err, shard.ErrPoolClosed) {
		return ErrPoolClosed
	}
	return err
}
