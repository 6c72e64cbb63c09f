// Package shard implements the horizontally scaled ingestion layer of the
// node sampling service: a pool of independent sampler shards — each one a
// core.PoolSampler owning its own frequency state, sampling memory Γ and
// worker goroutine. The input
// stream is partitioned by an immutable,
// epoch-versioned shard map — salted rendezvous hashing over a slot table —
// so shards never contend with each other, every id keeps routing to one
// stable shard between resizes, and growing or shrinking the shard set
// moves only the minimal set of ids. Batch ingestion amortises the channel
// hand-off and per-shard lock over many identifiers.
//
// Sampling draws a shard weighted by its current |Γ| and then a uniform
// element of that shard's Γ — a uniform draw over the union of the
// memories, preserving the paper's Uniformity property at the population
// level while multiplying ingest throughput by the shard count. Freshness
// is inherited per shard, since every id keeps hashing to the same shard
// between resizes and that shard is the paper's single-stream sampler.
//
// The pool is elastic and durable. Resize re-partitions the live pool to a
// new shard count behind a flush barrier: Γ entries move to their new
// owners and frequency state follows by merging (every shard's sampler is
// an empty clone of one template, so all shards share one hash/seed family
// and their state merges meaningfully), keeping frequency estimates of
// hot ids within estimator error across the hand-off. Snapshot serialises
// the whole plane — shard map, strategy name, per-shard sampler state, Γ
// and the decay epoch — into one versioned blob that Restore turns back
// into a live pool, so a restarted daemon does not forget attacker
// frequencies.
//
// The pool also carries the paper's output surface: a batch pushed while at
// least one subscription is live (Subscribe) draws one σ′ element per
// ingested id, each shard's worker drawing its part into that part's window
// of one shared draw buffer. The last part to finish hands the whole
// batch's draws, in shard order, to a pool-level output channel under the
// same Config.Block policy as ingest, and the emitter publishes them through
// a subscription hub (internal/subhub) that fans them out under a
// drop-oldest policy — one publish per pushed batch — so a slow subscriber
// sheds stream elements instead of slowing ingestion. With
// Config.DecayEvery set, all shards apply their strategy's decay step on
// one global decay epoch derived from the pool-wide ingest count, keeping
// per-shard frequency estimates comparable.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nodesampling/internal/core"
	"nodesampling/internal/rng"
	"nodesampling/internal/spans"
	"nodesampling/internal/subhub"
)

// ErrPoolClosed is returned by Push, PushBatch, Flush and Resize after
// Close.
var ErrPoolClosed = errors.New("shard: pool closed")

// MaxShards bounds a pool's shard count; the shard map stores shard
// indices as bytes, and a pool gains nothing from more shards than any
// realistic core count.
const MaxShards = 256

// slotBits sizes the shard map's slot table: ids hash to one of 2^slotBits
// slots, and rendezvous hashing assigns each slot to a shard. Routing stays
// O(1) per id regardless of the shard count, while a resize recomputes only
// the 4096-entry table instead of rehashing ids.
const (
	slotBits = 12
	numSlots = 1 << slotBits
)

// Config parameterises a Pool.
type Config struct {
	// Shards is the number of independent sampler shards, at most MaxShards.
	// Ignored by Restore, where the snapshot governs.
	Shards int
	// Buffer is each shard's ingest queue capacity, in batches (not ids).
	// The queue is a power-of-two ring, so the effective capacity is Buffer
	// rounded up to the next power of two, minimum 2 (the ring protocol's
	// smallest size).
	Buffer int
	// Block selects the backpressure policy of both hand-offs: when true a
	// push into a full shard queue blocks the producer, and a shard worker
	// handing σ′ to a full output channel waits for the emitter (which
	// never waits on subscribers); when false the batch, or its draws, are
	// dropped and counted (the right policy for a daemon absorbing hostile
	// floods).
	Block bool
	// Seed drives the pool's private randomness; shard samplers receive
	// independent generators split from it.
	Seed uint64
	// Capacity is c, each shard's sampling memory size. Ignored by Restore,
	// where the snapshot governs.
	Capacity int
	// Sampler is the factory the pool builds its shard samplers with
	// (core.NewFactory). One template
	// sampler is built per pool and every shard receives an empty clone of
	// it, so all shards share one hash/seed family and their state stays
	// mergeable — the property the Resize hand-off and the snapshot format
	// rely on. Required by New. Optional for Restore: when unset the blob
	// governs the strategy; when set it must name the blob's strategy and
	// its state shape must match the snapshot's. Per-sampler options
	// (eviction policy, conservative update) ride inside the factory's
	// bound core.StrategyParams; Snapshot does not persist them.
	Sampler core.SamplerFactory
	// EmitBuffer is the capacity of the pool-level output channel, in whole
	// pushed batches' draws (default 4 per shard, so a 4-shard pool holds 16
	// pushed batches). It bounds how far σ′ generation may run ahead of the
	// subscription hub. When Block is false, overflow drops a pushed batch's
	// draws whole (counted) rather than stalling shard workers; when Block
	// is true the last worker waits for room.
	EmitBuffer int
	// DecayEvery, when positive, halves every shard's sketch each time the
	// pool as a whole has processed that many further ids — a global decay
	// clock. Per-shard halving on each shard's own count would let a
	// momentarily skewed partition decay shards at different rates, making
	// their frequency estimates incomparable; the shared epoch (derived
	// from the pool-wide processed count) keeps them aligned. Each shard
	// applies pending halvings at its next batch or flush barrier, i.e.
	// before its estimates are next consulted; a Flush not racing
	// concurrent pushes leaves every shard at the same epoch.
	DecayEvery uint64
	// OnEmitLag, when set, observes the lag in seconds between the last
	// part of a pushed batch handing its σ′ draws off and the emitter
	// starting their fan-out — the daemon feeds it a latency histogram. The
	// hook runs on the emitter goroutine, once per pushed batch; it must not
	// block. When nil (every non-daemon pool), the emit path does not even
	// read the clock.
	OnEmitLag func(seconds float64)
}

// validateCommon checks the fields shared by the New and Restore paths.
func (c Config) validateCommon() error {
	if c.Buffer < 0 {
		return fmt.Errorf("shard: negative buffer %d", c.Buffer)
	}
	if c.EmitBuffer < 0 {
		return fmt.Errorf("shard: negative emit buffer %d", c.EmitBuffer)
	}
	return nil
}

func (c Config) validate() error {
	if err := c.validateCommon(); err != nil {
		return err
	}
	if c.Shards < 1 || c.Shards > MaxShards {
		return fmt.Errorf("shard: shard count must be in [1, %d], got %d", MaxShards, c.Shards)
	}
	if c.Capacity < 1 {
		return fmt.Errorf("shard: memory capacity must be at least 1, got %d", c.Capacity)
	}
	if c.Sampler.New == nil {
		return errors.New("shard: no sampler strategy configured (set Sampler)")
	}
	return nil
}

// The partition's shard map is a Placement (placement.go) with one
// rendezvous key per in-process shard worker: ids hash (salted) to a slot,
// the slot's owner is the shard whose key scores highest for it. The same
// type, with one key per member daemon, is the cluster routing table.

// ShardOf returns the shard index id is routed to under the current shard
// map. The id is salted with a per-pool secret before mixing: a stationary
// public hash would let an adversary mint Sybil ids that all land on one
// chosen shard and keep its queue full (targeted suppression of that
// shard's honest sub-population); with the salt drawn from the pool's
// private randomness the partition is unpredictable to outsiders while
// every id still maps to one stable shard between resizes, preserving the
// per-shard Freshness argument.
func (p *Pool) ShardOf(id uint64) int {
	return p.smap.Load().Owner(rng.Mix64(id ^ p.salt))
}

// worker is one shard: a ring queue, a control channel, a sampler and the
// goroutine that connects them. Its mutex only serialises the worker loop
// against same-shard Sample/Memory readers — never against other shards.
//
// The data plane and the control plane are split: id batches travel through
// the MPSC ring (see ring.go), while flush barriers arrive as ack channels
// on ctrl and shutdown is close(ctrl). The worker polls ctrl opportunistically
// on every loop iteration, so a barrier is serviced promptly even while a
// flood keeps the ring permanently non-empty — under the old single-channel
// scheme a barrier had to wait its turn behind every queued batch.
type worker struct {
	q    *ring
	ctrl chan chan<- struct{}
	done chan struct{}
	idx  int // position in the pool's worker slice, for span attributes

	// Consumer parking. The worker publishes its intent to sleep in
	// `sleeping`, re-checks the ring, then blocks on notify; a producer that
	// observes sleeping after publishing an item drops a token into notify
	// (capacity 1, non-blocking). Sequential consistency of the Go atomics
	// makes the classic flag/recheck handshake lossless: either the
	// producer's store to the slot sequence precedes the worker's re-check
	// (the worker finds the item), or the worker's sleeping store precedes
	// the producer's load (the producer sends the token).
	notify   chan struct{}
	sleeping atomic.Uint32

	// Producer blocking (Config.Block). A producer that finds the ring full
	// registers in waiters under smu and waits on scond; the consumer
	// broadcasts after freeing a slot whenever waiters is non-zero. The
	// register-then-retry order on the producer side mirrors the
	// free-then-check order on the consumer side, closing the lost-wakeup
	// window the same way the parking handshake does.
	smu     sync.Mutex
	scond   *sync.Cond
	waiters atomic.Int32

	mu      sync.Mutex
	sampler core.PoolSampler

	processed atomic.Uint64
	dropped   atomic.Uint64
	halvings  atomic.Uint64
	// memSize mirrors the sampler's |Γ| after each batch so the weighted
	// shard draw in Sample can read sizes without taking every shard's
	// lock. It lags behind by whatever is still queued (up to Buffer
	// batches plus the one in flight), and not at all once the memories
	// are full (the steady state).
	memSize atomic.Int64
}

// newWorker wraps a sampler in a fresh (not yet running) worker. The ring
// capacity is buffer rounded up to a power of two, minimum 1.
func newWorker(sampler core.PoolSampler, buffer int) *worker {
	w := &worker{
		q:       newRing(buffer),
		ctrl:    make(chan chan<- struct{}),
		done:    make(chan struct{}),
		notify:  make(chan struct{}, 1),
		sampler: sampler,
	}
	w.scond = sync.NewCond(&w.smu)
	w.memSize.Store(int64(sampler.MemorySize()))
	return w
}

// recycle moves a stopped worker's sampler and counters into a fresh
// worker, ready to be restarted after a resize.
func (w *worker) recycle(buffer int) *worker {
	nw := newWorker(w.sampler, buffer)
	nw.processed.Store(w.processed.Load())
	nw.dropped.Store(w.dropped.Load())
	nw.halvings.Store(w.halvings.Load())
	return nw
}

// wake rouses a parked consumer. Called by producers after publishing an
// item; the token channel has capacity 1, so a redundant wake is free and a
// needed one never blocks.
func (w *worker) wake() {
	if w.sleeping.Load() != 0 {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
}

// push enqueues under the blocking policy, waiting on the worker's condition
// variable while the ring is full. Only called with the pool read lock held,
// so the worker cannot be shut down underneath a blocked producer.
func (w *worker) push(it ringItem) {
	if w.q.tryPush(it) {
		w.wake()
		return
	}
	w.smu.Lock()
	w.waiters.Add(1)
	for !w.q.tryPush(it) {
		w.scond.Wait()
	}
	w.waiters.Add(-1)
	w.smu.Unlock()
	w.wake()
}

// pop drains one item and, if producers are blocked on a full ring, lets
// them know a slot just freed.
func (w *worker) pop() (ringItem, bool) {
	it, ok := w.q.tryPop()
	if ok && w.waiters.Load() > 0 {
		w.smu.Lock()
		w.scond.Broadcast()
		w.smu.Unlock()
	}
	return it, ok
}

func (w *worker) run(p *Pool) {
	defer close(w.done)
	for {
		// Control has priority over data: a pending barrier or shutdown is
		// taken before the next batch, never starved behind a full ring.
		select {
		case ack, ok := <-w.ctrl:
			if !ok {
				w.drainAll(p)
				return
			}
			w.barrier(p, ack)
			continue
		default:
		}
		if it, ok := w.pop(); ok {
			w.process(p, it)
			continue
		}
		// Ring empty: park. Publish the intent, re-check the ring (an item
		// published between the check above and here would otherwise sleep
		// until the next push), then block on either a producer's token or
		// a control message.
		w.sleeping.Store(1)
		if it, ok := w.pop(); ok {
			w.sleeping.Store(0)
			w.process(p, it)
			continue
		}
		select {
		case <-w.notify:
			w.sleeping.Store(0)
		case ack, ok := <-w.ctrl:
			w.sleeping.Store(0)
			if !ok {
				w.drainAll(p)
				return
			}
			w.barrier(p, ack)
		}
	}
}

// process runs one id batch through the shard's sampler — drawing its σ′
// into the part's window when the batch was pushed with a live subscriber —
// and releases its payload reference.
func (w *worker) process(p *Pool, it ringItem) {
	n := len(it.ids)
	sc := it.tc.Start("shard")
	pl := it.pl
	draws := 0
	w.mu.Lock()
	if len(pl.draws) > 0 {
		pl.parts[it.part] = w.sampler.ProcessBatchEmit(it.ids, pl.parts[it.part])
		draws = len(pl.parts[it.part])
	} else {
		w.sampler.ProcessBatch(it.ids)
	}
	if p.cfg.DecayEvery > 0 {
		// The decay clock counts at processing time: exactly the ids
		// that reached a sampler, perfectly ordered with this shard's
		// own sketch updates (dropped batches never tick the clock).
		total := p.decayTotal.Add(uint64(n))
		w.halveTo(total / p.cfg.DecayEvery)
	}
	w.memSize.Store(int64(w.sampler.MemorySize()))
	w.mu.Unlock()
	w.processed.Add(uint64(n))
	// The shard span is recorded before the batch can reach the emitter, so
	// a trace never holds an "emit" span whose parent is not there yet.
	sc.End(spans.Int("shard", w.idx), spans.Int("ids", n), spans.Int("draws", draws))
	p.release(pl, sc)
}

// barrier services one flush barrier: drain every batch enqueued before the
// barrier was received, catch the sketch up to the global decay epoch, and
// ack. The enqueue-cursor snapshot bounds the drain — batches pushed after
// the barrier arrived may stay queued, exactly the pre-ring FIFO semantics.
func (w *worker) barrier(p *Pool, ack chan<- struct{}) {
	w.drainTo(p, w.q.enq.Load())
	if p.cfg.DecayEvery > 0 {
		// A barrier catches the shard up to the current global epoch
		// even if it saw no recent traffic. Flush runs two barrier
		// rounds: after the first, every pre-flush id has been
		// processed (and counted) somewhere, so the second observes
		// the final total on every shard.
		w.mu.Lock()
		w.halveTo(p.decayTotal.Load() / p.cfg.DecayEvery)
		w.mu.Unlock()
	}
	close(ack)
}

// drainTo processes batches until the dequeue cursor reaches target. A
// claimed-but-unpublished slot (a producer between its CAS and its sequence
// store) makes tryPop fail transiently; yield and retry, the publish is a
// few instructions away.
func (w *worker) drainTo(p *Pool, target uint64) {
	for w.q.deq.Load() < target {
		if it, ok := w.pop(); ok {
			w.process(p, it)
			continue
		}
		runtime.Gosched()
	}
}

// drainAll empties the ring completely — shutdown path, producers already
// excluded by the pool write lock.
func (w *worker) drainAll(p *Pool) {
	for {
		if it, ok := w.pop(); ok {
			w.process(p, it)
			continue
		}
		if w.q.enq.Load() == w.q.deq.Load() {
			return
		}
		runtime.Gosched()
	}
}

// halveTo applies the sampler's decay step (a sketch halving) until the
// shard has applied `target` decay epochs. The caller holds w.mu.
func (w *worker) halveTo(target uint64) {
	for w.halvings.Load() < target {
		w.sampler.Decay()
		w.halvings.Add(1)
	}
}

// Pool is a sharded sampling pool. All methods are safe for concurrent use.
type Pool struct {
	cfg      Config
	salt     uint64 // private partition key, see ShardOf
	strategy string // strategy name the shards run, recorded in snapshots

	// smap is the current shard map epoch. It is swapped under mu (write),
	// but stored atomically so ShardOf and NumShards stay safe without a
	// lock; within a mu critical section (read or write) it is consistent
	// with workers.
	smap atomic.Pointer[Placement]

	// The streaming output plane: the last part of each drawing batch hands
	// its draws to out (under Config.Block; a non-blocking pool counts
	// overflow in emitDropped), and the emitter goroutine publishes them
	// through the subscription hub.
	hub         *subhub.Hub
	out         chan emitBatch
	emitDropped atomic.Uint64
	emitDone    chan struct{}

	// decayTotal is the pool-wide processed count driving the global decay
	// clock (Config.DecayEvery).
	decayTotal atomic.Uint64

	// Retired shards' counters, folded into Stats totals so a shrink does
	// not make the pool forget work it did.
	retiredProcessed atomic.Uint64
	retiredDropped   atomic.Uint64

	// mu guards workers and closed. Producers and readers hold it for
	// reading; Resize and Close hold it for writing, so a reader always
	// observes a complete worker set consistent with the shard map.
	mu      sync.RWMutex
	workers []*worker
	closed  bool

	rmu sync.Mutex
	r   *rng.Xoshiro
}

// New creates a pool and starts its shard workers.
func New(cfg Config) (*Pool, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	factory := cfg.Sampler
	root := rng.New(cfg.Seed)
	template, err := factory.New(cfg.Capacity, root.Split())
	if err != nil {
		return nil, fmt.Errorf("shard: sampler template: %w", err)
	}
	p := newPoolShell(cfg, root)
	p.strategy = factory.Name
	keys := make([]uint64, cfg.Shards)
	p.workers = make([]*worker, cfg.Shards)
	for i := range p.workers {
		keys[i] = root.Uint64()
		sampler, err := template.CloneEmpty(root.Split())
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		p.workers[i] = newWorker(sampler, cfg.Buffer)
	}
	p.smap.Store(NewPlacement(0, keys))
	p.start()
	return p, nil
}

// newPoolShell builds the pool chassis shared by New and Restore: the hub,
// the output channel and the private randomness. Workers and the shard map
// are installed by the caller before start.
func newPoolShell(cfg Config, root *rng.Xoshiro) *Pool {
	emitBuffer := cfg.EmitBuffer
	if emitBuffer == 0 {
		emitBuffer = 4 * cfg.Shards
		if emitBuffer == 0 {
			emitBuffer = 4
		}
	}
	return &Pool{
		cfg:      cfg,
		salt:     root.Uint64(),
		hub:      subhub.New(),
		out:      make(chan emitBatch, emitBuffer),
		emitDone: make(chan struct{}),
		r:        root,
	}
}

// start launches the shard workers and the emitter. Called once, with no
// concurrent access possible yet.
func (p *Pool) start() {
	for i, w := range p.workers {
		w.idx = i
		go w.run(p)
	}
	go p.emitLoop()
}

// emitBatch is one pushed batch's σ′ in flight to the emitter: its payload
// (draws holds the settled draws; the emitter returns the payload to the
// pool after the hub fan-out, which copies into subscriber buffers), the
// last part's hand-off timestamp (zero unless something downstream will
// read it — the lag histogram hook or a sampled trace) and the open "emit"
// span covering the queue wait.
type emitBatch struct {
	pl *payload
	at int64 // time.Now().UnixNano() at the hand-off; 0 = unstamped
	tc spans.Context
}

// emitLoop publishes σ′ batches from the pool output channel through the
// hub, then closes the hub (cancelling the remaining subscriptions) once
// the channel is closed by Close. Per batch it observes the hand-off→hub lag
// (Config.OnEmitLag) and, on sampled traces, closes the "emit" span (queue
// wait) and records a "delivery" child span around the hub fan-out.
func (p *Pool) emitLoop() {
	defer close(p.emitDone)
	for eb := range p.out {
		if eb.at != 0 && p.cfg.OnEmitLag != nil {
			p.cfg.OnEmitLag(float64(time.Now().UnixNano()-eb.at) / 1e9)
		}
		dc := eb.tc.Start("delivery")
		eb.tc.End()
		draws := eb.pl.draws
		p.hub.Publish(draws)
		dc.End(spans.Int("ids", len(draws)))
		payloadPool.Put(eb.pl)
	}
	p.hub.Close()
}

// release drops one part's reference to pl, once its worker processed it or
// a full queue dropped it. The last part out hands a batch that drew σ′ to
// the emitter whole, its draws in shard order, and recycles any other
// payload. A blocking pool waits for room in the output channel; the
// emitter drains it without ever waiting on a subscriber, so the wait is
// bounded by the hub fan-out. A non-blocking pool drops and counts the
// draws when the channel is full, which a sampling stream can afford. sc is
// the part's "shard" span (the ingest span on the drop path); a sampled
// batch opens its "emit" child there, covering the queue wait.
func (p *Pool) release(pl *payload, sc spans.Context) {
	if pl.refs.Add(-1) != 0 {
		return
	}
	if len(pl.draws) == 0 || pl.settle() == 0 {
		payloadPool.Put(pl)
		return
	}
	eb := emitBatch{pl: pl}
	if p.cfg.OnEmitLag != nil || sc.Sampled() {
		eb.at = time.Now().UnixNano()
	}
	if sc.Sampled() {
		eb.tc = sc.Start("emit")
	}
	if p.cfg.Block {
		p.out <- eb
		return
	}
	select {
	case p.out <- eb:
	default:
		p.emitDropped.Add(uint64(len(pl.draws)))
		payloadPool.Put(pl)
		eb.tc.End(spans.Str("outcome", "dropped"))
	}
}

// Subscribe registers a subscriber to the pool's output stream σ′ with a
// buffer of the given capacity, in ids. The pool only generates output
// draws while at least one subscription is live, so an idle pool pays
// nothing for the streaming plane. Release with Unsubscribe (or Cancel on
// the subscription); a slow subscriber loses the oldest buffered elements
// rather than slowing ingestion.
func (p *Pool) Subscribe(capacity int) (*subhub.Subscription, error) {
	return p.SubscribeEvery(capacity, 1)
}

// SubscribeEvery is Subscribe with per-subscription decimation: only every
// every-th σ′ draw offered to this subscription is delivered, so a modest
// consumer can ride a fast pool without paying for draws it would discard.
func (p *Pool) SubscribeEvery(capacity, every int) (*subhub.Subscription, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	return p.hub.SubscribeEvery(capacity, every)
}

// SubscribeWith is Subscribe with the full option surface — decimation,
// delivery rate cap and decimation-phase seeding (subhub.SubOptions).
func (p *Pool) SubscribeWith(o subhub.SubOptions) (*subhub.Subscription, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	return p.hub.SubscribeWith(o)
}

// Unsubscribe cancels a subscription obtained from Subscribe. Nil-safe and
// idempotent.
func (p *Pool) Unsubscribe(s *subhub.Subscription) { p.hub.Unsubscribe(s) }

// NumSubscribers returns the number of live output-stream subscriptions.
func (p *Pool) NumSubscribers() int { return p.hub.NumSubscribers() }

// Topology returns the shard map epoch and the shard count from a single
// atomic load of the shard map, so the pair is always mutually consistent:
// a caller can never observe epoch N paired with the shard count of epoch
// N+1 while a concurrent Resize swaps the map. Epoch and NumShards are
// conveniences over it; code that needs both must go through Topology.
func (p *Pool) Topology() (epoch uint64, shards int) {
	m := p.smap.Load()
	return m.epoch, len(m.keys)
}

// NumShards returns the pool's current shard count.
func (p *Pool) NumShards() int {
	_, shards := p.Topology()
	return shards
}

// Epoch returns the shard map epoch: 0 at construction, incremented by
// every completed Resize. Restore resumes from the snapshotted epoch.
func (p *Pool) Epoch() uint64 {
	epoch, _ := p.Topology()
	return epoch
}

// LoadSignals is a cheap snapshot of the pool's ingest pressure — the input
// of a load-driven autoscaler. Queue figures are instantaneous; the
// counters are cumulative and monotone even across Resize (retired shards
// fold into the totals), so a controller diffs successive snapshots to get
// per-tick rates.
type LoadSignals struct {
	Epoch       uint64 // shard map epoch, consistent with Shards
	Shards      int    // current shard count
	QueueLen    int    // batches waiting across all shard queues
	QueueCap    int    // total ring capacity (Config.Buffer rounded up to a power of two, min 2, × Shards)
	MaxQueueLen int    // deepest single shard queue, in batches
	Processed   uint64 // cumulative ids processed (incl. retired shards)
	Dropped     uint64 // cumulative ids dropped at full queues (incl. retired)
	EmitDropped uint64 // cumulative σ′ draws lost before the hub
}

// LoadSignals returns the pool's current load signals. It takes only the
// pool read lock (no per-shard locks), so a controller ticking every few
// hundred milliseconds costs the ingest path nothing measurable.
func (p *Pool) LoadSignals() LoadSignals {
	p.mu.RLock()
	defer p.mu.RUnlock()
	epoch, _ := p.Topology()
	s := LoadSignals{
		Epoch:       epoch,
		Shards:      len(p.workers),
		Processed:   p.retiredProcessed.Load(),
		Dropped:     p.retiredDropped.Load(),
		EmitDropped: p.emitDropped.Load(),
	}
	for _, w := range p.workers {
		s.QueueCap += w.q.Cap()
		q := w.q.Len()
		s.QueueLen += q
		if q > s.MaxQueueLen {
			s.MaxQueueLen = q
		}
		s.Processed += w.processed.Load()
		s.Dropped += w.dropped.Load()
	}
	return s
}

// Push feeds a single id. PushBatch is the efficient path; Push exists for
// drop-in compatibility with single-id producers.
func (p *Pool) Push(id uint64) error {
	return pushBatchOf(p, []uint64{id}, spans.Context{})
}

// PushBatch partitions ids across the shards and enqueues one sub-batch per
// shard touched. The slice is copied, so the caller may reuse it
// immediately. Under the drop policy, sub-batches that find their shard
// queue full are discarded whole and counted in that shard's drop counter.
func (p *Pool) PushBatch(ids []uint64) error {
	return pushBatchOf(p, ids, spans.Context{})
}

// PushBatchTraced is PushBatch carrying an open ingest span context: every
// per-shard sub-batch records a "shard" child span under tc's trace, and
// the last to finish the batch's σ′ "emit"/"delivery" chain. The zero
// Context makes it exactly PushBatch.
func (p *Pool) PushBatchTraced(ids []uint64, tc spans.Context) error {
	return pushBatchOf(p, ids, tc)
}

// PushBatchOf is PushBatch over any uint64-kind id slice (e.g. the root
// package's NodeID), partitioning and converting in the same single copy so
// typed callers do not pay a conversion pass first. The partition runs
// under the pool's read lock so it always agrees with the worker set even
// when a Resize lands between two batches.
func PushBatchOf[T ~uint64](p *Pool, ids []T) error {
	return pushBatchOf(p, ids, spans.Context{})
}

func pushBatchOf[T ~uint64](p *Pool, ids []T, tc spans.Context) error {
	if len(ids) == 0 {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	m := p.smap.Load()
	n := len(p.workers)
	// Whether the batch draws σ′ is decided here, on one atomic load: with
	// no live subscriber every part takes the draw-free fast path.
	pl := getPayload(len(ids), p.hub.Active())
	if n == 1 {
		for i, id := range ids {
			pl.buf[i] = uint64(id)
		}
		pl.parts = append(pl.parts[:0], pl.draws[:0])
		pl.refs.Store(1)
		p.send(0, 0, pl, pl.buf, tc)
		return nil
	}
	// Counting sort into one pooled backing array: contiguous per-shard
	// sub-batches with no allocation in the steady state, instead of n
	// growing append chains. The shard of each id is hashed once and
	// remembered, so the placement pass re-reads a byte instead of
	// re-mixing.
	sc := scratchPool.Get().(*partScratch)
	shards, counts := sc.grow(len(ids), n) // counts: [0,n) cursors, [n,2n) starts
	for i, id := range ids {
		s := m.Owner(rng.Mix64(uint64(id) ^ p.salt))
		shards[i] = uint8(s)
		counts[s]++
	}
	sum, nonEmpty := 0, 0
	for i := 0; i < n; i++ {
		c := counts[i]
		if c > 0 {
			nonEmpty++
		}
		counts[i], counts[n+i] = sum, sum
		sum += c
	}
	backing := pl.buf
	for i, id := range ids {
		s := shards[i]
		backing[counts[s]] = uint64(id)
		counts[s]++
	}
	// The refcount must cover every sub-batch before the first send: a fast
	// shard could process and release its share — driving refs to zero and
	// recycling the payload — while later sends still alias it. For the
	// same reason parts is sized once, up front; part k's draw window, at
	// its ids' offsets, is in place before part k is sent.
	pl.refs.Store(int32(nonEmpty))
	pl.parts = resize(pl.parts, nonEmpty)
	k := 0
	for i := 0; i < n; i++ {
		if lo, hi := counts[n+i], counts[i]; hi > lo {
			if len(pl.draws) > 0 {
				pl.parts[k] = pl.draws[lo:lo:hi]
			}
			p.send(i, k, pl, backing[lo:hi:hi], tc)
			k++
		}
	}
	scratchPool.Put(sc)
	return nil
}

// send enqueues part k of pl, the sub-batch batch, on shard i; the caller
// holds mu for reading. The drop path releases the part like a worker
// would, so a dropped part never strands its siblings' draws.
func (p *Pool) send(i, k int, pl *payload, batch []uint64, tc spans.Context) {
	w := p.workers[i]
	it := ringItem{ids: batch, pl: pl, part: k, tc: tc}
	if p.cfg.Block {
		w.push(it)
		return
	}
	if w.q.tryPush(it) {
		w.wake()
		return
	}
	w.dropped.Add(uint64(len(batch)))
	p.release(pl, tc)
}

// barrierLocked posts a flush barrier to every worker's control channel and
// waits for all acks. The caller holds mu (read or write); workers poll
// their control channel every loop iteration, so the posts are taken
// promptly even while the rings are full.
func barrierLocked(workers []*worker) {
	acks := make([]chan struct{}, len(workers))
	for i, w := range workers {
		ch := make(chan struct{})
		acks[i] = ch
		w.ctrl <- ch
	}
	for _, ch := range acks {
		<-ch
	}
}

// Flush blocks until every id enqueued before the call has been processed.
// The barrier always enqueues (even under the drop policy), so Flush never
// loses its place in a full queue. With DecayEvery set, a Flush not racing
// concurrent pushes additionally leaves every shard at the same decay
// epoch: the first barrier round guarantees all prior ids are processed
// and counted, the second lets every shard catch up to that final total.
func (p *Pool) Flush() error {
	rounds := 1
	if p.cfg.DecayEvery > 0 {
		rounds = 2
	}
	for r := 0; r < rounds; r++ {
		p.mu.RLock()
		if p.closed {
			p.mu.RUnlock()
			return ErrPoolClosed
		}
		barrierLocked(p.workers)
		p.mu.RUnlock()
	}
	return nil
}

// Sample draws a shard weighted by its current |Γ|, then a uniform element
// of that shard's Γ — a uniform draw over the union of the memories. With
// all memories equally full this equals a uniform shard draw, and when they
// are not (warm-up, or a population small enough that shards fill to
// unequal sub-population sizes) the weighting removes the bias a uniform
// shard draw would bake in. Shard sizes are read from per-worker atomics,
// so only the chosen shard's lock is taken.
func (p *Pool) Sample() (uint64, bool) {
	out := p.sample(1)
	if len(out) == 0 {
		return 0, false
	}
	return out[0], true
}

// SampleN draws n independent samples. Fewer are returned while the pool is
// entirely empty.
func (p *Pool) SampleN(n int) []uint64 { return p.sample(n) }

// sample draws up to n weighted-shard samples against one snapshot of the
// shard sizes, with all shard quotas drawn (rng.Quotas, the one Γ-weighted
// draw) under a single lock acquisition so concurrent readers do not
// serialize per draw.
func (p *Pool) sample(n int) []uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	nw := len(p.workers)
	sizes := make([]uint64, nw)
	for i, w := range p.workers {
		sizes[i] = uint64(w.memSize.Load())
	}
	p.rmu.Lock()
	picks := p.r.Quotas(sizes, n)
	p.rmu.Unlock()
	if picks == nil {
		return nil
	}
	// Draw each shard's quota under one lock acquisition, so a large n
	// costs at most one lock round-trip per shard rather than per sample.
	// The grouping does not change the distribution: the draws are
	// independent and the output order is not part of the contract.
	out := make([]uint64, 0, n)
	misses := 0
	for i, c := range picks {
		if c == 0 {
			continue
		}
		w := p.workers[i]
		w.mu.Lock()
		for j := 0; j < c; j++ {
			id, ok := w.sampler.Sample()
			if !ok {
				// Only possible in the instant before the shard's first
				// batch lands (memories never shrink after the snapshot).
				misses += c - j
				break
			}
			out = append(out, id)
		}
		w.mu.Unlock()
	}
	// Serve any draws that hit a still-empty shard from the others rather
	// than starve the caller.
	for m := 0; m < misses; m++ {
		for i := 0; i < nw; i++ {
			w := p.workers[i]
			w.mu.Lock()
			id, ok := w.sampler.Sample()
			w.mu.Unlock()
			if ok {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// Memory returns the concatenation of every shard's Γ snapshot.
func (p *Pool) Memory() []uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []uint64
	for _, w := range p.workers {
		w.mu.Lock()
		out = append(out, w.sampler.Memory()...)
		w.mu.Unlock()
	}
	return out
}

// Estimate returns the owning shard's frequency estimate f̂ for id — an
// upper bound on how often the pool has seen it (within sketch error, and
// subject to decay). Resize hand-offs and snapshot restores preserve these
// estimates; the tests pin that.
func (p *Pool) Estimate(id uint64) uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	w := p.workers[p.smap.Load().Owner(rng.Mix64(id^p.salt))]
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sampler.Estimate(id)
}

// Strategy returns the name of the sampling strategy the pool's shards run
// (core.DefaultStrategy).
func (p *Pool) Strategy() string { return p.strategy }

// Resize re-partitions the live pool to the given shard count. A flush
// barrier quiesces the workers (producers briefly block on the pool lock —
// the only ingestion stall), then Γ entries are re-partitioned to their new
// owners under the next shard-map epoch and sketch state follows by
// merging:
//
//   - Growing: surviving shards keep their sketches (their remaining ids'
//     estimates are untouched); every new shard receives a merge of all
//     previous sketches, which — shards sharing one hash family, every id
//     counted by exactly one shard — equals the single global sketch over
//     the whole stream, so a stolen id's estimate survives within standard
//     Count-Min error.
//   - Shrinking: retired shards' sketches are merged into every survivor,
//     the same global-sketch argument applied to the ids they inherit;
//     retired counters fold into the pool totals.
//
// A shard whose re-partitioned Γ exceeds its capacity sheds uniformly
// chosen ids (possible only when shrinking reduces total memory). Resizing
// to the current count is a no-op. Concurrent Sample/Stats/Memory calls
// block for the duration; queued batches are fully processed first, and no
// pushed id is ever lost to a resize.
func (p *Pool) Resize(shards int) error {
	if shards < 1 || shards > MaxShards {
		return fmt.Errorf("shard: shard count must be in [1, %d], got %d", MaxShards, shards)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	old := p.workers
	if shards == len(old) {
		return nil
	}
	// Quiesce: with producers excluded by the write lock, one barrier round
	// drains every queue (two under decay, aligning all shards on the final
	// global epoch), after which the workers are stopped and their samplers
	// are exclusively ours.
	rounds := 1
	if p.cfg.DecayEvery > 0 {
		rounds = 2
	}
	for r := 0; r < rounds; r++ {
		barrierLocked(old)
	}
	for _, w := range old {
		close(w.ctrl)
	}
	for _, w := range old {
		<-w.done
	}

	p.rmu.Lock()
	resizeRng := p.r.Split()
	p.rmu.Unlock()
	oldMap := p.smap.Load()
	grow := shards > len(old)
	keys := append([]uint64(nil), oldMap.keys...)
	if grow {
		for len(keys) < shards {
			keys = append(keys, resizeRng.Uint64())
		}
	} else {
		keys = keys[:shards]
	}
	newMap := NewPlacement(oldMap.epoch+1, keys)

	// Γ re-partition: every remembered id moves to its owner under the new
	// map (rendezvous monotonicity means ids only move onto new shards on a
	// grow, and only off retired shards on a shrink).
	parts := make([][]uint64, shards)
	for _, w := range old {
		for _, id := range w.sampler.Memory() {
			s := newMap.Owner(rng.Mix64(id ^ p.salt))
			parts[s] = append(parts[s], id)
		}
	}

	workers := make([]*worker, shards)
	if grow {
		for i := range workers {
			if i < len(old) {
				workers[i] = old[i].recycle(p.cfg.Buffer)
				continue
			}
			// Every new shard receives an empty clone of a survivor with
			// all previous shards' frequency state merged in — shards
			// sharing one family, every id counted by exactly one shard,
			// the merge equals the single global estimator over the whole
			// stream.
			sampler, err := old[0].sampler.CloneEmpty(resizeRng.Split())
			if err == nil {
				for _, w := range old {
					if err = sampler.MergeState(w.sampler); err != nil {
						break
					}
				}
			}
			if err != nil {
				p.restartWorkers(recycleAll(old, p.cfg.Buffer))
				return fmt.Errorf("shard: resize state hand-off: %w", err)
			}
			w := newWorker(sampler, p.cfg.Buffer)
			w.halvings.Store(old[0].halvings.Load())
			workers[i] = w
		}
	} else {
		for i := 0; i < shards; i++ {
			workers[i] = old[i].recycle(p.cfg.Buffer)
		}
		// Fold every retired shard's frequency state into each survivor —
		// the same global-estimator argument applied to the ids the
		// survivors inherit; retired counters fold into the pool totals.
		retired := old[shards:]
		for i := 0; i < shards; i++ {
			for _, w := range retired {
				if err := workers[i].sampler.MergeState(w.sampler); err != nil {
					p.restartWorkers(recycleAll(old, p.cfg.Buffer))
					return fmt.Errorf("shard: resize state hand-off: %w", err)
				}
			}
		}
		for _, w := range retired {
			p.retiredProcessed.Add(w.processed.Load())
			p.retiredDropped.Add(w.dropped.Load())
		}
	}
	for i, w := range workers {
		ids := parts[i]
		if len(ids) > p.cfg.Capacity {
			// Shed overflow uniformly: a partial Fisher-Yates keeps each id
			// with equal probability, so the survivor set is a uniform
			// subset and the stationary uniformity argument is undisturbed.
			for j := 0; j < p.cfg.Capacity; j++ {
				k := j + resizeRng.Intn(len(ids)-j)
				ids[j], ids[k] = ids[k], ids[j]
			}
			ids = ids[:p.cfg.Capacity]
		}
		if err := w.sampler.RestoreMemory(ids); err != nil {
			p.restartWorkers(recycleAll(old, p.cfg.Buffer))
			return fmt.Errorf("shard: resize memory hand-off: %w", err)
		}
		w.memSize.Store(int64(w.sampler.MemorySize()))
	}
	p.workers = workers
	p.smap.Store(newMap)
	for i, w := range workers {
		w.idx = i
		go w.run(p)
	}
	return nil
}

// recycleAll recycles a stopped worker set wholesale (failure-recovery
// path: relaunch the previous plane untouched).
func recycleAll(old []*worker, buffer int) []*worker {
	out := make([]*worker, len(old))
	for i, w := range old {
		out[i] = w.recycle(buffer)
	}
	return out
}

// restartWorkers installs and launches ws as the pool's worker set. The
// caller holds mu for writing. Only reachable on resize failure paths that
// cannot occur with pools built by New/Restore (shared sketch families),
// but kept so even an invariant breach leaves a functioning pool.
func (p *Pool) restartWorkers(ws []*worker) {
	p.workers = ws
	for i, w := range ws {
		w.idx = i
		go w.run(p)
	}
}

// ShardStats is one shard's activity snapshot; the tags are its row in the
// daemon's /stats.
type ShardStats struct {
	Processed  uint64 `json:"processed"`   // ids processed by the shard's sampler
	Dropped    uint64 `json:"dropped"`     // ids discarded because the shard queue was full
	Halvings   uint64 `json:"halvings"`    // decay steps applied to the shard's sampler
	QueueDepth int    `json:"queue_depth"` // batches currently waiting in the shard queue
	MemorySize int    `json:"memory_size"` // current |Γ| of the shard's sampler
}

// Stats is a whole-pool activity snapshot.
type Stats struct {
	Shards      []ShardStats
	Epoch       uint64 // shard map epoch (increments per Resize)
	Processed   uint64 // sum over shards, including shards retired by Resize
	Dropped     uint64 // sum over shards, including shards retired by Resize
	EmitDropped uint64 // σ′ draws lost because the emitter lagged the shards
	Subscribers []subhub.SubStats
}

// Stats returns a snapshot of per-shard and aggregate counters. Epoch and
// the Shards slice come from one critical section (map swaps happen under
// the write lock), so they describe the same shard-map epoch.
func (p *Pool) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	epoch, _ := p.Topology()
	st := Stats{
		Shards:      make([]ShardStats, len(p.workers)),
		Epoch:       epoch,
		Processed:   p.retiredProcessed.Load(),
		Dropped:     p.retiredDropped.Load(),
		EmitDropped: p.emitDropped.Load(),
		Subscribers: p.hub.Stats(),
	}
	for i, w := range p.workers {
		s := ShardStats{
			Processed:  w.processed.Load(),
			Dropped:    w.dropped.Load(),
			Halvings:   w.halvings.Load(),
			QueueDepth: w.q.Len(),
			MemorySize: int(w.memSize.Load()),
		}
		st.Shards[i] = s
		st.Processed += s.Processed
		st.Dropped += s.Dropped
	}
	return st
}

// Close stops the pool: shard queues are closed, workers drain what was
// already enqueued and exit, then the output plane shuts down (remaining
// draws are published and every subscription's channel is closed).
// Idempotent; concurrent pushes either complete or return ErrPoolClosed.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for _, w := range p.workers {
		close(w.ctrl)
	}
	workers := p.workers
	p.mu.Unlock()
	for _, w := range workers {
		<-w.done
	}
	// All workers have exited, so nothing can send on the output channel
	// anymore; closing it lets the emitter drain and close the hub.
	close(p.out)
	<-p.emitDone
	return nil
}
