// Package subhub implements the fan-out half of the streaming output plane:
// a subscription hub that distributes the sampling service's output stream
// σ′ to many subscribers without ever letting a slow subscriber backpressure
// the producer.
//
// Each subscriber owns a fixed-capacity ring buffer filled by Publish under
// a non-blocking drop-oldest policy. Publish only appends to rings — it
// never blocks and never waits for a consumer — so ingestion throughput is
// decoupled from delivery entirely: a lagging subscriber costs dropped
// stream elements (which a sampling stream can always afford: a later draw
// carries the same information) rather than stalling the pipeline.
//
// A batch is the unit of delivery. Publish places a batch in a plain
// subscription's ring (no decimation, no rate cap) with at most two block
// copies, and the consumer drains its ring with Next, which blocks until
// ids are buffered and moves up to a buffer's worth out in one critical
// section — the daemon's stream writer runs ring → Next → one StreamData
// frame → one socket write, on the consumer's own goroutine, with no per-id
// hand-off anywhere. The shard pool publishes once per pushed batch, so a
// subscriber that keeps up receives one frame per pushed batch. C is the
// channel-shaped adapter over the same primitive for consumers that want
// one id at a time: its first call starts a goroutine that feeds Next's
// batches into a buffered channel. Chan is C with a typed channel, which
// the root package hands to its callers as is. A subscription is drained
// through Next or through one channel, by one goroutine.
//
// Subscriptions may opt into decimation (SubscribeEvery): only every k-th
// offered id enters the ring, so a modest consumer rides a fast hub
// without paying for draws it would discard. They may additionally opt
// into a delivery rate cap (SubscribeWith): a token bucket refilled at
// RatePerSec ids/second, with one second of burst, discards (and counts)
// ids beyond the budget before they reach the ring — the absolute ceiling
// complementing decimation's relative thinning, for consumers that want
// "at most R ids/second" regardless of how fast the pool runs.
//
// Accounting is exact: every id offered to a subscription is eventually
// counted as delivered (handed out by Next, to the consumer or into C's
// channel), dropped (overwritten in the ring, or discarded at
// cancellation), filtered (thinned away by the decimation interval) or
// capped (discarded by the rate limiter), so Offered == Delivered + Dropped
// + Filtered + Capped once a subscription has been cancelled.
package subhub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nodesampling/internal/netgossip"
)

// ErrHubClosed is returned by Subscribe after Close.
var ErrHubClosed = errors.New("subhub: hub closed")

// MaxSubscriptionBuffer bounds a single subscription's ring capacity; a
// network daemon must not let one Subscribe request pin an arbitrary
// allocation.
const MaxSubscriptionBuffer = 1 << 20

// Hub fans the output stream out to its current subscribers. All methods
// are safe for concurrent use. A Hub is created with New and released with
// Close, which cancels every remaining subscription.
type Hub struct {
	mu     sync.Mutex
	subs   []*Subscription
	nextID uint64
	closed bool

	// active mirrors len(subs) so producers can gate σ′ generation on a
	// single atomic load instead of taking the hub lock per batch.
	active atomic.Int32
}

// New creates an empty hub.
func New() *Hub { return &Hub{} }

// Active reports whether at least one subscription is live. Producers use
// it to skip output-draw generation entirely while nobody is listening.
func (h *Hub) Active() bool { return h.active.Load() > 0 }

// NumSubscribers returns the current number of live subscriptions.
func (h *Hub) NumSubscribers() int { return int(h.active.Load()) }

// Subscribe registers a new subscriber with a ring buffer (and, once C is
// called, a delivery channel) of the given capacity, in ids.
func (h *Hub) Subscribe(capacity int) (*Subscription, error) {
	return h.SubscribeEvery(capacity, 1)
}

// SubscribeEvery is Subscribe with per-subscription decimation: only every
// every-th id offered to this subscription enters its ring (the rest are
// counted as filtered, not dropped). Decimation lets a modest consumer
// ride a fast hub without paying — in buffering or in drops — for stream
// elements it would discard anyway; because the retained draws are a
// deterministic 1-in-k thinning of an i.i.d. uniform stream, they are
// themselves i.i.d. uniform. every == 1 delivers everything.
func (h *Hub) SubscribeEvery(capacity, every int) (*Subscription, error) {
	if every < 1 {
		return nil, fmt.Errorf("subhub: decimation interval must be in [1, %d], got %d", netgossip.MaxDecimation, every)
	}
	return h.SubscribeWith(SubOptions{Capacity: capacity, Every: every})
}

// SubOptions parameterises SubscribeWith, the full subscription surface.
type SubOptions struct {
	// Capacity is the ring buffer (and C's delivery channel) size, in ids.
	// Required, in [1, MaxSubscriptionBuffer].
	Capacity int
	// Every is the decimation interval (0 and 1 both deliver everything),
	// at most netgossip.MaxDecimation, the Subscribe frame's limit.
	Every int
	// RatePerSec, when positive, caps delivery at that many ids per second
	// via a token bucket with one second of burst; ids beyond the budget
	// are counted as capped and never enter the ring.
	RatePerSec uint32
	// InitialSeen seeds the decimation phase: the subscription behaves as
	// if InitialSeen ids had already been offered to its 1-in-Every
	// thinning window (taken modulo Every). A reconnecting subscriber
	// passes its previous subscription's Seen() so the stitched-together
	// stream never stretches the delivery spacing beyond Every.
	InitialSeen uint64
}

// SubscribeWith registers a new subscriber with decimation, rate capping
// and decimation-phase seeding per o.
func (h *Hub) SubscribeWith(o SubOptions) (*Subscription, error) {
	capacity, every := o.Capacity, o.Every
	if capacity < 1 || capacity > MaxSubscriptionBuffer {
		return nil, fmt.Errorf("subhub: subscription capacity must be in [1, %d], got %d", MaxSubscriptionBuffer, capacity)
	}
	if every == 0 {
		every = 1
	}
	if every < 1 || every > netgossip.MaxDecimation {
		return nil, fmt.Errorf("subhub: decimation interval must be in [1, %d], got %d", netgossip.MaxDecimation, every)
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrHubClosed
	}
	h.nextID++
	s := &Subscription{
		id:    h.nextID,
		hub:   h,
		every: uint64(every),
		seen:  o.InitialSeen % uint64(every),
		rate:  float64(o.RatePerSec),
		ring:  make([]uint64, capacity),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		now:   func() int64 { return time.Now().UnixNano() },
	}
	if s.rate > 0 {
		// A full bucket at birth: the first second's budget is available
		// immediately, then refills at RatePerSec.
		s.tokens = s.rate
		s.lastRefill = s.now()
	}
	h.subs = append(h.subs, s)
	h.active.Add(1)
	h.mu.Unlock()
	return s, nil
}

// Unsubscribe cancels a subscription. Equivalent to s.Cancel; nil-safe and
// idempotent.
func (h *Hub) Unsubscribe(s *Subscription) {
	if s != nil {
		s.Cancel()
	}
}

// Publish offers ids to every current subscriber. It never blocks: a full
// ring overwrites its oldest element (counted against that subscriber).
// The ids slice is copied into the rings; the caller keeps ownership.
func (h *Hub) Publish(ids []uint64) {
	if len(ids) == 0 || h.active.Load() == 0 {
		return
	}
	h.mu.Lock()
	for _, s := range h.subs {
		s.offer(ids)
	}
	h.mu.Unlock()
}

// SubStats is one subscription's delivery accounting snapshot; the tags are
// its row in the daemon's /stats.
type SubStats struct {
	ID        uint64 `json:"id"`        // stable per-hub subscription identifier
	Offered   uint64 `json:"offered"`   // ids published while this subscription was live
	Delivered uint64 `json:"delivered"` // ids handed out by Next (for C: on their way into the channel)
	Dropped   uint64 `json:"dropped"`   // ids overwritten in the ring or discarded at cancel
	Filtered  uint64 `json:"filtered"`  // ids thinned away by the decimation interval
	Capped    uint64 `json:"capped"`    // ids discarded by the delivery rate cap
	Capacity  int    `json:"capacity"`  // ring capacity
	Depth     int    `json:"depth"`     // ids buffered and not yet consumed (ring, plus C's channel)
	Every     int    `json:"every"`     // decimation interval (1 delivers everything)
	Rate      uint32 `json:"rate"`      // delivery rate cap in ids/second (0 = uncapped)
}

// Stats returns a snapshot of every live subscription's counters.
func (h *Hub) Stats() []SubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]SubStats, len(h.subs))
	for i, s := range h.subs {
		out[i] = s.stats()
	}
	return out
}

// remove unlinks s from the hub (cancel path). Idempotent per subscription
// because Cancel runs at most once.
func (h *Hub) remove(s *Subscription) {
	h.mu.Lock()
	for i, cur := range h.subs {
		if cur == s {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			h.active.Add(-1)
			break
		}
	}
	h.mu.Unlock()
}

// Close cancels every subscription (closing their delivery channels) and
// rejects future Subscribe calls. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := append([]*Subscription(nil), h.subs...)
	h.mu.Unlock()
	for _, s := range subs {
		s.Cancel()
	}
}

// Subscription is one subscriber's endpoint: a ring buffer written by the
// hub and drained by the consumer, in batches with Next or id by id from C.
// Obtain one from Hub.Subscribe and release it with Cancel.
type Subscription struct {
	id  uint64
	hub *Hub

	done       chan struct{} // closed by Cancel; unblocks Next
	cancelOnce sync.Once

	mu     sync.Mutex
	ring   []uint64
	head   int // index of the oldest buffered id
	size   int // ids currently buffered
	closed bool
	wake   chan struct{} // capacity 1: at-least-once data signal for Next

	// out, queued and fed exist only for a channel consumer: the first Chan
	// call makes the delivery channel (buffered to the ring capacity, so
	// such a subscriber can lag by roughly twice the requested capacity
	// before losing elements) and starts feed, which closes fed on exit.
	// out holds the chan T of that call; queued reports its len.
	out    any
	queued func() int
	fed    chan struct{}

	// every is the decimation interval; seen counts offered ids modulo it
	// (guarded by mu, like the ring it feeds).
	every uint64
	seen  uint64

	// Token-bucket rate cap (guarded by mu): tokens refill at rate per
	// second up to one second's burst; rate 0 disables the bucket (and the
	// clock read). now is the time source, swappable by same-package tests.
	rate       float64
	tokens     float64
	lastRefill int64
	now        func() int64

	offered   atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	filtered  atomic.Uint64
	capped    atomic.Uint64
}

// ID returns the hub-assigned subscription identifier.
func (s *Subscription) ID() uint64 { return s.id }

// C returns the delivery channel, the id-at-a-time adapter over Next: the
// first call starts the goroutine that moves the ring's batches into the
// channel. It is closed after Cancel (or hub Close) once that goroutine has
// exited; ids already in the channel buffer remain readable after the
// close. A subscription drained through C must not also call Next.
func (s *Subscription) C() <-chan uint64 { return Chan[uint64](s) }

// Chan is C with a delivery channel of element type T. Every call on one
// subscription must name the same T (C names uint64).
func Chan[T ~uint64](s *Subscription) <-chan T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.out == nil {
		var ch chan T
		if s.closed {
			// Cancelled before anybody asked: the ring was already written
			// off, there is nothing to feed.
			ch = make(chan T)
			close(ch)
		} else {
			ch = make(chan T, len(s.ring))
			s.fed = make(chan struct{})
			go feed(s, ch)
		}
		s.out, s.queued = ch, func() int { return len(ch) }
	}
	return s.out.(chan T)
}

// Offered returns how many ids were published while this subscription was
// live.
func (s *Subscription) Offered() uint64 { return s.offered.Load() }

// Delivered returns how many ids Next has handed out: to a batch consumer,
// or to C's goroutine on their way into the delivery channel (Cancel takes
// back what no longer fits there).
func (s *Subscription) Delivered() uint64 { return s.delivered.Load() }

// Dropped returns how many ids were lost to the drop-oldest policy (plus
// any discarded at cancellation).
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Filtered returns how many ids the decimation interval thinned away.
func (s *Subscription) Filtered() uint64 { return s.filtered.Load() }

// Capped returns how many ids the delivery rate cap discarded.
func (s *Subscription) Capped() uint64 { return s.capped.Load() }

// Every returns the subscription's decimation interval.
func (s *Subscription) Every() int { return int(s.every) }

// Rate returns the delivery rate cap in ids/second (0 = uncapped).
func (s *Subscription) Rate() uint32 { return uint32(s.rate) }

// Seen returns the decimation window's current phase: how many ids have
// been offered since the last one entered the ring. A server hands it to a
// reconnecting subscriber (SubOptions.InitialSeen) so the stitched stream
// keeps its 1-in-Every spacing across the reconnect.
func (s *Subscription) Seen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// Cancel detaches the subscription from the hub and ends delivery, so that
// Offered == Delivered + Dropped + Filtered + Capped holds when it returns.
// What a batch consumer has not taken with Next by then is counted as
// dropped. For a channel consumer the buffered ids are flushed into the
// channel as far as its capacity allows — without ever blocking — before it
// is closed, and only the remainder is dropped, so a consumer that kept up
// loses nothing to the shutdown.
// Idempotent and safe to call concurrently with Publish and Next.
func (s *Subscription) Cancel() {
	s.cancelOnce.Do(func() {
		s.mu.Lock()
		s.closed = true // no further offers enter the ring
		fed := s.fed
		if fed == nil {
			s.discard()
		}
		s.mu.Unlock()
		close(s.done)
		s.hub.remove(s)
		if fed != nil {
			<-fed
		}
	})
}

// discard writes the ring's contents off as dropped. The caller holds mu.
func (s *Subscription) discard() {
	s.dropped.Add(uint64(s.size))
	s.size = 0
}

// offer appends ids to the ring under the drop-oldest policy. Called by the
// hub with the hub lock held; never blocks.
func (s *Subscription) offer(ids []uint64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.offered.Add(uint64(len(ids)))
	n := len(s.ring)
	var dropped, filtered, capped uint64
	if s.every == 1 && s.rate == 0 {
		// A plain subscription keeps every id: block copies place the batch.
		dropped = s.put(ids)
	} else {
		if s.rate > 0 {
			// One refill per offer batch: the bucket accrues rate tokens per
			// second since the last offer, capped at one second of burst.
			// Uncapped subscriptions never reach this, so they never read the
			// clock on the publish path.
			now := s.now()
			if elapsed := float64(now-s.lastRefill) / 1e9; elapsed > 0 {
				s.tokens += elapsed * s.rate
				if s.tokens > s.rate {
					s.tokens = s.rate
				}
			}
			s.lastRefill = now
		}
		for _, id := range ids {
			if s.every > 1 {
				s.seen++
				if s.seen < s.every {
					filtered++
					continue
				}
				s.seen = 0
			}
			if s.rate > 0 {
				if s.tokens < 1 {
					capped++
					continue
				}
				s.tokens--
			}
			if s.size == n {
				s.ring[s.head] = id
				s.head++
				if s.head == n {
					s.head = 0
				}
				dropped++
			} else {
				i := s.head + s.size
				if i >= n {
					i -= n
				}
				s.ring[i] = id
				s.size++
			}
		}
	}
	if dropped > 0 {
		s.dropped.Add(dropped)
	}
	if filtered > 0 {
		s.filtered.Add(filtered)
	}
	if capped > 0 {
		s.capped.Add(capped)
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// put appends ids to the ring in at most two copies under the drop-oldest
// policy, leaving the ring exactly as offering them one at a time would,
// and returns how many ids the policy dropped. The caller holds mu.
func (s *Subscription) put(ids []uint64) uint64 {
	n, total := len(s.ring), s.size+len(ids)
	if len(ids) > n {
		ids = ids[len(ids)-n:] // the rest would be overwritten by this very offer
	}
	tail := (s.head + total - len(ids)) % n // where ids[0] lands
	k := copy(s.ring[tail:], ids)
	copy(s.ring, ids[k:])
	if total <= n {
		s.size = total
		return 0
	}
	s.head = (tail + len(ids)) % n
	s.size = n
	return uint64(total - n)
}

// Next blocks until the ring holds ids or the subscription is cancelled,
// then moves up to cap(buf) of the oldest ids into buf (which must have
// room for at least one), counts them delivered and returns them. It
// returns false once the subscription is cancelled and nothing is left to
// take. One goroutine drains a subscription; Next does not allocate.
func (s *Subscription) Next(buf []uint64) ([]uint64, bool) {
	for {
		s.mu.Lock()
		if s.size > 0 {
			n := min(s.size, cap(buf))
			buf = buf[:n]
			// Two copies: up to the end of the ring, then the wrap-around.
			k := copy(buf, s.ring[s.head:])
			copy(buf[k:], s.ring)
			if s.head += n; s.head >= len(s.ring) {
				s.head -= len(s.ring)
			}
			s.size -= n
			s.delivered.Add(uint64(n))
			s.mu.Unlock()
			return buf, true
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, false
		}
		select {
		case <-s.wake:
		case <-s.done:
		}
	}
}

// feedChunk bounds how many ids feed holds between ring and channel.
const feedChunk = 1024

// feed is Chan's goroutine: Next's batches, sent into the delivery channel
// id by id. After Cancel it keeps going for as long as the channel has room
// (Next hands a channel consumer the ring's remainder, offers having
// stopped) and then moves what cannot be handed over from delivered to
// dropped. It is the only sender on out, so it alone closes it.
func feed[T ~uint64](s *Subscription, out chan<- T) {
	defer close(s.fed)
	defer close(out)
	buf := make([]uint64, min(len(s.ring), feedChunk))
	for {
		ids, ok := s.Next(buf)
		if !ok {
			return
		}
		for i, id := range ids {
			select {
			case out <- T(id):
				continue
			default:
			}
			select {
			case out <- T(id):
			case <-s.done:
				// Cancelled with the channel full: the rest of this batch
				// and of the ring can never be handed over.
				lost := uint64(len(ids) - i)
				s.delivered.Add(-lost)
				s.dropped.Add(lost)
				s.mu.Lock()
				s.discard()
				s.mu.Unlock()
				return
			}
		}
	}
}

// stats snapshots the counters; the caller holds the hub lock. Depth spans
// every buffering stage there is — the ring and, for a channel consumer,
// the delivery channel — so a lagging consumer's backlog is visible before
// drops begin. offer and Next move their counters under mu, so for a batch
// consumer every snapshot satisfies
// Offered == Delivered + Dropped + Filtered + Capped + Depth.
func (s *Subscription) stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := s.size
	if s.queued != nil {
		depth += s.queued()
	}
	return SubStats{
		ID:        s.id,
		Offered:   s.offered.Load(),
		Delivered: s.delivered.Load(),
		Dropped:   s.dropped.Load(),
		Filtered:  s.filtered.Load(),
		Capped:    s.capped.Load(),
		Capacity:  len(s.ring),
		Depth:     depth,
		Every:     int(s.every),
		Rate:      uint32(s.rate),
	}
}
