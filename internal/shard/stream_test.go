package shard

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"nodesampling/internal/rng"
	"nodesampling/internal/subhub"
)

// TestSubscribeReceivesOutputStream subscribes before pushing and checks
// that σ′ draws arrive and are drawn from the pushed population.
func TestSubscribeReceivesOutputStream(t *testing.T) {
	p := newTestPool(t, 4, 10, 16, 4, true, 16)
	sub, err := p.Subscribe(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	ids := make([]uint64, 512)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	if err := p.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	got := 0
	deadline := time.After(5 * time.Second)
	for got < 256 {
		select {
		case id := <-sub.C():
			if id < 1 || id > 512 {
				t.Fatalf("draw %d outside the pushed population", id)
			}
			got++
		case <-deadline:
			t.Fatalf("received only %d draws", got)
		}
	}
	st := p.Stats()
	if len(st.Subscribers) != 1 {
		t.Fatalf("stats shows %d subscribers", len(st.Subscribers))
	}
	if st.Subscribers[0].Delivered == 0 {
		t.Fatalf("subscriber stats = %+v", st.Subscribers[0])
	}
	if p.NumSubscribers() != 1 {
		t.Fatalf("NumSubscribers = %d", p.NumSubscribers())
	}
}

// TestNoSubscriberNoEmission pins the fast path: without subscribers no
// draws are generated, so nothing is offered or dropped anywhere in the
// output plane.
func TestNoSubscriberNoEmission(t *testing.T) {
	p := newTestPool(t, 2, 10, 16, 4, true, 16)
	ids := make([]uint64, 256)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := p.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.EmitDropped != 0 || len(st.Subscribers) != 0 {
		t.Fatalf("output plane active without subscribers: %+v", st)
	}
	// A late subscriber only sees draws for ids pushed from now on.
	sub, err := p.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if err := p.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.C():
	case <-time.After(5 * time.Second):
		t.Fatal("no draw after subscribing")
	}
}

// TestSubscribeAfterClose verifies the lifecycle error.
func TestSubscribeAfterClose(t *testing.T) {
	p := newTestPool(t, 2, 5, 8, 4, true, 4)
	sub, err := p.Subscribe(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Subscribe(8); err != ErrPoolClosed {
		t.Fatalf("Subscribe after Close = %v, want ErrPoolClosed", err)
	}
	// The surviving subscription's channel must be closed by pool shutdown.
	select {
	case _, ok := <-sub.C():
		if ok {
			// Draining leftover draws is fine; the channel must close
			// eventually.
			for range sub.C() {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription channel not closed by pool Close")
	}
	p.Unsubscribe(sub) // no-op after close
	p.Unsubscribe(nil)
}

// TestGlobalDecayClock pushes through a decaying pool and checks that every
// shard has applied the same number of halvings after a flush — the shared
// epoch, not per-shard counts.
func TestGlobalDecayClock(t *testing.T) {
	const decayEvery = 1000
	p, err := New(Config{
		Shards:     4,
		Buffer:     16,
		Block:      true,
		Seed:       99,
		DecayEvery: decayEvery,
		Capacity:   10,
		Sampler:    kfSampler(16, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	src := rng.New(5)
	batch := make([]uint64, 512)
	const total = 10 * decayEvery
	for pushed := 0; pushed < total; pushed += len(batch) {
		for i := range batch {
			batch[i] = src.Uint64n(1 << 40) // wide population: all shards see traffic
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	want := uint64(total / decayEvery)
	for i, s := range st.Shards {
		if s.Halvings != want {
			t.Fatalf("shard %d applied %d halvings, want %d (global clock): %+v",
				i, s.Halvings, want, st.Shards)
		}
	}
}

// TestGlobalDecayClockConcurrent races several producers into a decaying
// pool, joins them, and checks that a quiescent Flush still equalises the
// epochs (the two-round barrier observing the final processed total).
func TestGlobalDecayClockConcurrent(t *testing.T) {
	const decayEvery = 777
	p, err := New(Config{
		Shards:     4,
		Buffer:     8,
		Block:      true,
		Seed:       123,
		DecayEvery: decayEvery,
		Capacity:   10,
		Sampler:    kfSampler(16, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	var wg sync.WaitGroup
	const producers, rounds, batchLen = 4, 25, 313
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(g) + 50)
			batch := make([]uint64, batchLen)
			for r := 0; r < rounds; r++ {
				for i := range batch {
					batch[i] = src.Uint64n(1 << 40)
				}
				if err := p.PushBatch(batch); err != nil {
					t.Error(err)
					return
				}
				if r%5 == 0 {
					_ = p.Flush() // flushes racing pushes must not wedge
				}
			}
		}(g)
	}
	wg.Wait()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	want := uint64(producers*rounds*batchLen) / decayEvery
	for i, s := range st.Shards {
		if s.Halvings != want {
			t.Fatalf("shard %d halvings = %d, want %d after quiescent flush: %+v",
				i, s.Halvings, want, st.Shards)
		}
	}
}

// TestDecayStillUnbiases sanity-checks that a decaying pool keeps admitting
// and sampling (the sketch does not collapse to zero everywhere).
func TestDecayStillUnbiases(t *testing.T) {
	p, err := New(Config{
		Shards:     2,
		Buffer:     8,
		Block:      true,
		Seed:       7,
		DecayEvery: 500,
		Capacity:   8,
		Sampler:    kfSampler(12, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	src := rng.New(11)
	batch := make([]uint64, 256)
	for round := 0; round < 20; round++ {
		for i := range batch {
			batch[i] = src.Uint64n(200)
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Sample(); !ok {
		t.Fatal("decaying pool cannot sample")
	}
	if len(p.Memory()) == 0 {
		t.Fatal("decaying pool has empty memory")
	}
}

// TestStalledSubscriberAccounting wedges a subscriber, floods the pool, and
// checks (a) ingestion completes — Flush returns with a blocking pool, so
// no emit path ever blocked a worker — and (b) the accounting identity:
// everything processed while subscribed was either offered to the
// subscriber or dropped by the emitter, and everything offered is delivered
// or dropped once cancelled.
func TestStalledSubscriberAccounting(t *testing.T) {
	p := newTestPool(t, 4, 10, 16, 4, true, 16)
	sub, err := p.Subscribe(32)
	if err != nil {
		t.Fatal(err)
	}
	// Nobody reads sub.C(): the consumer is stalled from the start.
	batch := make([]uint64, 1024)
	const rounds = 100
	for r := 0; r < rounds; r++ {
		for i := range batch {
			batch[i] = uint64(r*len(batch) + i)
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Let the emitter drain the output channel.
	deadline := time.Now().Add(5 * time.Second)
	var st Stats
	for {
		st = p.Stats()
		if len(st.Subscribers) == 1 &&
			st.Subscribers[0].Offered+st.EmitDropped == st.Processed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("emission accounting never settled: processed %d, offered %v, emitDropped %d",
				st.Processed, st.Subscribers, st.EmitDropped)
		}
		time.Sleep(time.Millisecond)
	}
	if st.Subscribers[0].Dropped == 0 {
		t.Fatal("stalled subscriber dropped nothing")
	}
	offered := st.Subscribers[0].Offered
	sub.Cancel()
	if got := sub.Delivered() + sub.Dropped(); got != offered {
		t.Fatalf("accounting leak after cancel: delivered %d + dropped %d != offered %d",
			sub.Delivered(), sub.Dropped(), offered)
	}
	if p.NumSubscribers() != 0 {
		t.Fatalf("NumSubscribers after cancel = %d", p.NumSubscribers())
	}
}

// waitSettled waits until every draw of the processed ids has reached sub
// or been shed by the emitter. Every processed id draws once: a shard's
// first id is always admitted, so its Γ is never empty when it draws.
func waitSettled(t *testing.T, p *Pool, sub *subhub.Subscription) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Stats()
		if sub.Offered()+st.EmitDropped == st.Processed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("draws never settled: offered %d + emit-dropped %d != processed %d",
				sub.Offered(), st.EmitDropped, st.Processed)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSigmaBatchMatchesShardReference pins the per-batch emit path: σ′ over
// 200 pushed batches equals, batch by batch, the shard-order concatenation
// of what each shard's sampler emits for its sub-batch. The reference
// replays the same sub-batches through the samplers of a twin pool built
// from the same Config — the pool's samplers as they were before its first
// push — which no worker ever touches.
func TestSigmaBatchMatchesShardReference(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := testConfig(8, 16, 16, 4, true, 8)
			cfg.EmitBuffer = 256 // every batch fits: none may be shed
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = p.Close() }()
			twin := newTestPool(t, 8, 16, 16, 4, true, 8)
			sub, err := p.Subscribe(subhub.MaxSubscriptionBuffer)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Cancel()
			src := rng.New(34)
			var want [][]uint64
			for b := 0; b < 200; b++ {
				// At least 256 ids over 8 shards: every batch touches every
				// shard, so batches reach the emitter in push order.
				batch := make([]uint64, 256+src.Intn(769))
				for i := range batch {
					batch[i] = src.Uint64n(1 << 40)
				}
				if err := p.PushBatch(batch); err != nil {
					t.Fatal(err)
				}
				parts := make([][]uint64, len(twin.workers))
				for _, id := range batch {
					s := p.ShardOf(id)
					parts[s] = append(parts[s], id)
				}
				var draws []uint64
				for i, part := range parts {
					w := twin.workers[i]
					w.mu.Lock()
					draws = w.sampler.ProcessBatchEmit(part, draws)
					w.mu.Unlock()
				}
				want = append(want, draws)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			if st := waitSettled(t, p, sub); st.EmitDropped != 0 {
				t.Fatalf("%d draws shed with room for every batch", st.EmitDropped)
			}
			got := make([]uint64, 0, sub.Offered())
			buf := make([]uint64, 4096)
			for uint64(len(got)) < sub.Offered() {
				ids, _ := sub.Next(buf)
				got = append(got, ids...)
			}
			for b, w := range want {
				if len(got) < len(w) || !slices.Equal(got[:len(w)], w) {
					t.Fatalf("batch %d: σ′ differs from the shard-order reference", b)
				}
				got = got[len(w):]
			}
		})
	}
}

// TestSigmaBatchAccountingThroughDrops pushes through a non-blocking pool
// whose 2-slot rings drop whole parts, mixes in single-id Pushes, and
// cancels one of two subscriptions mid-stream: a dropped part must never
// strand its siblings' draws, so every draw of a processed id is offered
// to the surviving subscription or shed by the emitter, and nothing else.
func TestSigmaBatchAccountingThroughDrops(t *testing.T) {
	p := newTestPool(t, 4, 16, 16, 4, false, 2)
	sub, err := p.Subscribe(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	early, err := p.Subscribe(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	batch := make([]uint64, 1024)
	for r := 0; r < 2000 && (r < 400 || p.Stats().Dropped == 0); r++ {
		for i := range batch {
			batch[i] = src.Uint64n(1 << 40)
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := p.Push(batch[0]); err != nil {
			t.Fatal(err)
		}
		if r == 200 {
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			waitSettled(t, p, early)
			early.Cancel()
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	st := waitSettled(t, p, sub)
	if st.Dropped == 0 {
		t.Fatal("2-slot rings never dropped a part")
	}
	if early.Delivered()+early.Dropped() != early.Offered() || early.Offered() == 0 || early.Offered() >= sub.Offered() {
		t.Fatalf("cancelled subscription: offered %d delivered %d dropped %d (survivor offered %d)",
			early.Offered(), early.Delivered(), early.Dropped(), sub.Offered())
	}
	// With nobody listening, a batch draws nothing.
	sub.Cancel()
	if err := p.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := p.Stats(); after.EmitDropped != st.EmitDropped {
		t.Fatalf("emit-dropped moved %d → %d with no subscriber", st.EmitDropped, after.EmitDropped)
	}
}

// TestEmitHandOffFollowsBlock pins the σ′ hand-off policy on a 1-shard pool
// fed one id at a time. A blocking pool sheds no draw: with a subscriber
// that keeps up every processed id is offered, and with the emitter held
// still the worker waits for it (and the producer, behind the worker)
// instead of dropping. A non-blocking pool held the same way drops the
// draws that do not fit the output channel and counts them.
func TestEmitHandOffFollowsBlock(t *testing.T) {
	t.Run("block=true/live", func(t *testing.T) {
		p := newTestPool(t, 1, 10, 16, 4, true, 16)
		sub, err := p.Subscribe(1024)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Cancel()
		go func() {
			buf := make([]uint64, 1024)
			for {
				if _, ok := sub.Next(buf); !ok {
					return
				}
			}
		}()
		const pushes = 20000
		for i := 0; i < pushes; i++ {
			if err := p.Push(uint64(i%1000 + 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		st := waitSettled(t, p, sub)
		if st.EmitDropped != 0 || st.Processed != pushes || sub.Offered() != st.Processed {
			t.Fatalf("processed %d of %d, offered %d, emit-dropped %d",
				st.Processed, pushes, sub.Offered(), st.EmitDropped)
		}
	})
	for _, block := range []bool{true, false} {
		t.Run(fmt.Sprintf("block=%v/held", block), func(t *testing.T) {
			gate := make(chan struct{})
			cfg := testConfig(1, 10, 16, 4, block, 16)
			cfg.OnEmitLag = func(float64) { <-gate } // holds the emitter
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = p.Close() })
			release := sync.OnceFunc(func() { close(gate) })
			t.Cleanup(release)          // cleanups run last-in first-out: before Close
			sub, err := p.Subscribe(16) // never read: the hub drops oldest
			if err != nil {
				t.Fatal(err)
			}
			const pushes = 200
			done := make(chan error, 1)
			go func() {
				for i := 0; i < pushes; i++ {
					if err := p.Push(uint64(i + 1)); err != nil {
						done <- err
						return
					}
				}
				done <- p.Flush()
			}()
			if block {
				select {
				case err := <-done:
					t.Fatalf("pushes completed (%v) with the emitter held: %d draws shed",
						err, p.Stats().EmitDropped)
				case <-time.After(100 * time.Millisecond):
				}
				release()
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !block && p.Stats().EmitDropped == 0 {
				t.Fatal("non-blocking pool shed no draw with the emitter held")
			}
			release()
			st := waitSettled(t, p, sub)
			if st.Processed+st.Dropped != pushes {
				t.Fatalf("processed %d + dropped %d != pushed %d", st.Processed, st.Dropped, pushes)
			}
			if block && (st.EmitDropped != 0 || st.Dropped != 0) {
				t.Fatalf("blocking pool dropped %d ids and %d draws", st.Dropped, st.EmitDropped)
			}
		})
	}
}
