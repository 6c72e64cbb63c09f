package shard

import (
	"sync"
	"testing"
	"time"

	"nodesampling/internal/rng"
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
