package nodesampling

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
	"nodesampling/internal/stream"
)

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(0, 4); err == nil {
		t.Error("c=0 should fail")
	}
	if _, err := NewPool(5, 0); err == nil {
		t.Error("shards=0 should fail")
	}
	if _, err := NewPool(5, 4, WithSketch(0, 3)); err == nil {
		t.Error("bad sketch shape should fail")
	}
	if _, err := NewPool(5, 4, WithShardBuffer(-1)); err == nil {
		t.Error("negative shard buffer should fail")
	}
}

func TestPoolBasicFlow(t *testing.T) {
	p, err := NewPool(4, 3, WithSeed(1), WithSketch(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	if p.NumShards() != 3 {
		t.Fatalf("NumShards = %d", p.NumShards())
	}
	if _, ok := p.Sample(); ok {
		t.Fatal("sample ok before input")
	}
	if err := p.Push(42); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if id, ok := p.Sample(); !ok || id != 42 {
		t.Fatalf("sample = (%d, %v)", id, ok)
	}
	if mem := p.Memory(); len(mem) != 1 || mem[0] != 42 {
		t.Fatalf("memory = %v", mem)
	}
	st := p.Stats()
	if st.Processed != 1 || len(st.Shards) != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPoolUnbiasesAttack runs the quickstart attack scenario through the
// sharded pool: the KL gain must match what the single sampler achieves.
func TestPoolUnbiasesAttack(t *testing.T) {
	const n, m = 500, 120000
	pmf, err := stream.PeakPMF(n, 7, 50000, 50)
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.NewCategorical(pmf, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(8, 4, WithSeed(22), WithSketch(15, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	input := metrics.NewHistogram()
	output := metrics.NewHistogram()
	// Mirror the single-sampler scenario's one-output-per-input semantics:
	// after each ingested batch, draw as many samples from the evolving
	// memories (a frozen final state could never cover more than the pool's
	// total memory, which would cap the measurable gain).
	batch := make([]NodeID, 0, 512)
	drain := func() {
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		for range batch {
			id, ok := p.Sample()
			if !ok {
				t.Fatal("sample not ok on a warm pool")
			}
			output.Add(uint64(id))
		}
		batch = batch[:0]
	}
	for i := 0; i < m; i++ {
		id := src.Next()
		input.Add(id)
		batch = append(batch, NodeID(id))
		if len(batch) == cap(batch) {
			drain()
		}
	}
	drain()
	g, err := metrics.Gain(input, output, n)
	if err != nil {
		t.Fatal(err)
	}
	if g < 0.5 {
		t.Fatalf("pool gain %v under peak attack, want > 0.5", g)
	}
}

func TestPoolConcurrentUse(t *testing.T) {
	p, err := NewPool(10, 8, WithSeed(3), WithSketch(10, 5), WithShardBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(g) + 10)
			batch := make([]NodeID, 64)
			for b := 0; b < 40; b++ {
				for i := range batch {
					batch[i] = NodeID(src.Uint64n(5000))
				}
				if err := p.PushBatch(batch); err != nil {
					t.Error(err)
					return
				}
				p.Sample()
			}
		}(g)
	}
	wg.Wait()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if want := uint64(8 * 40 * 64); st.Processed != want {
		t.Fatalf("processed %d, want %d", st.Processed, want)
	}
	if st.Dropped != 0 {
		t.Fatalf("blocking pool dropped %d", st.Dropped)
	}
	if len(p.SampleN(10)) != 10 {
		t.Fatal("SampleN short on a warm pool")
	}
}

func TestPoolNonBlockingIngestDrops(t *testing.T) {
	p, err := NewPool(5, 1, WithSeed(4), WithSketch(200, 8),
		WithShardBuffer(0), WithNonBlockingIngest())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	big := make([]NodeID, 4096)
	for i := range big {
		big[i] = NodeID(i)
	}
	for i := 0; i < 200 && p.Stats().Dropped == 0; i++ {
		if err := p.PushBatch(big); err != nil {
			t.Fatal(err)
		}
	}
	if p.Stats().Dropped == 0 {
		t.Fatal("unbuffered non-blocking pool never dropped under a flood")
	}
}

// TestPoolSubscribe drives the public streaming surface: draws arrive on
// the subscription channel, come from the pushed population, and the
// counters surface through Stats.
func TestPoolSubscribe(t *testing.T) {
	p, err := NewPool(10, 4, WithSeed(6), WithSketch(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	if _, err := p.Subscribe(0); err == nil {
		t.Error("capacity 0 should fail")
	}
	sub, err := p.Subscribe(2048)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]NodeID, 400)
	for i := range ids {
		ids[i] = NodeID(i + 1)
	}
	if err := p.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	deadline := time.After(5 * time.Second)
	for seen < 200 {
		select {
		case id := <-sub.C():
			if id < 1 || id > 400 {
				t.Fatalf("draw %d outside the pushed population", id)
			}
			seen++
		case <-deadline:
			t.Fatalf("received only %d draws", seen)
		}
	}
	st := p.Stats()
	if len(st.Subscribers) != 1 || st.Subscribers[0].Delivered == 0 {
		t.Fatalf("subscriber stats = %+v", st.Subscribers)
	}
	sub.Cancel()
	sub.Cancel() // idempotent
	p.Unsubscribe(sub)
	p.Unsubscribe(nil)
	// The channel must close after cancellation (possibly after buffered
	// draws drain).
	deadline = time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.C():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("subscription channel never closed after Cancel")
		}
	}
}

// TestPoolSlowSubscriberNeverBlocksIngest is the satellite guarantee: a
// subscriber that never reads must not stall a *blocking* pool's ingestion,
// and the drop counters must account for every undelivered draw.
func TestPoolSlowSubscriberNeverBlocksIngest(t *testing.T) {
	p, err := NewPool(10, 4, WithSeed(8), WithSketch(16, 4), WithShardBuffer(16))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	sub, err := p.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	// Nobody ever reads sub.C().
	batch := make([]NodeID, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < 100; r++ {
			for i := range batch {
				batch[i] = NodeID(r*len(batch) + i)
			}
			if err := p.PushBatch(batch); err != nil {
				t.Error(err)
				return
			}
		}
		if err := p.Flush(); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ingestion blocked behind a stalled subscriber")
	}
	// Wait for the emitter to drain, then pin the accounting identity:
	// every draw generated was offered to the subscriber or dropped by the
	// emitter, and after cancellation offered == delivered + dropped.
	deadline := time.Now().Add(5 * time.Second)
	var st PoolStats
	for {
		st = p.Stats()
		if len(st.Subscribers) == 1 &&
			st.Subscribers[0].Offered+st.EmitDropped == st.Processed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("emission accounting never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.Subscribers[0].Dropped == 0 {
		t.Fatal("stalled subscriber dropped nothing")
	}
	offered := st.Subscribers[0].Offered
	sub.Cancel()
	if got := sub.Delivered() + sub.Dropped(); got != offered {
		t.Fatalf("accounting leak: delivered %d + dropped %d != offered %d",
			sub.Delivered(), sub.Dropped(), offered)
	}
}

// TestPoolCloseRaces fires Close in the middle of concurrent PushBatch,
// Sample, Stats and Subscribe traffic; the race detector plus the
// either-complete-or-ErrPoolClosed contract are the assertions.
func TestPoolCloseRaces(t *testing.T) {
	for round := 0; round < 5; round++ {
		p, err := NewPool(10, 4, WithSeed(uint64(round)+30), WithSketch(10, 4),
			WithShardBuffer(4), WithNonBlockingIngest())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 3; g++ {
			wg.Add(4)
			go func(g int) {
				defer wg.Done()
				<-start
				batch := make([]NodeID, 64)
				for i := range batch {
					batch[i] = NodeID(g*1000 + i)
				}
				for j := 0; j < 50; j++ {
					if err := p.PushBatch(batch); err != nil {
						if !errors.Is(err, ErrPoolClosed) {
							t.Errorf("PushBatch: %v", err)
						}
						return
					}
				}
			}(g)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 50; j++ {
					p.Sample()
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 50; j++ {
					p.Stats()
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 10; j++ {
					sub, err := p.Subscribe(8)
					if err != nil {
						if !errors.Is(err, ErrPoolClosed) {
							t.Errorf("Subscribe: %v", err)
						}
						return
					}
					select {
					case <-sub.C():
					default:
					}
					sub.Cancel()
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := p.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		close(start)
		wg.Wait()
		_ = p.Close()
	}
}

// TestPoolDecayPublicAPI exercises WithDecay through NewPool: the global
// clock must halve every shard the same number of times.
func TestPoolDecayPublicAPI(t *testing.T) {
	p, err := NewPool(10, 4, WithSeed(40), WithSketch(16, 4), WithDecay(500))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	src := rng.New(41)
	batch := make([]NodeID, 250)
	for r := 0; r < 8; r++ { // 2000 ids = 4 epochs
		for i := range batch {
			batch[i] = NodeID(src.Uint64n(1 << 40))
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	for i, s := range st.Shards {
		if s.Halvings != 4 {
			t.Fatalf("shard %d halvings = %d, want 4: %+v", i, s.Halvings, st.Shards)
		}
	}
	if _, ok := p.Sample(); !ok {
		t.Fatal("decaying pool cannot sample")
	}
}

// TestPoolResizePublic drives the elastic plane through the public API:
// resize up and down under traffic, with counters, epoch and memory
// surviving.
func TestPoolResizePublic(t *testing.T) {
	p, err := NewPool(50, 2, WithSeed(91), WithSketch(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	ids := make([]NodeID, 1024)
	for i := range ids {
		ids[i] = NodeID(i%100 + 1)
	}
	for r := 0; r < 4; r++ {
		if err := p.PushBatch(ids); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	memBefore := p.Memory()
	if err := p.Resize(6); err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 6 || p.Epoch() != 1 {
		t.Fatalf("shards=%d epoch=%d after resize", p.NumShards(), p.Epoch())
	}
	st := p.Stats()
	if len(st.Shards) != 6 || st.Epoch != 1 || st.Processed != 4*1024 {
		t.Fatalf("stats after resize = %+v", st)
	}
	if len(p.Memory()) != len(memBefore) {
		t.Fatalf("memory %d after resize, want %d", len(p.Memory()), len(memBefore))
	}
	if err := p.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Sample(); !ok {
		t.Fatal("resized pool cannot sample")
	}
	if err := p.Resize(0); err == nil {
		t.Error("Resize(0) should fail")
	}
}

// TestPoolSnapshotRestorePublic: the public round trip — estimates, Γ and
// counters revive, and a pool restored with mismatched sketch options
// fails loudly.
func TestPoolSnapshotRestorePublic(t *testing.T) {
	p, err := NewPool(50, 3, WithSeed(92), WithSketch(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	ids := make([]NodeID, 2048)
	for i := range ids {
		ids[i] = NodeID(i%200 + 1)
	}
	if err := p.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q, err := RestorePool(blob, WithSketch(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q.Close() }()
	if q.NumShards() != 3 || q.Epoch() != p.Epoch() {
		t.Fatalf("restored shape shards=%d epoch=%d", q.NumShards(), q.Epoch())
	}
	pm, qm := p.Memory(), q.Memory()
	if len(pm) != len(qm) {
		t.Fatalf("restored memory %d, want %d", len(qm), len(pm))
	}
	if qs := q.Stats(); qs.Processed != 2048 {
		t.Fatalf("restored processed = %d", qs.Processed)
	}
	if _, ok := q.Sample(); !ok {
		t.Fatal("restored pool cannot sample without new input")
	}
	if _, err := RestorePool(blob, WithSketch(10, 2)); err == nil {
		t.Error("mismatched sketch shape should fail")
	}
	if _, err := RestorePool([]byte("junk")); err == nil {
		t.Error("junk blob should fail")
	}
}

// TestPoolSubscribeEvery pins decimation end to end at pool level: a
// 1-in-k subscription receives roughly offered/k draws and accounts the
// rest as filtered.
func TestPoolSubscribeEvery(t *testing.T) {
	p, err := NewPool(10, 4, WithSeed(93), WithSketch(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	if _, err := p.SubscribeEvery(8, 0); err == nil {
		t.Error("every=0 should fail")
	}
	const every = 8
	sub, err := p.SubscribeEvery(4096, every)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]NodeID, 4096)
	for i := range ids {
		ids[i] = NodeID(i%500 + 1)
	}
	if err := p.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait for the emission plane to settle, then check the arithmetic.
	deadline := time.After(5 * time.Second)
	for {
		st := p.Stats()
		if len(st.Subscribers) == 1 && st.Subscribers[0].Offered+st.EmitDropped == st.Processed {
			s := st.Subscribers[0]
			if s.Every != every {
				t.Fatalf("stats report every=%d, want %d", s.Every, every)
			}
			if s.Filtered == 0 {
				t.Fatal("decimated subscription filtered nothing")
			}
			if kept := s.Offered - s.Filtered; kept != s.Offered/every {
				t.Fatalf("kept %d of %d offered, want 1 in %d", kept, s.Offered, every)
			}
			// Kept draws still in the subscription's ring are neither
			// delivered nor dropped yet: they are depth. A pool subscription
			// consumes through a channel, whose backlog Depth counts too
			// (those draws are already delivered), so until the ring has
			// drained the identity holds with Depth as slack, and exactly
			// once it has.
			done := s.Delivered + s.Dropped + s.Filtered
			if done > s.Offered || done+uint64(s.Depth) < s.Offered {
				t.Fatalf("accounting: delivered %d + dropped %d + filtered %d (+ depth %d) vs offered %d",
					s.Delivered, s.Dropped, s.Filtered, s.Depth, s.Offered)
			}
			if done == s.Offered {
				break
			}
		}
		select {
		case <-deadline:
			t.Fatalf("emission accounting never settled: %+v", st)
		case <-time.After(time.Millisecond):
		}
	}
	sub.Cancel()
}

func TestPoolClose(t *testing.T) {
	p, err := NewPool(5, 2, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := p.Push(2); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Push after close = %v, want ErrPoolClosed", err)
	}
	if err := p.PushBatch([]NodeID{3}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("PushBatch after close = %v, want ErrPoolClosed", err)
	}
	if err := p.Flush(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Flush after close = %v, want ErrPoolClosed", err)
	}
}

// TestPoolTopology pins the coherent (epoch, shards) read on the public
// surface: both values must come from one shard-map load and track Resize.
func TestPoolTopology(t *testing.T) {
	p, err := NewPool(8, 3, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if epoch, shards := p.Topology(); epoch != 0 || shards != 3 {
		t.Fatalf("fresh topology (%d, %d), want (0, 3)", epoch, shards)
	}
	if err := p.Resize(5); err != nil {
		t.Fatal(err)
	}
	epoch, shards := p.Topology()
	if epoch != 1 || shards != 5 {
		t.Fatalf("topology after resize (%d, %d), want (1, 5)", epoch, shards)
	}
	if epoch != p.Epoch() || shards != p.NumShards() {
		t.Fatal("Topology disagrees with Epoch/NumShards on a quiet pool")
	}
}

// TestPoolLoadSignalsPublic pins the public policy surface: the signals a
// library user drives their own Resize policy against.
func TestPoolLoadSignalsPublic(t *testing.T) {
	p, err := NewPool(8, 2, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ids := make([]NodeID, 128)
	for i := range ids {
		ids[i] = NodeID(i + 1)
	}
	if err := p.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	sig := p.LoadSignals()
	if sig.Shards != 2 || sig.Epoch != 0 || sig.Processed != 128 || sig.Dropped != 0 {
		t.Fatalf("signals %+v", sig)
	}
	if sig.QueueCap == 0 || sig.QueueLen != 0 {
		t.Fatalf("queue figures %+v", sig)
	}
}
