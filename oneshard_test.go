package nodesampling

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nodesampling/internal/metrics"
)

// The tests in this file pin NewPool(c, 1): one sampler behind one worker
// goroutine, fed one id per Push. It is the single-id concurrent front end
// that replaced the Service type, and the tests keep the names they had
// when they drove Service.

func newOneShardPool(t *testing.T, c int, opts ...Option) *Pool {
	t.Helper()
	p, err := NewPool(c, 1, append([]Option{WithSeed(1), WithSketch(16, 4)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewPool(0, 1); err == nil {
		t.Error("c=0 should fail")
	}
	if _, err := NewPool(3, 1, WithSeed(2), WithShardBuffer(-1)); err == nil {
		t.Error("negative buffer should fail")
	}
}

// TestServicePushAndSample drives the single-id surface: Push, Flush,
// Sample, Memory and Stats, then a stream of pushes and Close, after which
// the drained pool still samples from what it was fed.
func TestServicePushAndSample(t *testing.T) {
	p := newOneShardPool(t, 4)
	if p.NumShards() != 1 {
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
	if st := p.Stats(); st.Processed != 1 || len(st.Shards) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < 100; i++ {
		if err := p.Push(NodeID(i % 7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	id, ok := p.Sample()
	if !ok {
		t.Fatal("no sample after 100 pushes")
	}
	if id > 6 && id != 42 {
		t.Fatalf("sample %d outside pushed ids", id)
	}
	if mem := p.Memory(); len(mem) == 0 || len(mem) > 4 {
		t.Fatalf("memory size %d", len(mem))
	}
}

func TestServicePushAfterClose(t *testing.T) {
	p := newOneShardPool(t, 3)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Push(1); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Push after close = %v, want ErrPoolClosed", err)
	}
	if err := p.PushBatch([]NodeID{2}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("PushBatch after close = %v, want ErrPoolClosed", err)
	}
	if err := p.Flush(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Flush after close = %v, want ErrPoolClosed", err)
	}
	// Idempotent close.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceSubscribe checks that σ′ reaches a subscriber that is read
// only after Close: every pushed id yields one draw from the pushed
// population, delivered or counted as dropped.
func TestServiceSubscribe(t *testing.T) {
	p := newOneShardPool(t, 4)
	sub, err := p.Subscribe(256)
	if err != nil {
		t.Fatal(err)
	}
	const pushes = 128
	for i := 0; i < pushes; i++ {
		if err := p.Push(NodeID(i % 5)); err != nil {
			t.Fatal(err)
		}
	}
	_ = p.Close()
	received := 0
	for id := range sub.C() {
		if id > 4 {
			t.Fatalf("draw %d outside the pushed population", id)
		}
		received++
	}
	if received+int(sub.Dropped()) != pushes {
		t.Fatalf("received %d + dropped %d != pushed %d", received, sub.Dropped(), pushes)
	}
	if received == 0 {
		t.Fatal("subscriber received nothing")
	}
}

func TestServiceSubscribeValidation(t *testing.T) {
	p := newOneShardPool(t, 3)
	if _, err := p.Subscribe(0); err == nil {
		t.Error("capacity 0 should fail")
	}
	if _, err := p.SubscribeEvery(8, 0); err == nil {
		t.Error("every=0 should fail")
	}
	_ = p.Close()
	if _, err := p.Subscribe(1); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Subscribe after close = %v", err)
	}
}

// TestServiceSlowSubscriberDoesNotBlock: a capacity-1 subscriber that is
// never read must not stall single-id pushes into a blocking pool, and the
// counters must account for every undelivered draw.
func TestServiceSlowSubscriberDoesNotBlock(t *testing.T) {
	p := newOneShardPool(t, 4, WithShardBuffer(4))
	sub, err := p.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	const pushes = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < pushes; i++ {
			if err := p.Push(NodeID(i % 9)); err != nil {
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
		t.Fatal("pushes blocked behind a stalled subscriber")
	}
	deadline := time.Now().Add(5 * time.Second)
	var st PoolStats
	for {
		st = p.Stats()
		if st.Subscribers[0].Offered+st.EmitDropped == pushes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("emission accounting never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.Subscribers[0].Dropped == 0 {
		t.Fatal("expected drops with a stuck subscriber")
	}
	offered := st.Subscribers[0].Offered
	sub.Cancel()
	if got := sub.Delivered() + sub.Dropped(); got != offered {
		t.Fatalf("accounting leak: delivered %d + dropped %d != offered %d",
			sub.Delivered(), sub.Dropped(), offered)
	}
}

// TestServiceConcurrentProducers hammers the pool from many single-id
// producers while a reader polls samples and memory; run with -race this
// doubles as the data-race test for the pipeline.
func TestServiceConcurrentProducers(t *testing.T) {
	p := newOneShardPool(t, 8, WithShardBuffer(64))
	const producers, perProducer = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := p.Push(NodeID((g*perProducer + i) % 50)); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(g)
	}
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		// Concurrent reads for the race detector; assertions happen after
		// the pipeline quiesces.
		for i := 0; i < 2000; i++ {
			_, _ = p.Sample()
			_ = p.Memory()
		}
	}()
	wg.Wait()
	rg.Wait()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Processed != producers*perProducer || st.Dropped != 0 {
		t.Fatalf("processed %d, dropped %d; want %d, 0", st.Processed, st.Dropped, producers*perProducer)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Sample(); !ok {
		t.Fatal("no sample after all producers finished")
	}
}

// TestServiceCloseRacesWithPush: Close racing single-id pushes, samples
// and subscriptions must neither panic nor deadlock; pushes and
// subscriptions report ErrPoolClosed once closed.
func TestServiceCloseRacesWithPush(t *testing.T) {
	for round := 0; round < 20; round++ {
		p, err := NewPool(4, 1, WithSeed(uint64(round)), WithSketch(8, 3))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if err := p.Push(NodeID(i)); err != nil {
						if !errors.Is(err, ErrPoolClosed) {
							t.Errorf("Push: %v", err)
						}
						return // closed mid-stream: expected
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				p.Sample()
				sub, err := p.Subscribe(8)
				if err != nil {
					if !errors.Is(err, ErrPoolClosed) {
						t.Errorf("Subscribe: %v", err)
					}
					return
				}
				sub.Cancel()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Close()
		}()
		wg.Wait()
		_ = p.Close()
	}
}

// TestServiceEndToEndUniformity runs the full pipeline over a biased input
// and checks the subscribed output stream σ′ carries one draw per push and
// is much closer to uniform. The sketch is sized well below the population
// (k ≪ n), per the sizing rule in NewSampler's documentation. At this shape
// a few hash families land in a low-gain mode (about 0.13) on this periodic
// input, for NewSampler as for the pool, so the gain is checked over ten
// seeds: at least eight must reach 0.5.
func TestServiceEndToEndUniformity(t *testing.T) {
	const n, m, seeds = 50, 30000, 10
	reached := 0
	gains := make([]float64, 0, seeds)
	for seed := uint64(1); seed <= seeds; seed++ {
		p, err := NewPool(16, 1, WithSeed(seed), WithSketch(8, 3), WithShardBuffer(128))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = p.Close() }()
		sub, err := p.Subscribe(1 << 16)
		if err != nil {
			t.Fatal(err)
		}
		input := metrics.NewHistogram()
		// Biased producer: id 0 takes half the stream.
		for i := 0; i < m; i++ {
			id := NodeID(i % (2 * n))
			if id >= n {
				id = 0
			}
			input.Add(uint64(id))
			if err := p.Push(id); err != nil {
				t.Fatal(err)
			}
		}
		_ = p.Close()
		output := metrics.NewHistogram()
		for id := range sub.C() {
			output.Add(uint64(id))
		}
		if output.Total() != m {
			t.Fatalf("seed %d: σ′ carried %d draws for %d pushes", seed, output.Total(), m)
		}
		g, err := metrics.Gain(input, output, n)
		if err != nil {
			t.Fatal(err)
		}
		gains = append(gains, g)
		if g >= 0.5 {
			reached++
		}
	}
	if reached < 8 {
		t.Fatalf("end-to-end gain reached 0.5 on %d of %d seeds: %.2f", reached, seeds, gains)
	}
}

// TestPoolSubscriberStatsOneShard pins per-subscriber accounting and
// decimation on NewPool(c, 1) fed one id at a time, and that Close hands a
// subscriber that kept up every draw: a blocking pool's emitter sheds
// nothing, and a subscription channel keeps what it buffered.
func TestPoolSubscriberStatsOneShard(t *testing.T) {
	const pushes, every = 256, 4
	for seed := uint64(1); seed <= 20; seed++ {
		p, err := NewPool(4, 1, WithSeed(seed), WithSketch(16, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = p.Close() }()
		full, err := p.Subscribe(512)
		if err != nil {
			t.Fatal(err)
		}
		thin, err := p.SubscribeEvery(512, every)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pushes; i++ {
			if err := p.Push(NodeID(i % 9)); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		var st PoolStats
		deadline := time.Now().Add(5 * time.Second)
		for {
			st = p.Stats()
			if st.Subscribers[0].Offered+st.EmitDropped == pushes && st.Subscribers[1].Offered+st.EmitDropped == pushes {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: stats never settled: %+v", seed, st)
			}
			time.Sleep(time.Millisecond)
		}
		if st.Subscribers[0].Every != 1 || st.Subscribers[1].Every != every || st.Subscribers[0].Filtered != 0 {
			t.Fatalf("seed %d: subscriber stats %+v", seed, st.Subscribers)
		}
		if want := uint64(pushes - pushes/every); st.Subscribers[1].Filtered != want {
			t.Fatalf("seed %d: thin subscription filtered %d, want %d", seed, st.Subscribers[1].Filtered, want)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		nFull, nThin := 0, 0
		for range full.C() {
			nFull++
		}
		for range thin.C() {
			nThin++
		}
		if nFull != pushes || nThin != pushes/every {
			t.Fatalf("seed %d: full subscriber received %d of %d, every-%d subscriber %d of %d (emit-dropped %d)",
				seed, nFull, pushes, every, nThin, pushes/every, st.EmitDropped)
		}
	}
}
