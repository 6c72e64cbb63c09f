package shard

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
)

func TestResizeValidationAndNoop(t *testing.T) {
	p := newTestPool(t, 4, 10, 16, 4, true, 8)
	if err := p.Resize(0); err == nil {
		t.Error("Resize(0) should fail")
	}
	if err := p.Resize(MaxShards + 1); err == nil {
		t.Error("Resize beyond MaxShards should fail")
	}
	if err := p.Resize(4); err != nil {
		t.Fatalf("same-size resize: %v", err)
	}
	if got := p.Epoch(); got != 0 {
		t.Fatalf("no-op resize bumped the epoch to %d", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Resize(8); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Resize after close = %v, want ErrPoolClosed", err)
	}
}

// TestResizeGrowPreservesState pins the hand-off contract: across a grow,
// the pooled memory Γ is exactly preserved, processed counters survive, and
// every id's frequency estimate never decreases and stays within the error
// a single global sketch over the same stream would have.
func TestResizeGrowPreservesState(t *testing.T) {
	p := newTestPool(t, 2, 200, 512, 4, true, 16)
	src := rng.New(7)
	const population = 150
	counts := make(map[uint64]int)
	batch := make([]uint64, 512)
	hot := uint64(42)
	for round := 0; round < 20; round++ {
		for i := range batch {
			id := src.Uint64n(population) + 1
			if i%4 == 0 {
				id = hot // a heavy hitter whose estimate must survive
			}
			batch[i] = id
			counts[id]++
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	memBefore := p.Memory()
	estBefore := make(map[uint64]uint64)
	for id := uint64(1); id <= population; id++ {
		estBefore[id] = p.Estimate(id)
	}
	if err := p.Resize(7); err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 7 {
		t.Fatalf("NumShards = %d after grow", p.NumShards())
	}
	if p.Epoch() != 1 {
		t.Fatalf("epoch = %d after one resize", p.Epoch())
	}
	st := p.Stats()
	if len(st.Shards) != 7 || st.Epoch != 1 {
		t.Fatalf("stats = %+v", st)
	}
	var want uint64 = 20 * 512
	if st.Processed != want {
		t.Fatalf("processed %d across resize, want %d", st.Processed, want)
	}
	// Γ is preserved exactly: same multiset (all entries distinct), just
	// differently partitioned.
	memAfter := p.Memory()
	if !sameIDSet(memBefore, memAfter) {
		t.Fatalf("memory changed across grow: %d ids before, %d after", len(memBefore), len(memAfter))
	}
	// Estimates survive the merge: never below the pre-resize estimate
	// (counters only add), never above true count + global-sketch collision
	// slack. With k=512 columns and 150 distinct ids, collisions are rare,
	// so the bound is tight: allow the true count plus a small surplus.
	for id := uint64(1); id <= population; id++ {
		after := p.Estimate(id)
		if after < estBefore[id] {
			t.Fatalf("id %d estimate dropped across resize: %d -> %d", id, estBefore[id], after)
		}
		truth := uint64(counts[id])
		if slack := after - truth; slack > truth/2+50 {
			t.Fatalf("id %d estimate %d far above true count %d after merge", id, after, truth)
		}
	}
	if got := p.Estimate(hot); got < uint64(counts[hot]) {
		t.Fatalf("hot id estimate %d below true count %d", got, counts[hot])
	}
}

// TestResizeShrinkPreservesState mirrors the grow test for the merge-into-
// survivors path.
func TestResizeShrinkPreservesState(t *testing.T) {
	p := newTestPool(t, 6, 200, 512, 4, true, 16)
	src := rng.New(9)
	const population = 120
	batch := make([]uint64, 512)
	for round := 0; round < 15; round++ {
		for i := range batch {
			batch[i] = src.Uint64n(population) + 1
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	memBefore := p.Memory()
	estBefore := make(map[uint64]uint64)
	for id := uint64(1); id <= population; id++ {
		estBefore[id] = p.Estimate(id)
	}
	if err := p.Resize(2); err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 2 {
		t.Fatalf("NumShards = %d after shrink", p.NumShards())
	}
	// Total capacity 2×200 still covers the population, so Γ must be
	// exactly preserved.
	if !sameIDSet(memBefore, p.Memory()) {
		t.Fatal("memory changed across shrink")
	}
	st := p.Stats()
	if want := uint64(15 * 512); st.Processed != want {
		t.Fatalf("processed %d across shrink (retired counters lost?), want %d", st.Processed, want)
	}
	for id := uint64(1); id <= population; id++ {
		if after := p.Estimate(id); after < estBefore[id] {
			t.Fatalf("id %d estimate dropped across shrink: %d -> %d", id, estBefore[id], after)
		}
	}
}

// TestResizeShedsOverflowUniformly shrinks a pool whose total Γ exceeds the
// surviving capacity: the result must keep every shard within capacity and
// retain a subset of the original memory.
func TestResizeShedsOverflowUniformly(t *testing.T) {
	p := newTestPool(t, 8, 20, 64, 4, true, 16)
	batch := make([]uint64, 0, 640)
	for id := uint64(1); id <= 640; id++ {
		batch = append(batch, id)
	}
	for round := 0; round < 5; round++ {
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	before := p.Memory()
	if err := p.Resize(1); err != nil {
		t.Fatal(err)
	}
	after := p.Memory()
	if len(after) != 20 {
		t.Fatalf("single shard holds %d ids, want its capacity 20", len(after))
	}
	beforeSet := make(map[uint64]bool, len(before))
	for _, id := range before {
		beforeSet[id] = true
	}
	for _, id := range after {
		if !beforeSet[id] {
			t.Fatalf("id %d appeared from nowhere during shrink", id)
		}
	}
}

// TestResizeUniformityLive is the acceptance criterion: a resize lands in
// the middle of live ingest, and afterwards Sample must still be uniform
// over the population (the Γ-size-weighted draw over the repartitioned,
// generally unbalanced shards), chi-square tested like
// TestPoolUniformityUnbalancedShards.
func TestResizeUniformityLive(t *testing.T) {
	const (
		popSize = 60
		samples = 120000
	)
	p := newTestPool(t, 3, popSize, 10, 5, true, 16)
	pop := make([]uint64, popSize)
	for i := range pop {
		pop[i] = uint64(i + 1)
	}
	src := rng.New(40)
	pushRounds := func(rounds int) {
		batch := make([]uint64, 512)
		for r := 0; r < rounds; r++ {
			for i := range batch {
				batch[i] = pop[src.Intn(len(pop))]
			}
			if err := p.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up until every shard's Γ holds its whole sub-population, then
	// resize twice (grow, shrink) while a background pusher keeps firing.
	pushRounds(60)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bg := rng.New(42)
		batch := make([]uint64, 512)
		for !stop.Load() {
			for i := range batch {
				batch[i] = pop[bg.Intn(len(pop))]
			}
			if err := p.PushBatch(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if err := p.Resize(8); err != nil {
		t.Fatal(err)
	}
	if err := p.Resize(5); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	// Cool down: re-cover any id a shrink overflow could in principle have
	// shed (total capacity always exceeds the population here, so this is
	// belt and braces), then quiesce.
	pushRounds(30)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 5 || p.Epoch() != 2 {
		t.Fatalf("shards=%d epoch=%d after two live resizes", p.NumShards(), p.Epoch())
	}
	// c = popSize, so after enough traffic every shard's Γ holds exactly
	// its sub-population and the weighted draw must be uniform over ids.
	if got := len(p.Memory()); got != popSize {
		t.Fatalf("pool memory %d, want the whole population %d", got, popSize)
	}
	byID := metrics.NewHistogram()
	for i := 0; i < samples; i++ {
		id, ok := p.Sample()
		if !ok {
			t.Fatal("sample not ok on a warm pool")
		}
		byID.Add(id)
	}
	// df = 59, 99.99th percentile ≈ 104.
	chi, err := byID.ChiSquareUniform(popSize)
	if err != nil {
		t.Fatal(err)
	}
	if chi > 110 {
		t.Fatalf("samples not uniform after live resize: chi2 = %v", chi)
	}
}

// TestResizeRoutingMovesMinimally pins the rendezvous property: growing
// moves ids only onto the new shards, shrinking only off the retired ones.
func TestResizeRoutingMovesMinimally(t *testing.T) {
	p := newTestPool(t, 4, 5, 8, 4, true, 4)
	const ids = 4096
	before := make([]int, ids)
	for id := 0; id < ids; id++ {
		before[id] = p.ShardOf(uint64(id))
	}
	if err := p.Resize(6); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for id := 0; id < ids; id++ {
		s := p.ShardOf(uint64(id))
		if s != before[id] {
			if s < 4 {
				t.Fatalf("id %d moved between surviving shards %d -> %d on grow", id, before[id], s)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("grow moved nothing: new shards own no ids")
	}
	grown := make([]int, ids)
	for id := 0; id < ids; id++ {
		grown[id] = p.ShardOf(uint64(id))
	}
	if err := p.Resize(4); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < ids; id++ {
		s := p.ShardOf(uint64(id))
		if grown[id] < 4 && s != grown[id] {
			t.Fatalf("id %d moved off surviving shard %d -> %d on shrink", id, grown[id], s)
		}
		// Shrinking back to the original key prefix must restore the
		// original routing exactly.
		if s != before[id] {
			t.Fatalf("id %d not back on its original shard after grow+shrink", id)
		}
	}
}

// TestResizeWithDecayAlignsEpochs checks that the resize barrier leaves
// every shard — survivors and newcomers — on the same global decay epoch.
func TestResizeWithDecayAlignsEpochs(t *testing.T) {
	p, err := New(Config{
		Shards: 3, Buffer: 8, Block: true, Seed: 5,
		Capacity: 10, Sampler: kfSampler(16, 4), DecayEvery: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	src := rng.New(3)
	batch := make([]uint64, 250)
	for round := 0; round < 8; round++ { // 2000 ids = 4 epochs
		for i := range batch {
			batch[i] = src.Uint64n(1 << 40)
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Resize(6); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	for i, s := range st.Shards {
		if s.Halvings != 4 {
			t.Fatalf("shard %d halvings = %d after resize, want 4: %+v", i, s.Halvings, st.Shards)
		}
	}
	if _, ok := p.Sample(); !ok {
		t.Fatal("decayed, resized pool cannot sample")
	}
}

// TestResizeRaces fires Resize against concurrent PushBatch, Sample, Stats,
// Flush, Subscribe and finally Close; the race detector plus the
// either-complete-or-ErrPoolClosed contract are the assertions.
func TestResizeRaces(t *testing.T) {
	for round := 0; round < 3; round++ {
		p, err := New(Config{
			Shards: 4, Buffer: 4, Block: false, Seed: uint64(round) + 77,
			Capacity: 10, Sampler: kfSampler(10, 4),
		})
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
				batch := make([]uint64, 64)
				for i := range batch {
					batch[i] = uint64(g*1000 + i)
				}
				for j := 0; j < 40; j++ {
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
				for j := 0; j < 40; j++ {
					p.Sample()
					p.Stats()
					p.Estimate(uint64(j))
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 10; j++ {
					if err := p.Flush(); err != nil {
						if !errors.Is(err, ErrPoolClosed) {
							t.Errorf("Flush: %v", err)
						}
						return
					}
				}
			}()
			go func(g int) {
				defer wg.Done()
				<-start
				for j := 0; j < 6; j++ {
					sub, err := p.Subscribe(16)
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
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			sizes := []int{7, 2, 5, 1, 8}
			for _, n := range sizes {
				if err := p.Resize(n); err != nil {
					if !errors.Is(err, ErrPoolClosed) {
						t.Errorf("Resize: %v", err)
					}
					return
				}
			}
		}()
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

// sameIDSet compares two id slices as sets (both are Γ snapshots, so
// entries are distinct).
func sameIDSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]uint64(nil), a...)
	bs := append([]uint64(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
