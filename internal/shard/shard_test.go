package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nodesampling/internal/core"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
)

// kfSampler returns the default (knowledge-free) strategy's factory for a
// k×s sketch, resolved through the registry like every production pool's.
func kfSampler(k, s int) core.SamplerFactory {
	f, err := core.NewFactory(core.DefaultStrategy, core.StrategyParams{K: k, S: s})
	if err != nil {
		panic(err)
	}
	return f
}

func testConfig(shards, c, k, s int, block bool, buffer int) Config {
	return Config{
		Shards:   shards,
		Buffer:   buffer,
		Block:    block,
		Seed:     uint64(shards)*1000 + 7,
		Capacity: c,
		Sampler:  kfSampler(k, s),
	}
}

func newTestPool(t *testing.T, shards, c, k, s int, block bool, buffer int) *Pool {
	t.Helper()
	p, err := New(testConfig(shards, c, k, s, block, buffer))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func TestConfigValidation(t *testing.T) {
	mk := kfSampler(8, 4)
	bad := []Config{
		{Shards: 0, Capacity: 5, Sampler: mk},
		{Shards: MaxShards + 1, Capacity: 5, Sampler: mk},
		{Shards: 2, Buffer: -1, Capacity: 5, Sampler: mk},
		{Shards: 2, Capacity: 0, Sampler: mk},
		{Shards: 2, Capacity: 5},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	// A failing sampler constructor must propagate without leaking workers
	// (run under -race / goroutine-leak checks).
	_, err := New(Config{Shards: 3, Capacity: 5, Sampler: core.SamplerFactory{
		Name: "boom",
		New: func(int, *rng.Xoshiro) (core.PoolSampler, error) {
			return nil, errors.New("boom")
		},
	}})
	if err == nil {
		t.Fatal("failing sampler constructor should propagate")
	}
}

func TestShardOfIsStableAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8} {
		p := newTestPool(t, n, 5, 8, 4, true, 4)
		for id := uint64(0); id < 1000; id++ {
			s := p.ShardOf(id)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d) = %d out of range for %d shards", id, s, n)
			}
			if s != p.ShardOf(id) {
				t.Fatalf("ShardOf not stable for id %d", id)
			}
		}
	}
}

// TestShardPartitionIsSalted pins the defence against targeted shard
// flooding: two pools with different seeds must not agree on the partition,
// so an adversary cannot precompute which ids share a shard.
func TestShardPartitionIsSalted(t *testing.T) {
	mk := func(seed uint64) *Pool {
		p, err := New(Config{
			Shards: 8, Buffer: 4, Block: true, Seed: seed,
			Capacity: 5, Sampler: kfSampler(8, 4),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	a, b := mk(1), mk(2)
	differ := 0
	for id := uint64(0); id < 1000; id++ {
		if a.ShardOf(id) != b.ShardOf(id) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("partitions of differently seeded pools are identical: no salt")
	}
}

// balancedPopulation returns per ids per shard of p, so that the sample
// distribution is expected uniform both across ids and across shards and
// the chi-square tests below are sharp.
func balancedPopulation(p *Pool, shards, per int) []uint64 {
	pop := make([]uint64, 0, shards*per)
	fill := make([]int, shards)
	for id := uint64(1); len(pop) < shards*per; id++ {
		s := p.ShardOf(id)
		if fill[s] < per {
			fill[s]++
			pop = append(pop, id)
		}
	}
	return pop
}

// TestPoolUniformity is the uniformity smoke test of the acceptance
// criteria: ≥100k samples, chi-square both across shards and across ids,
// with the same style of tolerance as the existing sampling tests (a
// far-tail percentile of the chi-square law with the matching df).
func TestPoolUniformity(t *testing.T) {
	const (
		shards  = 8
		perSh   = 16 // population 128, each shard's c covers its slice
		samples = 120000
	)
	p := newTestPool(t, shards, perSh, 10, 5, true, 16)
	pop := balancedPopulation(p, shards, perSh)
	// Feed a uniform stream long enough for every shard's Γ to fill with
	// its whole sub-population (c = per-shard population size, so the
	// stationary state is Γ_i = pop_i exactly).
	src := rng.New(99)
	batch := make([]uint64, 512)
	for round := 0; round < 200; round++ {
		for i := range batch {
			batch[i] = pop[src.Intn(len(pop))]
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Memory()); got != shards*perSh {
		t.Fatalf("pool memory %d, want full %d", got, shards*perSh)
	}

	byID := metrics.NewHistogram()
	byShard := metrics.NewHistogram()
	for i := 0; i < samples; i++ {
		id, ok := p.Sample()
		if !ok {
			t.Fatal("sample not ok on a warm pool")
		}
		byID.Add(id)
		byShard.Add(uint64(p.ShardOf(id)))
	}
	// Across shards: df = 7, 99.99th percentile ≈ 29.9.
	chi, err := byShard.ChiSquareUniform(shards)
	if err != nil {
		t.Fatal(err)
	}
	if chi > 35 {
		t.Fatalf("samples not uniform across shards: chi2 = %v", chi)
	}
	// Across ids: df = 127, 99.99th percentile ≈ 181.
	chi, err = byID.ChiSquareUniform(len(pop))
	if err != nil {
		t.Fatal(err)
	}
	if chi > 190 {
		t.Fatalf("samples not uniform across ids: chi2 = %v", chi)
	}
}

// TestPoolUniformityUnbalancedShards pins the Γ-size-weighted shard draw:
// when the hash splits a small population unevenly, samples must still be
// uniform over the ids (a uniform shard draw would over-sample every id in
// an under-filled shard).
func TestPoolUniformityUnbalancedShards(t *testing.T) {
	const (
		shards  = 4
		popSize = 60 // c covers any shard's share, so Γ_i = pop_i exactly
		samples = 120000
	)
	p := newTestPool(t, shards, popSize, 10, 5, true, 16)
	pop := make([]uint64, popSize)
	for i := range pop {
		pop[i] = uint64(i + 1)
	}
	src := rng.New(41)
	batch := make([]uint64, 512)
	for round := 0; round < 120; round++ {
		for i := range batch {
			batch[i] = pop[src.Intn(len(pop))]
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// The random split of 60 ids over 4 shards is essentially never even;
	// skip the (astronomically unlikely) balanced draw rather than pass
	// vacuously.
	sizes := make(map[int]int)
	for _, id := range pop {
		sizes[p.ShardOf(id)]++
	}
	unbalanced := false
	for _, c := range sizes {
		if c != popSize/shards {
			unbalanced = true
		}
	}
	if !unbalanced {
		t.Skip("hash split this population evenly; nothing to test")
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
		t.Fatalf("samples not uniform over an unbalanced partition: chi2 = %v (shard loads %v)", chi, sizes)
	}
}

// TestConcurrentPushAndSample exercises the pool from 8 producer and 4
// consumer goroutines; run under -race this is the acceptance criterion's
// data-race check.
func TestConcurrentPushAndSample(t *testing.T) {
	p := newTestPool(t, 4, 10, 10, 5, true, 8)
	const (
		producers = 8
		consumers = 4
		batches   = 50
	)
	var prodWG, consWG sync.WaitGroup
	for g := 0; g < producers; g++ {
		prodWG.Add(1)
		go func(g int) {
			defer prodWG.Done()
			src := rng.New(uint64(g) + 1)
			batch := make([]uint64, 128)
			for b := 0; b < batches; b++ {
				for i := range batch {
					batch[i] = src.Uint64n(2000)
				}
				if err := p.PushBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	for g := 0; g < consumers; g++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Sample()
				p.Memory()
				p.Stats()
			}
		}()
	}
	prodWG.Wait()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	consWG.Wait()
	st := p.Stats()
	if want := uint64(producers * batches * 128); st.Processed != want {
		t.Fatalf("processed %d, want %d (blocking pool must not lose ids)", st.Processed, want)
	}
	if st.Dropped != 0 {
		t.Fatalf("blocking pool dropped %d ids", st.Dropped)
	}
}

func TestDropPolicyCountsPerShard(t *testing.T) {
	// One shard, unbuffered queue, drop policy: once the worker is busy
	// digesting a large batch, follow-up pushes find the queue full.
	p := newTestPool(t, 1, 10, 200, 8, false, 0)
	big := make([]uint64, 4096)
	for i := range big {
		big[i] = uint64(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for a drop under the drop policy")
		}
		if err := p.PushBatch(big); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if len(st.Shards) != 1 || st.Shards[0].Dropped != st.Dropped {
		t.Fatalf("per-shard drop accounting inconsistent: %+v", st)
	}
	if st.Dropped%uint64(len(big)) != 0 {
		t.Fatalf("drops must be whole sub-batches, got %d", st.Dropped)
	}
}

func TestFlushObservesPriorPushes(t *testing.T) {
	p := newTestPool(t, 4, 10, 10, 5, true, 64)
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := p.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Processed != 1000 {
		t.Fatalf("processed %d after flush, want 1000", st.Processed)
	}
}

func TestEmptyAndSingleShard(t *testing.T) {
	p := newTestPool(t, 3, 5, 8, 4, true, 4)
	if _, ok := p.Sample(); ok {
		t.Fatal("sample ok on an empty pool")
	}
	if got := p.SampleN(5); len(got) != 0 {
		t.Fatalf("SampleN on empty pool = %v", got)
	}
	if err := p.PushBatch(nil); err != nil {
		t.Fatal("empty batch should be a no-op")
	}
	if err := p.Push(42); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if id, ok := p.Sample(); !ok || id != 42 {
		t.Fatalf("sample = (%d, %v), want the only id 42", id, ok)
	}
	if got := p.SampleN(3); len(got) != 3 {
		t.Fatalf("SampleN = %v, want 3 copies of the only id", got)
	}
}

func TestCloseLifecycle(t *testing.T) {
	p := newTestPool(t, 2, 5, 8, 4, true, 4)
	if err := p.Push(7); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := p.Push(8); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Push after close = %v, want ErrPoolClosed", err)
	}
	if err := p.PushBatch([]uint64{9}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("PushBatch after close = %v, want ErrPoolClosed", err)
	}
	if err := p.Flush(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Flush after close = %v, want ErrPoolClosed", err)
	}
	// Ids enqueued before Close were drained by the workers.
	if st := p.Stats(); st.Processed != 1 {
		t.Fatalf("processed %d, want the pre-close id", st.Processed)
	}
	// Sampling a closed pool still answers from the frozen memories.
	if id, ok := p.Sample(); !ok || id != 7 {
		t.Fatalf("sample after close = (%d, %v)", id, ok)
	}
}

// TestSampleNFixedSeedGolden pins SampleN under a fixed seed to the ids it
// returned before the Γ-weighted draw moved into rng.Quotas: the shard
// quotas must consume the pool's generator exactly as the inline loop did
// (one Uint64n(total) per draw), or every seeded consumer's output shifts.
// 23 ids leave the four memories unequally full (5, 8, 6, 4), so the
// weights matter.
func TestSampleNFixedSeedGolden(t *testing.T) {
	p := newTestPool(t, 4, 10, 16, 4, true, 16)
	ids := make([]uint64, 23)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := p.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	want := [][]uint64{
		{0, 0, 2, 19, 1, 6, 12, 12, 3, 11, 14, 7},
		{10, 19, 8, 21, 1, 15, 18, 12, 3, 15, 14, 14},
	}
	for call, w := range want {
		got := p.SampleN(len(w))
		if len(got) != len(w) {
			t.Fatalf("call %d: SampleN returned %d ids, want %d", call, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("call %d: SampleN = %v, want %v", call, got, w)
			}
		}
	}
}
