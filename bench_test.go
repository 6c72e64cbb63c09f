package nodesampling

// One benchmark per table and figure of the paper's evaluation, each
// regenerating its artifact through the experiment harness (quick-mode
// workloads, 2 trials — run `cmd/unsbench -run all -trials 100` for the
// full paper-scale regeneration), plus micro-benchmarks of the public API's
// hot paths. Run with:
//
//	go test -bench=. -benchmem .

import (
	"testing"

	"nodesampling/internal/experiments"
	"nodesampling/internal/rng"
	"nodesampling/internal/stream"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	_, registry := experiments.Registry()
	runner, ok := registry[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.Config{Trials: 2, Seed: 1, Workers: 4, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		tbl, err := runner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7a(b *testing.B)  { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)  { benchExperiment(b, "fig7b") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkThm4(b *testing.B)   { benchExperiment(b, "thm4") }

func BenchmarkTransient(b *testing.B)       { benchExperiment(b, "transient") }
func BenchmarkAblationMinWise(b *testing.B) { benchExperiment(b, "ablation-minwise") }
func BenchmarkAblationEvict(b *testing.B)   { benchExperiment(b, "ablation-evict") }
func BenchmarkAblationCU(b *testing.B)      { benchExperiment(b, "ablation-cu") }
func BenchmarkAblationChurn(b *testing.B)   { benchExperiment(b, "ablation-churn") }
func BenchmarkGossipOverlay(b *testing.B)   { benchExperiment(b, "gossip") }

// BenchmarkSamplerProcess measures the public knowledge-free sampler's
// per-element cost under the paper's Figure 7 settings (c=10, 10x5 sketch,
// peak-attacked stream over 1000 ids).
func BenchmarkSamplerProcess(b *testing.B) {
	s, err := NewSampler(10, WithSeed(1), WithSketch(10, 5))
	if err != nil {
		b.Fatal(err)
	}
	pmf, err := stream.PeakPMF(1000, 0, 50000, 50)
	if err != nil {
		b.Fatal(err)
	}
	src, err := stream.NewCategorical(pmf, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	ids := stream.Collect(src, 1<<14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(NodeID(ids[i&(1<<14-1)]))
	}
}

// BenchmarkSamplerProcessWideSketch uses the paper's strongest defender
// settings (c=50, 250x17 sketch).
func BenchmarkSamplerProcessWideSketch(b *testing.B) {
	s, err := NewSampler(50, WithSeed(1), WithSketch(250, 17))
	if err != nil {
		b.Fatal(err)
	}
	src, err := stream.NewCategorical(stream.UniformPMF(100000), rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	ids := stream.Collect(src, 1<<14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(NodeID(ids[i&(1<<14-1)]))
	}
}

// BenchmarkPoolPush measures the per-element cost of one sampler behind a
// worker goroutine, NewPool(c, 1), fed one id at a time.
func BenchmarkPoolPush(b *testing.B) {
	p, err := NewPool(10, 1, WithSeed(1), WithSketch(10, 5), WithShardBuffer(1024))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Push(NodeID(i % 1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPoolPushBatch measures the sharded pool's batch-ingest throughput on
// the same workload as BenchmarkPoolPush (ids cycling over 1000, c=10,
// 10x5 sketch per shard), in batches of half the netgossip wire limit — the
// size a daemon actually digests per hand-off. Small sub-batches are the
// sharding tax: each shard wakes per batch, so the batch size is what
// amortises the scheduler, not just the channel.
func benchPoolPushBatch(b *testing.B, shards int) {
	p, err := NewPool(10, shards, WithSeed(1), WithSketch(10, 5), WithShardBuffer(64))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	const batchSize = 2048
	batch := make([]NodeID, batchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		for j := range batch {
			batch[j] = NodeID((i + j) % 1000)
		}
		if err := p.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPoolPushBatch1(b *testing.B) { benchPoolPushBatch(b, 1) }
func BenchmarkPoolPushBatch4(b *testing.B) { benchPoolPushBatch(b, 4) }
func BenchmarkPoolPushBatch8(b *testing.B) { benchPoolPushBatch(b, 8) }

// benchPoolSubscribeFanout measures ingest throughput with the streaming
// output plane live: subs subscribers (each drained by its own goroutine)
// receive σ′ while the producer pushes batches. subs = 0 is the baseline —
// emission gated off, the draw-free fast path. The per-id cost difference
// against the baseline is the full price of generating, fanning out and
// delivering the output stream.
func benchPoolSubscribeFanout(b *testing.B, subs int) {
	p, err := NewPool(10, 4, WithSeed(1), WithSketch(10, 5), WithShardBuffer(64))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	for i := 0; i < subs; i++ {
		sub, err := p.Subscribe(4096)
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			for range sub.C() {
			}
		}()
	}
	const batchSize = 2048
	batch := make([]NodeID, batchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		for j := range batch {
			batch[j] = NodeID((i + j) % 1000)
		}
		if err := p.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPoolSubscribeFanout0(b *testing.B)  { benchPoolSubscribeFanout(b, 0) }
func BenchmarkPoolSubscribeFanout1(b *testing.B)  { benchPoolSubscribeFanout(b, 1) }
func BenchmarkPoolSubscribeFanout4(b *testing.B)  { benchPoolSubscribeFanout(b, 4) }
func BenchmarkPoolSubscribeFanout16(b *testing.B) { benchPoolSubscribeFanout(b, 16) }

// BenchmarkPoolResize measures the full hand-off latency of one live
// resize — flush barrier, Γ re-partition, sketch merge, worker restart —
// on a warm pool alternating between 4 and 8 shards.
func BenchmarkPoolResize(b *testing.B) {
	p, err := NewPool(25, 4, WithSeed(1), WithSketch(50, 10), WithShardBuffer(64))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	batch := make([]NodeID, 2048)
	for i := range batch {
		batch[i] = NodeID(i%1000 + 1)
	}
	for r := 0; r < 16; r++ {
		if err := p.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 8
		if i%2 == 1 {
			n = 4
		}
		if err := p.Resize(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolPushBatchResized is BenchmarkPoolPushBatch8 on a pool that
// reached 8 shards through a live resize instead of construction — the
// post-resize ns/id, pinning that the elastic plane leaves no lasting tax
// on the hot path.
func BenchmarkPoolPushBatchResized(b *testing.B) {
	p, err := NewPool(10, 4, WithSeed(1), WithSketch(10, 5), WithShardBuffer(64))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	if err := p.Resize(8); err != nil {
		b.Fatal(err)
	}
	const batchSize = 2048
	batch := make([]NodeID, batchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		for j := range batch {
			batch[j] = NodeID((i + j) % 1000)
		}
		if err := p.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPoolSnapshot measures serialising a warm 8-shard pool (the cost
// a daemon pays per -snapshot-interval tick).
func BenchmarkPoolSnapshot(b *testing.B) {
	p, err := NewPool(25, 8, WithSeed(1), WithSketch(50, 10), WithShardBuffer(64))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	batch := make([]NodeID, 2048)
	for i := range batch {
		batch[i] = NodeID(i%1000 + 1)
	}
	for r := 0; r < 16; r++ {
		if err := p.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolSample measures sample reads against a live NewPool(c, 1)
// fed one id at a time.
func BenchmarkPoolSample(b *testing.B) {
	p, err := NewPool(10, 1, WithSeed(1), WithSketch(10, 5), WithShardBuffer(1024))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	for i := 0; i < 10000; i++ {
		if err := p.Push(NodeID(i % 500)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.Sample()
	}
}

// BenchmarkHashID measures the SHA-1 id derivation.
func BenchmarkHashID(b *testing.B) {
	data := []byte("node-042.rack-7.dc-eu-west.example.com:7946")
	var sink NodeID
	for i := 0; i < b.N; i++ {
		sink ^= HashID(data)
	}
	_ = sink
}
