package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"nodesampling"
	"nodesampling/internal/autoscale"
	"nodesampling/internal/cms"
	"nodesampling/internal/core"
	"nodesampling/internal/rng"
	"nodesampling/internal/shard"
	"nodesampling/internal/telemetry"
)

// The -perf mode measures the service plane's hot paths with the standard
// benchmark machinery and emits one machine-readable JSON document, so the
// repository can commit a perf trajectory (BENCH_<pr>.json) instead of
// numbers pasted into prose. The benchmark bodies mirror the root package's
// bench_test.go so the two surfaces measure the same thing.

// perfBench is one measured hot path.
type perfBench struct {
	Name        string  `json:"name"`
	Unit        string  `json:"unit"` // what one op is: "ns/id" or "ns/op"
	NsPerOp     float64 `json:"ns_per_op"`
	Iterations  int     `json:"iterations"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// perfReport is the BENCH_<pr>.json document. HistogramFamilies records
// which latency histogram families were compiled into the measured build:
// the perf numbers are taken with the full observability plane in place, so
// the artifact carries its provenance.
type perfReport struct {
	Schema            string      `json:"schema"`
	GoVersion         string      `json:"go_version"`
	GOMAXPROCS        int         `json:"gomaxprocs"`
	Generated         string      `json:"generated"`
	Runs              int         `json:"runs_per_benchmark,omitempty"`
	HistogramFamilies []string    `json:"histogram_families"`
	Benchmarks        []perfBench `json:"benchmarks"`
}

// perfSuite names the hot paths the perf artifact tracks.
var perfSuite = []struct {
	name string
	unit string
	fn   func(*testing.B)
}{
	{"PoolPushBatch/shards=1", "ns/id", func(b *testing.B) { perfPoolPushBatch(b, 1) }},
	{"PoolPushBatch/shards=4", "ns/id", func(b *testing.B) { perfPoolPushBatch(b, 4) }},
	{"PoolPushBatch/shards=8", "ns/id", func(b *testing.B) { perfPoolPushBatch(b, 8) }},
	{"PoolSubscribeFanout/subs=0", "ns/id", func(b *testing.B) { perfPoolFanout(b, 0) }},
	{"PoolSubscribeFanout/subs=1", "ns/id", func(b *testing.B) { perfPoolFanout(b, 1) }},
	{"PoolSubscribeFanout/subs=4", "ns/id", func(b *testing.B) { perfPoolFanout(b, 4) }},
	{"PoolSubscribeFanout/subs=16", "ns/id", func(b *testing.B) { perfPoolFanout(b, 16) }},
	{"ControllerTick", "ns/op", perfControllerTick},
	{"SketchAddEstimate/fused", "ns/op", perfSketchAdd},
	{"SketchAddEstimate/k50s10", "ns/op", func(b *testing.B) { perfDaemonPoint(b, "sketch", false) }},
	{"SketchAddEstimate/k50s10-flood", "ns/op", func(b *testing.B) { perfDaemonPoint(b, "sketch", true) }},
	{"KnowledgeFreeProcessBatch/c25k50s10", "ns/id", func(b *testing.B) { perfDaemonPoint(b, "sampler", false) }},
	{"KnowledgeFreeProcessBatch/c25k50s10-flood", "ns/id", func(b *testing.B) { perfDaemonPoint(b, "sampler", true) }},
	{"UniformityProbeOffer", "ns/id", func(b *testing.B) { perfDaemonPoint(b, "probe", false) }},
}

// perfSink defeats dead-code elimination of the measured loops' results.
var perfSink uint64

// perfSketchAdd measures the fused Count-Min update (one premix + bulk
// column pass).
func perfSketchAdd(b *testing.B) {
	sk, err := cms.NewWithDimensions(1024, 5, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	var s uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s += sk.AddEstimate(uint64(i) & 4095)
	}
	perfSink += s
}

// perfDaemonPoint measures one layer of the per-id step at the daemon's
// operating point — unsd's default -c 25 -k 50 -s 10 and 4096-id uniformity
// window decimated 1-in-8, fed 1024-id batches uniform over 100 000 ids, as
// benchmark/'s ingest_saturate feeds them — so this artifact and the
// socket-to-socket benchmark price the same step. With flood set, 80 % of
// the ids are one victim and the rest uniform over 4 096, the paper's
// targeted attack as benchmark/'s sigma_fanout feeds it: back-to-back
// repeats of one id, which a uniform input almost never has.
func perfDaemonPoint(b *testing.B, layer string, flood bool) {
	sk, err := cms.NewWithDimensions(50, 10, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	kf, err := core.NewKnowledgeFree(25, 50, 10, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	probe := telemetry.NewProbe(4096, 8)
	r := rng.New(13)
	batches := make([][]uint64, 64)
	for i := range batches {
		batches[i] = make([]uint64, 1024)
		for j := range batches[i] {
			switch {
			case !flood:
				batches[i][j] = r.Uint64n(100000)
			case r.Float64() < 0.8:
				batches[i][j] = 0 // the victim
			default:
				batches[i][j] = r.Uint64n(4096)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += 1024 {
		ids := batches[(i>>10)&63]
		switch layer {
		case "sketch":
			for _, id := range ids {
				perfSink += sk.AddEstimate(id)
			}
		case "sampler": // sketch + Γ membership + admission, as a shard worker runs it
			kf.ProcessBatch(ids)
		case "probe": // the gauge's input window, on the connection goroutine
			probe.Offer(ids)
		}
	}
}

// runPerf measures every suite entry whose name contains filter ("" keeps
// all) and writes the JSON document to outPath ("-" or "" writes to w).
// Each benchmark is run `runs` times and the fastest run is recorded: the
// benchmarks that involve goroutine hand-off (queue round-trips, live
// subscribers) are scheduling-sensitive on a single-CPU runner, and the
// minimum over a few runs strips the scheduler noise a mean would keep —
// what the artifact should pin is the cost of the code, not of the day's
// preemption pattern. The rule is applied uniformly to every benchmark and
// the run count is recorded in the artifact.
func runPerf(w io.Writer, outPath, filter string, runs int) error {
	if runs < 1 {
		runs = 1
	}
	report := perfReport{
		Schema:            "unsbench-perf/v1",
		GoVersion:         runtime.Version(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Generated:         time.Now().UTC().Format(time.RFC3339),
		Runs:              runs,
		HistogramFamilies: telemetry.LatencyFamilyNames(),
	}
	for _, bench := range perfSuite {
		if filter != "" && !strings.Contains(bench.name, filter) {
			continue
		}
		start := time.Now()
		res := testing.Benchmark(bench.fn)
		if res.N == 0 {
			return fmt.Errorf("perf: %s did not run", bench.name)
		}
		for r := 1; r < runs; r++ {
			again := testing.Benchmark(bench.fn)
			if again.N == 0 {
				return fmt.Errorf("perf: %s did not run", bench.name)
			}
			if float64(again.T.Nanoseconds())/float64(again.N) <
				float64(res.T.Nanoseconds())/float64(res.N) {
				res = again
			}
		}
		report.Benchmarks = append(report.Benchmarks, perfBench{
			Name:        bench.name,
			Unit:        bench.unit,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			Iterations:  res.N,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "perf: %-28s %10.1f %s (%d iterations, %.1fs)\n",
			bench.name, report.Benchmarks[len(report.Benchmarks)-1].NsPerOp,
			bench.unit, res.N, time.Since(start).Seconds())
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("perf: filter %q matched no benchmarks", filter)
	}
	out := w
	if outPath != "" && outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// perfPoolPushBatch mirrors bench_test.go's benchPoolPushBatch: batch
// ingest of ids cycling over 1000, c=10, 10x5 sketch per shard, in
// 2048-id sub-batches. b.N counts ids, so ns/op is ns/id.
func perfPoolPushBatch(b *testing.B, shards int) {
	p, err := nodesampling.NewPool(10, shards,
		nodesampling.WithSeed(1), nodesampling.WithSketch(10, 5), nodesampling.WithShardBuffer(64))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	const batchSize = 2048
	batch := make([]nodesampling.NodeID, batchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		for j := range batch {
			batch[j] = nodesampling.NodeID((i + j) % 1000)
		}
		if err := p.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		b.Fatal(err)
	}
}

// perfPoolFanout mirrors benchPoolSubscribeFanout: ingest with subs live
// subscribers draining σ′.
func perfPoolFanout(b *testing.B, subs int) {
	p, err := nodesampling.NewPool(10, 4,
		nodesampling.WithSeed(1), nodesampling.WithSketch(10, 5), nodesampling.WithShardBuffer(64))
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
	batch := make([]nodesampling.NodeID, batchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		for j := range batch {
			batch[j] = nodesampling.NodeID((i + j) % 1000)
		}
		if err := p.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		b.Fatal(err)
	}
}

// staticTarget serves fixed load signals without locks, isolating the
// controller's decision path (mirrors internal/autoscale's benchmark).
type staticTarget struct{ sig shard.LoadSignals }

func (s *staticTarget) LoadSignals() shard.LoadSignals { return s.sig }
func (s *staticTarget) Resize(int) error               { return nil }

// perfControllerTick measures one autoscale control evaluation on a held
// plane: signal condensation, EWMA update, decision.
func perfControllerTick(b *testing.B) {
	target := &staticTarget{sig: shard.LoadSignals{
		Shards: 8, QueueCap: 8 * 64, QueueLen: 96,
		Processed: 1 << 30, Dropped: 1 << 10,
	}}
	c, err := autoscale.New(target, autoscale.Config{
		Min: 1, Max: 64, Enabled: true,
		Alpha: 0.3, GrowThreshold: 0.6, ShrinkThreshold: 0.01,
		Interval: time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Second)
		c.Tick(now)
	}
}
