package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// This file is the benchmark's single table of truth: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root is generated from it
// (-write-spec) and a test keeps the two in step.

// Run shape. The driver allows 4 + 22 x 4 runs in 3420 s, which leaves about
// 30 s of wall clock per run: a 20 s window in five 4 s slices, not the 30 s
// in five 6 s slices the issue sized first (its own fallback rule).
const (
	runSeconds   = 20
	windowSlices = 5
	warmup       = 2 * time.Second
	setupCycles  = 7 // spawn-to-ready cycles per run; setup_s is their median
	sampleN      = 16
	daemonSeed   = 7 // every daemon's -seed; fleet members must share it
)

// Frozen offered rates. Each is at most half of what the 2-core reference
// box sustained on that workload (README, "Calibration").
const (
	sigmaFanoutRate = 1000000 // ids/s
	gossipMixRate   = 200000  // ids/s, in 16-id frames
	fleetMixedRate  = 600000  // ids/s
	fleetSampleRate = 1000    // Sample(16)/s, cluster-wide
	referenceRate   = 100000  // ids/s, the idle reference service
	referenceSample = 500     // Sample(16)/s, the idle reference service
)

// dist names how a workload's ids are drawn.
type dist int

const (
	uniform dist = iota // uniform over the population
	flood               // the paper's targeted flood: one victim id is 80 % of the stream
)

// pushSpec is the traffic on connection A.
type pushSpec struct {
	rate     int // ids/s; 0 = closed loop, unpaced
	frame    int // ids per PushBatch frame
	dist     dist
	pop      int // population size
	ackEvery int // a Ping follows one frame in ackEvery; 0 = never
	target   int // daemon index connection A dials
}

// subSpec is one sigma-prime subscription.
type subSpec struct {
	conn  int // 0 = connection A, 1 = connection B
	every int // decimation interval
}

// sampleSpec is the Sample(16) traffic on connection B.
type sampleSpec struct {
	off    bool // no Sample traffic
	rate   int  // calls/s; 0 = closed loop, back to back
	target int  // daemon index connection B dials
}

type workload struct {
	Name    string
	Why     string
	daemons int // 1 = standalone, 3 = -cluster fleet
	shards  int
	push    pushSpec
	subs    []subSpec
	sample  sampleSpec
	// fromReference names the end-to-end metrics this workload's own load
	// cannot exercise without failing operations; the run reports the
	// reference service's value for them (see reference).
	fromReference []string
}

// reference is not a workload of its own. The driver wants every end-to-end
// metric from every workload, but a subscriber beside a saturating or
// small-frame pusher loses draws at the pool's emit buffer (80 % and 0.7 % of
// them on the reference box), a workload may not fail operations, and a
// Sample caller sharing a connection with a million sigma-prime ids a second
// measures that stream's queueing more than the daemon (spread 28 %). Such a
// workload keeps its own load pure and, for the metrics that load cannot
// carry, reports this: the same metric on a fresh, otherwise idle daemon at a
// low fixed rate — the floor the loaded workloads' values are read against.
//
// Every daemon of every workload runs -block. A benchmark workload may not
// fail operations, and a non-blocking shard ring (64 batches) drops ids
// whenever frames arrive in a burst — after any stall of the box, of the
// generator or of the daemon — which on a shared host no rate is low enough
// to rule out: two sets of runs of one commit disagreed on whether ids were
// lost. With -block the same squeeze shows as push-ack latency.
var reference = workload{
	Name:    "reference",
	daemons: 1, shards: 4,
	push:   pushSpec{rate: referenceRate, frame: 256, dist: uniform, pop: 100000, ackEvery: 1},
	subs:   []subSpec{{conn: 0, every: 1}},
	sample: sampleSpec{rate: referenceSample},
}

var sigmaMetrics = []string{"sigma_lag_us_p50", "sigma_ids_per_s"}

var workloads = []workload{
	{
		Name:    "ingest_saturate",
		Why:     "closed-loop unpaced 1024-id frames into 4 blocking shards: capacity of decode, partition, ring, sketch, admission; hub, emit and cluster idle",
		daemons: 1, shards: 4,
		push:          pushSpec{rate: 0, frame: 1024, dist: uniform, pop: 100000},
		sample:        sampleSpec{off: true},
		fromReference: append([]string{"push_ack_us_p50", "sample_rtt_us_p50"}, sigmaMetrics...),
	},
	{
		Name:    "sigma_fanout",
		Why:     "open loop 1000000 ids/s of the paper's targeted flood with two full-rate sigma-prime subscribers: emit, hub fan-out, StreamData encode and socket writes dominate; one hot shard",
		daemons: 1, shards: 4,
		push:          pushSpec{rate: sigmaFanoutRate, frame: 1024, dist: flood, pop: 4096, ackEvery: 4},
		subs:          []subSpec{{conn: 0, every: 1}, {conn: 1, every: 1}},
		sample:        sampleSpec{off: true},
		fromReference: []string{"sample_rtt_us_p50"},
	},
	{
		Name:    "gossip_mix",
		Why:     "open loop 200000 ids/s in 16-id frames beside closed-loop Sample(16): a gossip node's traffic, per-frame and per-call overhead and reads contending with writes, little sketch work",
		daemons: 1, shards: 4,
		push:          pushSpec{rate: gossipMixRate, frame: 16, dist: uniform, pop: 100000, ackEvery: 8},
		sample:        sampleSpec{rate: 0},
		fromReference: sigmaMetrics,
	},
	{
		Name:    "fleet_mixed",
		Why:     "3-member fleet: open loop 600000 ids/s into member 0 (2/3 forwarded), 1000 cluster-wide Sample(16)/s and a subscriber on member 1: the only workload running partition, forward, member RPC and merge",
		daemons: 3, shards: 2,
		push:   pushSpec{rate: fleetMixedRate, frame: 1024, dist: uniform, pop: 100000, ackEvery: 2, target: 0},
		subs:   []subSpec{{conn: 1, every: 1}},
		sample: sampleSpec{rate: fleetSampleRate, target: 1},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// e2eMetric is an end-to-end metric: something a user of the service sees.
// Bound is the share of the parent's median by which it may worsen.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a per-layer metric: printed by the traced run, never gated.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// Bounds are what the reference box can resolve, not what one would wish:
// each is about three times the spread (interquartile range over median of
// ten runs on ten seeds) of the metric's noisiest workload, capped at the
// driver's 25 %. The issue's 5 and 10 % would reject the same commit twice,
// except on sigma_ids_per_s, which a fixed offered rate pins.
var endToEnd = []e2eMetric{
	{"setup_s", "s", lower, 0.25},
	{"ingest_ids_per_s", "ids/s", higher, 0.20},
	{"daemon_cpu_ns_per_id", "ns/id", lower, 0.25},
	{"daemon_rss_mib", "MiB", lower, 0.20},
	{"push_ack_us_p50", "us", lower, 0.25},
	{"sample_rtt_us_p50", "us", lower, 0.25},
	{"sigma_lag_us_p50", "us", lower, 0.25},
	{"sigma_ids_per_s", "ids/s", higher, 0.05},
}

var perLayer = []layerMetric{
	{"fail_share", "share", lower},

	{"netgossip.decode_ns_per_id", "ns/id", lower},
	{"netgossip.encode_ns_per_id", "ns/id", lower},
	{"netgossip.decode_ns_per_frame_small", "ns/frame", lower},
	{"netgossip.allocs_per_frame", "count", lower},

	{"cms.add_estimate_ns_per_id", "ns/id", lower},

	{"core.process_ns_per_id", "ns/id", lower},
	{"core.admit_ns_per_id", "ns/id", lower},
	{"core.process_emit_ns_per_id", "ns/id", lower},
	{"core.sample_n16_ns", "ns", lower},

	{"shard.pushbatch_ns_per_id", "ns/id", lower},
	{"shard.pushbatch_ns_per_id_p1", "ns/id", lower},
	{"shard.handoff_ns_per_id", "ns/id", lower},
	{"shard.pushbatch_small_ns_per_batch", "ns/batch", lower},
	{"shard.sample_n16_ns", "ns", lower},
	{"shard.sample_n16_contended_ns", "ns", lower},
	{"shard.skew_max_share", "share", lower},
	{"shard.queue_max_depth_batches", "batches", lower},
	{"shard.dropped_ids", "ids", lower},
	{"shard.snapshot_ms", "ms", lower},
	{"shard.snapshot_bytes", "bytes", lower},
	{"shard.export_import_ms", "ms", lower},

	{"subhub.publish_ns_per_id_sub1", "ns/id", lower},
	{"subhub.publish_ns_per_id_sub2", "ns/id", lower},
	{"subhub.publish_ns_per_id_sub16", "ns/id", lower},
	{"subhub.per_sub_ns_per_id", "ns/id", lower},
	{"subhub.dropped_share", "share", lower},
	{"subhub.queue_depth_ids", "ids", lower},

	{"cluster.partition_ns_per_id", "ns/id", lower},
	{"cluster.forwarded_share", "share", higher},
	{"cluster.fallback_share", "share", lower},
	{"cluster.sample_member_miss_share", "share", lower},
	{"cluster.sample_local_us_p50", "us", lower},
	{"cluster.sample_overhead_us", "us", lower},
	{"cluster.migration_blob_bytes", "bytes", lower},
	{"cluster.migration_codec_ms", "ms", lower},

	{"client.push_ns_per_id", "ns/id", lower},
	{"client.allocs_per_push", "count", lower},
	{"client.cpu_ns_per_id", "ns/id", lower},
	{"client.stream_dropped_ids", "ids", lower},
	// The three p99 latencies of the issue. None repeated within a tenth
	// between two sets of ten runs of one commit on the reference box
	// (spreads of 11 to 49 %), so by the issue's own rule they are reported
	// here, under their names, and not gated.
	{"client.push_ack_us_p99", "us", lower},
	{"client.sample_rtt_us_p99", "us", lower},
	{"client.sigma_lag_us_p99", "us", lower},
	// Completed Sample calls per second, the issue's samples_per_s. It is the
	// offered rate wherever the calls are paced, and on gossip_mix, whose one
	// closed-loop caller makes it the reciprocal of the mean round trip, it
	// spread 29 % over ten runs of one commit: sample_rtt_us_p50 is the gated
	// reading of the same thing.
	{"client.samples_per_s", "1/s", higher},

	{"unsd.cpu_cores", "cores", lower},
	{"unsd.ingest_batch_us_p50", "us", lower},
	{"unsd.ingest_batch_us_p99", "us", lower},
	{"unsd.sample_us_p50", "us", lower},
	{"unsd.emit_delivery_lag_us_p50", "us", lower},
	{"unsd.emit_delivery_lag_us_p99", "us", lower},
	{"unsd.unaccounted_ns_per_id", "ns/id", lower},
	{"unsd.unaccounted_fanout_ns_per_id", "ns/id", lower},
	{"unsd.output_kl", "nats", lower},
	{"unsd.g_kl", "share", higher},

	{"benchmark.sched_late_us_p99", "us", lower},
	{"benchmark.trace_overhead_share", "share", lower},
	{"benchmark.build_s", "s", lower},
}

// benchmarkFile is BENCHMARK.json, exactly the keys the driver reads.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []e2eMetric   `json:"end_to_end"`
	PerLayer   []layerMetric `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func specFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDoc{w.Name, w.Why})
	}
	return f
}

// writeSpec writes BENCHMARK.json from the tables above.
func writeSpec(path string) error {
	b, err := json.MarshalIndent(specFile(), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
