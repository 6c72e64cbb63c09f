package main

// The daemon's observability surface: the /metrics endpoint (Prometheus
// text format v0.0.4, internal/telemetry), the pool and autoscaler
// collectors (collectors.go), the daemon-level collector for counters
// neither of those sees (listeners, auth, snapshots), the live uniformity
// gauge's plumbing, the unified ingest funnel (batch latency histogram plus
// the sampled root span of the ingest→σ′ trace), and the pprof mount.
// Scrape-side work is pull-only — collectors read atomics and
// short-lived-lock snapshots at scrape time; the per-batch ingest cost is
// two atomic histogram updates and, unsampled, one atomic add in the tracer.

import (
	"net/http"
	"net/http/pprof"
	"time"

	"nodesampling/internal/spans"
	"nodesampling/internal/telemetry"
)

// ingest is the one funnel every ingest front shares — HTTP POST /push and
// the framed stream's PushBatch and Forward frames. It offers the batch
// to the uniformity gauge's input probe (drops included: an attacker's
// flood is part of the input distribution), observes the wire-batch ingest
// latency, and — one batch in -trace-sample — opens the root "ingest" span
// under which the shard, emit and delivery spans hang.
func (d *daemon) ingest(ids []uint64, surface string) error {
	began := time.Now()
	d.uniformity.In.Offer(ids)
	tc := d.tracer.Root("ingest")
	err := d.pool.PushBatchTraced(ids, tc)
	if tc.Sampled() {
		outcome := "ok"
		if err != nil {
			outcome = "rejected"
		}
		tc.End(spans.Str("surface", surface), spans.Int("ids", len(ids)), spans.Str("outcome", outcome))
	}
	d.latency.IngestBatch.ObserveSince(began)
	return err
}

// uniformityInputEvery decimates the input probe: one of every 8 offered
// ids enters the sliding window, bounding the probe's share of a hostile
// flood's cost while sampling the stream's composition uniformly.
const uniformityInputEvery = 8

// outputProbeDraws is how many draws refresh the output window per scrape.
// They come from SampleN at scrape time, at zero cost between scrapes, so
// the window measures the Γ-weighted union that Sample serves, not the hub's
// σ′ stream: each shard emits σ′ from its own Γ at its ingest share, and
// under an 8-shard flood the two read 0.36 and 0.83 of their draws on the
// busiest eighth of the ids. ROADMAP item J3 moves the window onto σ′.
const outputProbeDraws = 256

// handleMetrics serves the Prometheus exposition. The output-side
// uniformity window refreshes here, at scrape time, so an unscraped daemon
// never pays for it.
func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if d.uniformity.Out.Window() > 0 {
		if draws := d.pool.SampleN(outputProbeDraws); len(draws) > 0 {
			d.uniformity.Out.Offer(draws)
		}
	}
	d.registry.Handler().ServeHTTP(w, r)
}

// newRegistry assembles the daemon's metric registry: pool ingest and
// fan-out accounting, autoscaler state, the uniformity gauge and the
// daemon-level counters below.
func (d *daemon) newRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.Register(
		poolCollector(d.pool),
		autoscaleCollector(d.ctrl),
		d.uniformity,
		d.latency,
		telemetry.CollectorFunc(d.collectDaemon),
	)
	if d.cluster != nil {
		reg.Register(telemetry.CollectorFunc(d.collectCluster))
	}
	return reg
}

// collectDaemon exports what only the daemon sees: uptime, the stream
// front-end's connection accounting, admin-plane auth failures, and the
// durability plane's snapshot outcomes.
func (d *daemon) collectDaemon() []telemetry.Family {
	var accepted, rejected, frameErrs, dataFrames, conns float64
	if s := d.stream; s != nil {
		accepted = float64(s.accepted.Load())
		rejected = float64(s.rejected.Load())
		frameErrs = float64(s.frameErrors.Load())
		dataFrames = float64(s.dataFrames.Load())
		conns = float64(d.streamConns())
	}
	return []telemetry.Family{
		{
			Name: "unsd_info",
			Help: "Constant 1, labelled with the daemon's build-time facts: the active sampler strategy.",
			Type: telemetry.Gauge,
			Samples: []telemetry.Sample{{
				Labels: []telemetry.Label{{Name: "strategy", Value: d.pool.Strategy()}},
				Value:  1,
			}},
		},
		telemetry.G("unsd_uptime_seconds",
			"Seconds since the daemon started.",
			time.Since(d.start).Seconds()),
		telemetry.G("unsd_stream_connections",
			"Live framed-protocol stream connections.",
			conns),
		telemetry.C("unsd_stream_accepted_total",
			"Stream connections accepted since boot.",
			accepted),
		telemetry.C("unsd_stream_rejected_total",
			"Stream connections refused at the connection limit.",
			rejected),
		telemetry.C("unsd_stream_frame_errors_total",
			"Framed-protocol violations: undecodable frames, unexpected types, double subscribes.",
			frameErrs),
		telemetry.C("unsd_stream_data_frames_total",
			"StreamData frames written to subscribers; delivered ids over this is the batch a socket write carries.",
			dataFrames),
		telemetry.C("unsd_auth_failures_total",
			"Requests rejected by the admin bearer-token gate (missing or wrong credential).",
			float64(d.authFailures.Load())),
		telemetry.C("unsd_snapshot_writes_total",
			"Durable snapshots written successfully.",
			float64(d.snapWrites.Load())),
		telemetry.C("unsd_snapshot_failures_total",
			"Snapshot writes that failed.",
			float64(d.snapFailures.Load())),
		telemetry.G("unsd_snapshot_last_size_bytes",
			"Size of the most recent snapshot blob.",
			float64(d.snapBytes.Load())),
		telemetry.G("unsd_snapshot_last_unixtime",
			"Unix time of the most recent successful snapshot write.",
			float64(d.snapUnix.Load())),
		telemetry.G("unsd_snapshot_last_duration_seconds",
			"Wall time of the most recent successful snapshot write.",
			time.Duration(d.snapDurNanos.Load()).Seconds()),
		telemetry.G("unsd_snapshot_sealed",
			"Whether snapshots are sealed with AES-GCM at rest (1) or written plaintext (0).",
			telemetry.B(d.snapKey != nil)),
		telemetry.G("unsd_restored",
			"Whether this process restored its pool from a snapshot at boot.",
			telemetry.B(d.restored)),
	}
}

// mountPprof exposes net/http/pprof on the admin mux, every handler behind
// the bearer-token gate: profiles reveal memory contents and timing, so
// they are operator material, never public. newDaemon refuses -pprof
// without an admin token, which keeps the no-credential path answering 401
// with a challenge and a wrong credential 403 — the admin plane's usual
// vocabulary.
func (d *daemon) mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", d.requireToken(pprof.Index))
	mux.HandleFunc("GET /debug/pprof/cmdline", d.requireToken(pprof.Cmdline))
	mux.HandleFunc("GET /debug/pprof/profile", d.requireToken(pprof.Profile))
	mux.HandleFunc("GET /debug/pprof/symbol", d.requireToken(pprof.Symbol))
	mux.HandleFunc("GET /debug/pprof/trace", d.requireToken(pprof.Trace))
}
