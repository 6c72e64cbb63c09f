// Command unsd is the uniform node sampling daemon: the deployable,
// high-throughput form of the paper's sampling service. It absorbs node
// identifiers from two directions — PushBatch frames on the stream
// listener (clients of the client package and gossiping netgossip peers
// alike: the overlay's σ streams) and POST /push over HTTP — into a sharded
// sampling pool, and serves uniform samples, the pooled memory Γ, the
// continuous output stream σ′ and operational statistics.
//
// Usage:
//
//	unsd -http 127.0.0.1:8080 -stream 127.0.0.1:7947 -shards 8 -c 25
//
// HTTP endpoints:
//
//	POST /push      {"ids":[1,2,3]}    feed identifiers
//	GET  /sample?n=K                   K uniform samples (default 1; any
//	                                   present but invalid n answers 400)
//	GET  /memory                       the pooled sampling memory Γ
//	GET  /stats                        drops, per-shard depth, throughput,
//	                                   shard map epoch, per-subscriber
//	                                   delivery accounting
//	POST /resize    {"shards":N}       live re-partition to N shards: a
//	                                   flush barrier quiesces the pool, Γ
//	                                   and sketch state follow the moved
//	                                   ids; answers 409 + Retry-After while
//	                                   another resize or a snapshot is in
//	                                   flight
//	POST /snapshot                     write a durable snapshot to
//	                                   -snapshot-path now (409 while busy)
//	POST /autoscale {"enabled":b,...}  enable/disable/tune the autoscaler:
//	                                   min, max, grow_threshold,
//	                                   shrink_threshold, cooldown_ms —
//	                                   partial updates, {} reports state
//	POST /migrate   {"from_slot":a,    hand a slot range this member owns —
//	                 "to_slot":b,      its Γ ids and merged frequency state
//	                 "target":addr}    — to another cluster member, live;
//	                                   400 on a standalone daemon, 409
//	                                   while busy or when the range is not
//	                                   wholly owned here; behind the admin
//	                                   token like the other mutators
//	GET  /metrics                      Prometheus text exposition (v0.0.4):
//	                                   every pool/shard/subscriber/autoscale/
//	                                   stream/snapshot counter, the live
//	                                   uniformity gauge, and the latency
//	                                   histograms (snapshot write, resize,
//	                                   Sample, per-batch ingest, σ′
//	                                   emit→delivery lag); read-open unless
//	                                   -admin-token-all
//	GET  /trace                        the sampled ingest→σ′ span ring as
//	                                   Chrome trace-event JSON (load it in
//	                                   chrome://tracing or ui.perfetto.dev);
//	                                   behind the admin token when one is set
//
// Observability plane:
//
//	-log-level/-log-format  leveled structured logs (log/slog): connection
//	                     lifecycle, resize and autoscale decisions, snapshot
//	                     outcomes and auth failures carry structured fields;
//	                     -log-format json emits one JSON object per line.
//	                     The machine-parsed "<plane> listening on <addr>"
//	                     startup lines stay plain and stable.
//	-uniformity-window   sliding-window size of the live uniformity gauge:
//	                     /metrics exports the KL divergence to uniform of
//	                     the ingest window (unsd_uniformity_input_kl — rises
//	                     under a targeted flood), of a σ′ output window
//	                     (unsd_uniformity_output_kl — the live SLO), and the
//	                     paper's G_KL gain between them. 0 disables.
//	-pprof               mount net/http/pprof under /debug/pprof/ behind
//	                     the admin token (refuses to boot without one)
//	-trace-sample        record one in N ingest batches as a span tree —
//	                     ingest (wire batch) → shard (worker) → emit (σ′
//	                     queue wait) → delivery (hub fan-out) — in a bounded
//	                     in-memory ring served by GET /trace. Unsampled
//	                     batches cost one atomic add; 0 disables tracing.
//
// Latency histograms: /metrics exports fixed-bucket histogram families
// (unsd_*_duration_seconds / unsd_emit_delivery_lag_seconds) for snapshot
// writes, resize hand-offs, Sample calls on both the HTTP and stream
// surfaces, per-wire-batch ingest, and the lag between a shard worker
// emitting σ′ draws and the hub fanning them out. dashboards/unsd.json is
// a committed Grafana dashboard over exactly these families.
//
// cmd/unsload is the companion load generator: it replays adversarial
// scenarios (uniform baseline, targeted flood, churn storm, slow-trickle
// bias) against a live daemon over the framed protocol while scraping
// /metrics, and reports achieved rate, drop fractions and the uniformity
// gauge's trajectory per phase.
//
// Security plane (all opt-in; without these flags the daemon trusts its
// network, which is only appropriate on loopback or inside a private
// enclave):
//
//	-tls-cert/-tls-key   serve TLS on the HTTP and framed stream listeners
//	-tls-client-ca       require and verify client certificates on the
//	                     framed stream listener (mutual TLS): a peer that
//	                     cannot present a certificate chained to this CA
//	                     never reaches the frame decoder
//	-admin-token         bearer token on the mutating admin endpoints
//	                     (/resize, /snapshot, /autoscale); falls back to
//	                     $UNSD_ADMIN_TOKEN so the secret stays out of
//	                     process listings. Requests without a credential
//	                     get 401 plus a WWW-Authenticate challenge;
//	                     requests with a wrong or malformed one get 403 —
//	                     disjoint from the handlers' own 400 (bad input)
//	                     and 409 (busy) vocabulary. Comparison is
//	                     constant-time. /sample, /memory, /stats and
//	                     /push stay open unless -admin-token-all gates
//	                     every endpoint.
//	-snapshot-key-file   a 32-byte AES-256 key (raw or 64 hex chars, file
//	                     mode 0600 enforced): snapshots are sealed with
//	                     AES-256-GCM in a versioned "UNSE" envelope, so a
//	                     blob at rest reveals neither the secret partition
//	                     salt nor the sampling state and cannot be
//	                     tampered with undetected. A wrong key refuses at
//	                     boot; plaintext (pre-encryption) blobs still
//	                     restore, and the next write seals them.
//	-snapshot-key-file-old  the previous key during a rotation: a blob that
//	                     fails under the new key is retried under this one
//	                     (with a warning), and the next snapshot write
//	                     re-seals it under the new key — rotation without a
//	                     plaintext intermediate. Retire the flag once the
//	                     blob has been rewritten.
//	-strict-snapshot-perms  refuse to restore a group/world-accessible
//	                     snapshot blob (default: warn and continue)
//
// With -autoscale the daemon runs a load-driven control loop
// (internal/autoscale) over the elastic shard plane: each
// -autoscale-interval it condenses the pool's load signals — queue
// occupancy, ingest drop rate, σ′ emit drops — into a smoothed pressure
// figure and grows or shrinks the shard set between -min-shards and
// -max-shards, with hysteresis and a post-resize cooldown so a one-batch
// spike cannot thrash the plane. An adversary flooding the input stream is
// met with more parallel capacity instead of silent sample loss, and the
// plane contracts again once the flood subsides. /stats reports the
// controller's state (pressure EWMA, last decision and reason, cooldown,
// resize count) under "autoscale".
//
// The -stream listener speaks the framed bidirectional protocol of
// internal/netgossip (and the public client package): a single persistent
// TCP connection pushes id batches up and receives σ′ stream frames,
// sample responses and pong keepalives down — the paper's stream-in/
// stream-out service shape, without per-sample HTTP round trips. A
// gossiping peer is simply a connection that only pushes. Subscribe frames
// carry a decimation interval (sample-every-k) and a per-second rate cap
// (token bucket, one-second burst), so modest consumers ride the hub at a
// rate they can afford; every subscribe is acknowledged with a resume
// token a reconnecting decimated subscriber presents to continue its
// 1-in-k phase where the dropped connection left off.
//
// Cluster plane (all members must share -seed and sampler flags):
//
//	-cluster             run as one member of a daemon fleet sharing the
//	                     sampling plane: ingest arriving at any member is
//	                     partitioned by the same salted rendezvous
//	                     placement the pool uses for its shards and
//	                     forwarded in batches to the owning members over
//	                     persistent framed connections, and Sample/SampleN
//	                     fan out to the fleet, merging the members' draws
//	                     weighted by their actual |Γ| — uniform over the
//	                     union no matter which member answers. Requires
//	                     -stream, -members and an explicit shared -seed.
//	-members             comma-separated stream addresses of every member,
//	                     this daemon's own -stream address included; every
//	                     member must be started with the identical set
//	-cluster-ca          CA bundle verifying other members' stream
//	                     listeners; with -tls-cert/-tls-key the daemon's
//	                     serving certificate doubles as its client
//	                     certificate (mutual TLS between members)
//
// POST /migrate moves a slot range between members while the fleet runs
// (flush barrier, one versioned state blob, epoch-bumped ownership flip
// broadcast to every member — the moved ids' learned frequency estimates
// survive), /stats gains a "cluster" block (epoch, per-member connectivity
// and forwarding accounting), and /metrics gains the unsd_cluster_*
// families.
//
// Durability: with -snapshot-path set the daemon restores the pool from
// the snapshot at boot (the snapshot governs shard count, memory capacity
// and sketch shape; mismatched -k/-s flags fail loudly), writes it
// periodically when -snapshot-interval is positive, and writes a final
// snapshot on graceful shutdown. The blob is the versioned format of
// internal/shard (magic "UNSS"): shard map + salt, per-shard Count-Min
// sketches and sampling memories Γ, decay epoch and counters — everything
// needed so a restarted daemon does not forget attacker frequencies. It
// embeds the secret partition salt; protect the file like key material —
// or better, set -snapshot-key-file and let the daemon seal it at rest.
//
// Identifiers are 64-bit; HTTP responses encode them as decimal strings
// and /push accepts numbers or strings, because JSON doubles corrupt
// integers above 2^53.
package main

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"log/slog"

	"nodesampling/internal/autoscale"
	"nodesampling/internal/cluster"
	"nodesampling/internal/core"
	"nodesampling/internal/netgossip"
	"nodesampling/internal/shard"
	"nodesampling/internal/spans"
	"nodesampling/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "unsd:", err)
		os.Exit(1)
	}
}

// options collects the daemon's configuration.
type options struct {
	shards, c, k, s  int
	strategy         string // sampler strategy registry name ("" = default)
	buffer           int
	block            bool
	seed             uint64
	snapshotPath     string
	snapshotInterval time.Duration

	// The security plane, all opt-in: TLS on the stream and HTTP listeners
	// (tlsClientCA additionally demands client certificates on the framed
	// protocol), bearer-token auth on the admin endpoints (adminTokenAll
	// extends it to the read surface), at-rest snapshot encryption, and the
	// strict mode of the restore-time snapshot permission check.
	tlsCert, tlsKey     string
	tlsClientCA         string
	adminToken          string
	adminTokenAll       bool
	snapshotKeyFile     string
	snapshotKeyFileOld  string
	strictSnapshotPerms bool

	// The observability plane: pprof mounts net/http/pprof behind the admin
	// token; logLevel/logFormat configure the structured logger ("" takes
	// the defaults: info, text); uniformityWindow sizes the live uniformity
	// gauge's sliding windows (0 disables the gauge's divergence samples,
	// the metadata families stay).
	pprof            bool
	logLevel         string
	logFormat        string
	uniformityWindow int

	// traceSample records one in N ingest batches as a full span tree
	// (ingest → shard → emit → delivery) in the in-memory ring behind
	// GET /trace; 0 disables tracing entirely (the zero value, so tests
	// constructing options directly trace nothing unless they ask).
	traceSample int

	// The cluster plane (all empty/zero when the daemon runs standalone):
	// clusterMembers is every member's stream address including our own
	// (clusterSelf, the -stream address); clusterCA verifies other members'
	// stream listeners when they serve TLS.
	clusterMembers []string
	clusterSelf    string
	clusterCA      string

	// warnw receives boot-time warnings (nil discards them); run() passes
	// its output writer.
	warnw io.Writer

	// The autoscaling plane: the controller is always constructed (so POST
	// /autoscale can arm it at runtime and /stats always shows live
	// pressure) and starts enabled only with -autoscale.
	autoscale         bool
	minShards         int           // 0 defaults to 1
	maxShards         int           // 0 defaults to 64
	autoscaleInterval time.Duration // 0 defaults to 1s
}

// daemon ties the sharded pool to its stream front-end. The HTTP layer is a
// plain handler over it, so tests can drive a live listener via httptest.
type daemon struct {
	pool   *shard.Pool
	stream *streamServer // nil until listenStream
	ctrl   *autoscale.Controller
	start  time.Time

	// The cluster plane (nil/zero standalone): the fleet view of
	// internal/cluster, the merge randomness of the cluster-wide sample
	// fan-out, and the fan-out counters only the daemon layer sees.
	cluster              *cluster.Cluster
	srng                 *sampleRNG
	clusterFanouts       atomic.Uint64
	clusterFanoutMissing atomic.Uint64
	// migrateHook, when set (tests only), runs inside a migration's
	// transfer window — after the slot range is exported and the epoch
	// proposed, before the blob travels — where ingest continues and a
	// concurrent migration elsewhere can win the epoch race.
	migrateHook func()

	// The security plane (all zero when the daemon runs open, the
	// backwards-compatible default): tlsHTTP serves the HTTP listener,
	// tlsStream the framed listener (same certificate, plus mutual-TLS
	// client verification when -tls-client-ca is set); the admin bearer
	// token gates the mutating admin endpoints (every endpoint under
	// adminTokenAll) — only its SHA-256 digest is retained, computed once
	// at construction, so the plaintext secret never sits in a long-lived
	// struct; snapKey seals snapshots at rest.
	tlsHTTP        *tls.Config
	tlsStream      *tls.Config
	adminTokenHash [sha256.Size]byte
	adminTokenSet  bool
	adminTokenAll  bool
	snapKey        []byte
	snapKeyOld     []byte

	// The observability plane: the structured logger (never nil — a daemon
	// constructed without one logs to io.Discard), the metric registry
	// behind GET /metrics, the live uniformity gauge whose input probe
	// rides every ingest front, and the counters only the daemon layer
	// sees. pprofEnabled mounts net/http/pprof behind the admin token.
	logger       *slog.Logger
	registry     *telemetry.Registry
	uniformity   *telemetry.Uniformity
	latency      *telemetry.Latency
	tracer       *spans.Tracer
	pprofEnabled bool
	authFailures atomic.Uint64
	snapWrites   atomic.Uint64
	snapFailures atomic.Uint64
	snapDurNanos atomic.Int64

	// opMu is the admin-plane gate: it serialises the mutating operations —
	// resizes (manual and autoscaler-issued) and snapshot writes — so they
	// queue behind each other in a known order instead of piling up on the
	// pool's internal locks. The HTTP handlers TryLock it and answer 409
	// when it is busy (a clean retry signal); the snapshot ticker and the
	// autoscaler wait their turn.
	opMu sync.Mutex

	// The durability plane: writeSnapshot serialises the pool to
	// snapshotPath (atomically: temp file + fsync + rename + directory
	// fsync), on demand (POST /snapshot), periodically (startSnapshotLoop)
	// and finally at Close.
	snapshotPath string
	restored     bool
	snapBytes    atomic.Int64
	snapUnix     atomic.Int64
	snapStop     chan struct{}
	snapDone     chan struct{}

	// needReseal marks a restore that left the on-disk blob behind the
	// configured key: sealed under the previous key (-snapshot-key-file-old)
	// or plaintext from before encryption. startReseal then rewrites it
	// automatically, so rotation completes without waiting for the next
	// scheduled or manual snapshot.
	needReseal bool
	resealStop chan struct{}
	resealDone chan struct{}
}

// scaleTarget adapts the daemon for the autoscale controller: signals come
// straight from the pool, resizes go through the daemon's admin gate so
// the controller, manual POST /resize and the snapshot ticker never
// surprise each other.
type scaleTarget struct{ d *daemon }

func (t scaleTarget) LoadSignals() shard.LoadSignals { return t.d.pool.LoadSignals() }

func (t scaleTarget) Resize(n int) error {
	t.d.opMu.Lock()
	defer t.d.opMu.Unlock()
	from := t.d.pool.NumShards()
	began := time.Now()
	err := t.d.pool.Resize(n)
	if err != nil {
		t.d.logger.Error("autoscale resize failed", "from", from, "to", n, "error", err)
		return err
	}
	t.d.latency.Resize.ObserveSince(began)
	epoch, shards := t.d.pool.Topology()
	t.d.logger.Info("autoscale resize", "from", from, "to", shards, "epoch", epoch)
	return nil
}

func newDaemon(o options) (*daemon, error) {
	warnw := o.warnw
	if warnw == nil {
		warnw = io.Discard
	}
	logger, err := newLogger(o.warnw, o.logLevel, o.logFormat)
	if err != nil {
		return nil, err
	}
	// len() comparisons only on the token, never ==/!= — CI greps for raw
	// equality on it, since that is how a timing side channel sneaks in.
	if o.adminTokenAll && len(o.adminToken) == 0 {
		return nil, errors.New("-admin-token-all requires -admin-token (or UNSD_ADMIN_TOKEN)")
	}
	if o.pprof && len(o.adminToken) == 0 {
		return nil, errors.New("-pprof requires -admin-token (or UNSD_ADMIN_TOKEN): profiles expose memory contents")
	}
	tlsHTTP, tlsStream, err := loadTLSConfigs(o)
	if err != nil {
		return nil, err
	}
	var snapKey, snapKeyOld []byte
	if o.snapshotKeyFile != "" {
		if o.snapshotPath == "" {
			return nil, errors.New("-snapshot-key-file requires -snapshot-path")
		}
		if snapKey, err = readSnapshotKey(o.snapshotKeyFile); err != nil {
			return nil, err
		}
	}
	if o.snapshotKeyFileOld != "" {
		if snapKey == nil {
			return nil, errors.New("-snapshot-key-file-old requires -snapshot-key-file (the new key to re-seal under)")
		}
		if snapKeyOld, err = readSnapshotKey(o.snapshotKeyFileOld); err != nil {
			return nil, err
		}
	}
	if o.uniformityWindow < 0 {
		return nil, fmt.Errorf("negative -uniformity-window %d", o.uniformityWindow)
	}
	if o.traceSample < 0 {
		return nil, fmt.Errorf("negative -trace-sample %d", o.traceSample)
	}
	uniformity := telemetry.NewUniformity(o.uniformityWindow, uniformityInputEvery)
	latency := telemetry.NewLatency()
	// The sampler strategy resolves against the core registry, so every
	// place the daemon builds a sampler honours -strategy; an unknown name
	// fails here with the registered names listed.
	factory, err := core.NewFactory(o.strategy, core.StrategyParams{K: o.k, S: o.s})
	if err != nil {
		return nil, err
	}
	scfg := shard.Config{
		Shards:    o.shards,
		Buffer:    o.buffer,
		Block:     o.block,
		Seed:      o.seed,
		Capacity:  o.c,
		Sampler:   factory,
		OnEmitLag: latency.EmitLag.Observe,
	}
	var pool *shard.Pool
	restored, needReseal := false, false
	if o.snapshotPath != "" {
		blob, err := os.ReadFile(o.snapshotPath)
		switch {
		case err == nil:
			// The snapshot governs shard count, memory capacity and sketch
			// shape; the -k/-s flags are validated against it and -shards/-c
			// are superseded (resize later via POST /resize).
			if err := checkSnapshotPerms(o.snapshotPath, o.strictSnapshotPerms, warnw); err != nil {
				return nil, err
			}
			if blob, needReseal, err = unsealSnapshot(blob, snapKey, snapKeyOld, warnw); err != nil {
				return nil, fmt.Errorf("restore %s: %w", o.snapshotPath, err)
			}
			if pool, err = shard.Restore(scfg, blob); err != nil {
				return nil, fmt.Errorf("restore %s: %w", o.snapshotPath, err)
			}
			restored = true
		case errors.Is(err, fs.ErrNotExist):
			// First boot: start fresh, snapshots will appear at this path.
		default:
			return nil, err
		}
	}
	if pool == nil {
		var err error
		if pool, err = shard.New(scfg); err != nil {
			return nil, err
		}
	}
	d := &daemon{
		pool:          pool,
		start:         time.Now(),
		snapshotPath:  o.snapshotPath,
		restored:      restored,
		needReseal:    needReseal,
		tlsHTTP:       tlsHTTP,
		tlsStream:     tlsStream,
		adminTokenAll: o.adminTokenAll,
		snapKey:       snapKey,
		snapKeyOld:    snapKeyOld,
		logger:        logger,
		uniformity:    uniformity,
		latency:       latency,
		tracer:        spans.New(o.traceSample, traceRingSize),
		pprofEnabled:  o.pprof,
	}
	if len(o.clusterMembers) > 0 {
		var clTLS *tls.Config
		if o.clusterCA != "" {
			if clTLS, err = loadClusterTLS(o.clusterCA, o.tlsCert, o.tlsKey); err != nil {
				_ = pool.Close()
				return nil, err
			}
		}
		cl, err := cluster.New(cluster.Config{
			Members: o.clusterMembers,
			Self:    o.clusterSelf,
			Seed:    o.seed,
			TLS:     clTLS,
			Logger:  logger,
			// Undeliverable forwards ingest locally under the "forward"
			// surface, which never re-forwards: misplaced, not lost.
			Fallback: func(ids []uint64) { _ = d.ingest(ids, "forward") },
		})
		if err != nil {
			_ = pool.Close()
			return nil, err
		}
		d.cluster = cl
		d.srng = newSampleRNG(o.seed)
		cl.Start()
	}
	if len(o.adminToken) > 0 {
		d.adminTokenHash = sha256.Sum256([]byte(o.adminToken))
		d.adminTokenSet = true
	}
	minShards, maxShards := o.minShards, o.maxShards
	if minShards == 0 {
		minShards = 1
	}
	if maxShards == 0 {
		maxShards = 64
	}
	interval := o.autoscaleInterval
	if interval == 0 {
		interval = time.Second
	}
	ctrl, err := autoscale.New(scaleTarget{d}, autoscale.Config{
		Min:      minShards,
		Max:      maxShards,
		Interval: interval,
		Enabled:  o.autoscale,
	})
	if err != nil {
		_ = pool.Close()
		return nil, err
	}
	d.ctrl = ctrl
	d.registry = d.newRegistry()
	ctrl.Start()
	if d.needReseal {
		d.startReseal()
	}
	return d, nil
}

// traceRingSize bounds the span ring behind GET /trace: old spans are
// overwritten, never accumulated, so tracing costs fixed memory no matter
// how long the daemon runs.
const traceRingSize = 4096

// resealRetryInterval paces re-seal retries after a failed automatic
// snapshot write (disk full, path gone); the first attempt is immediate.
const resealRetryInterval = time.Second

// startReseal rewrites the snapshot blob in the background until one write
// succeeds: the restore left the on-disk bytes behind the configured key
// (previous-key sealed, or plaintext from before encryption), and key
// rotation only completes when the old key stops opening the blob. An
// operator should not have to wait for the snapshot ticker — or remember a
// manual POST /snapshot — to retire the old key.
func (d *daemon) startReseal() {
	d.resealStop = make(chan struct{})
	d.resealDone = make(chan struct{})
	go func() {
		defer close(d.resealDone)
		ticker := time.NewTicker(resealRetryInterval)
		defer ticker.Stop()
		for {
			if _, err := d.writeSnapshot(); err == nil {
				d.logger.Info("snapshot re-sealed under the configured key", "path", d.snapshotPath)
				return
			}
			select {
			case <-ticker.C:
			case <-d.resealStop:
				return
			}
		}
	}()
}

// newLogger builds the daemon's structured logger from the -log-level and
// -log-format flags. Empty values take the defaults (info, text); unknown
// values refuse at boot. A nil writer logs to io.Discard, so a daemon
// constructed directly in tests stays quiet without nil checks at every
// call site.
func newLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	if w == nil {
		w = io.Discard
	}
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lvl = slog.LevelInfo
	case "debug":
		lvl = slog.LevelDebug
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text, json)", format)
	}
}

// loadTLSConfigs builds the listener-side TLS configurations from the
// -tls-* options. Both listeners serve the same certificate; the framed
// stream listener additionally demands and verifies a client certificate
// when -tls-client-ca is set — mutual TLS is the peer-authentication story
// of the framed protocol, while HTTP callers authenticate per request with
// the bearer token instead. Nil configs mean the daemon runs plaintext
// (the backwards-compatible default).
func loadTLSConfigs(o options) (httpConf, streamConf *tls.Config, err error) {
	if o.tlsCert == "" && o.tlsKey == "" && o.tlsClientCA == "" {
		return nil, nil, nil
	}
	if o.tlsCert == "" || o.tlsKey == "" {
		return nil, nil, errors.New("-tls-cert and -tls-key must be set together (-tls-client-ca requires both)")
	}
	cert, err := tls.LoadX509KeyPair(o.tlsCert, o.tlsKey)
	if err != nil {
		return nil, nil, fmt.Errorf("load TLS certificate: %w", err)
	}
	base := &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}
	streamConf = base.Clone()
	if o.tlsClientCA != "" {
		pemBytes, err := os.ReadFile(o.tlsClientCA)
		if err != nil {
			return nil, nil, err
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pemBytes) {
			return nil, nil, fmt.Errorf("no CA certificates in %s", o.tlsClientCA)
		}
		streamConf.ClientCAs = pool
		streamConf.ClientAuth = tls.RequireAndVerifyClientCert
	}
	return base, streamConf, nil
}

// readSnapshotKey loads the AES-256 snapshot sealing key: either 32 raw
// bytes or 64 hex characters (surrounding whitespace ignored). The file
// must be private to its owner — a group- or world-accessible key would
// undo exactly the protection the sealed snapshot adds — so unlike the
// snapshot blob's permission check, this one always refuses.
func readSnapshotKey(path string) ([]byte, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if perm := fi.Mode().Perm(); perm&0o077 != 0 {
		return nil, fmt.Errorf("snapshot key file %s is mode %04o; it must be accessible only by its owner (chmod 600)", path, perm)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if trimmed := strings.TrimSpace(string(raw)); len(trimmed) == 2*shard.SnapshotKeyLen {
		if key, err := hex.DecodeString(trimmed); err == nil {
			return key, nil
		}
	}
	if len(raw) == shard.SnapshotKeyLen {
		return raw, nil
	}
	return nil, fmt.Errorf("snapshot key file %s must hold %d raw bytes or %d hex characters", path, shard.SnapshotKeyLen, 2*shard.SnapshotKeyLen)
}

// checkSnapshotPerms guards the restore path against salt exposure through
// an operator copy: durableWrite creates blobs 0600, but a blob copied or
// restored from backup can arrive group- or world-readable, leaking the
// secret partition salt (and, unencrypted, the whole sampling state) to
// every local user. By default the daemon warns and continues — the blob
// is still the operator's best recovery state; under -strict-snapshot-perms
// it refuses to boot.
func checkSnapshotPerms(path string, strict bool, warnw io.Writer) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if perm := fi.Mode().Perm(); perm&0o077 != 0 {
		if strict {
			return fmt.Errorf("snapshot %s is mode %04o (group/world-accessible) and embeds the secret partition salt; chmod 600 it or drop -strict-snapshot-perms", path, perm)
		}
		fmt.Fprintf(warnw, "warning: snapshot %s is mode %04o (group/world-accessible); it embeds the secret partition salt — chmod 600 it (-strict-snapshot-perms turns this warning into a refusal)\n", path, perm)
	}
	return nil
}

// unsealSnapshot maps an on-disk blob to the plaintext the restore path
// needs: sealed blobs require the key (a wrong key fails authentication
// loudly at boot, never a silently corrupt restore), while plaintext blobs
// from before encryption was enabled still restore — with a warning when a
// key is configured, since the next write will seal.
//
// oldKey is the rotation path (-snapshot-key-file-old): a blob that fails
// under the new key is retried under the previous one, so operators rotate
// sealed-snapshot keys without ever writing a plaintext intermediate.
//
// needReseal reports that the on-disk bytes lag the configured key —
// previous-key sealed, or plaintext with a key set — and the daemon should
// rewrite the blob (startReseal) so the old key can be retired.
func unsealSnapshot(blob, key, oldKey []byte, warnw io.Writer) (plain []byte, needReseal bool, err error) {
	if shard.SnapshotSealed(blob) {
		if key == nil {
			return nil, false, errors.New("snapshot is encrypted; set -snapshot-key-file")
		}
		plain, err := shard.OpenSealedSnapshot(blob, key)
		if err != nil && oldKey != nil {
			if plain, err2 := shard.OpenSealedSnapshot(blob, oldKey); err2 == nil {
				fmt.Fprintln(warnw, "warning: snapshot restored under the previous key (-snapshot-key-file-old); the daemon re-seals it under the new key automatically")
				return plain, true, nil
			}
		}
		return plain, false, err
	}
	if key != nil {
		fmt.Fprintln(warnw, "warning: restoring a plaintext (pre-encryption) snapshot; the daemon re-seals it automatically")
		return blob, true, nil
	}
	return blob, false, nil
}

// writeSnapshot serialises the pool and installs it at snapshotPath,
// crash-durably: the blob is written to a temp file which is fsynced
// before the rename, and the directory is fsynced after it. Either alone
// is not enough — an unsynced file can rename into place and still be
// empty after power loss (the metadata outruns the data), and an unsynced
// rename can simply vanish, but a pre-rename blob that never got its
// rename is only a lost update, never a corrupt one. A failed write
// removes its orphaned temp file. Returns the blob size.
func (d *daemon) writeSnapshot() (int, error) {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	return d.writeSnapshotLocked()
}

// writeSnapshotLocked is writeSnapshot for callers already holding opMu
// (the TryLock path of POST /snapshot). Every outcome is counted and
// logged here, so on-demand, periodic and shutdown writes report alike.
func (d *daemon) writeSnapshotLocked() (n int, err error) {
	began := time.Now()
	defer func() {
		if err != nil {
			d.snapFailures.Add(1)
			d.logger.Error("snapshot failed", "path", d.snapshotPath, "error", err)
			return
		}
		took := time.Since(began)
		d.snapWrites.Add(1)
		d.snapDurNanos.Store(int64(took))
		d.latency.SnapshotWrite.Observe(took.Seconds())
		d.logger.Info("snapshot written", "path", d.snapshotPath,
			"bytes", n, "sealed", d.snapKey != nil, "duration", took)
	}()
	if d.snapshotPath == "" {
		return 0, errors.New("no -snapshot-path configured")
	}
	blob, err := d.pool.Snapshot()
	if err != nil {
		return 0, err
	}
	if d.snapKey != nil {
		// Seal before anything touches the disk: with a key configured, no
		// plaintext snapshot byte (the salt above all) ever leaves memory.
		if blob, err = shard.SealSnapshot(blob, d.snapKey); err != nil {
			return 0, err
		}
	}
	tmp := d.snapshotPath + ".tmp"
	if err := durableWrite(tmp, blob); err != nil {
		_ = os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, d.snapshotPath); err != nil {
		_ = os.Remove(tmp)
		return 0, err
	}
	syncDir(filepath.Dir(d.snapshotPath))
	d.snapBytes.Store(int64(len(blob)))
	d.snapUnix.Store(time.Now().Unix())
	return len(blob), nil
}

// durableWrite writes blob to path (0600 — it embeds the pool's secret
// partition salt) and fsyncs it before returning, so the bytes are on
// stable storage before the caller renames the file into place.
func durableWrite(path string, blob []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	_, err = f.Write(blob)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-completed rename inside it survives
// power loss. Best effort: some filesystems refuse to sync directories,
// and the write itself already succeeded.
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = f.Sync()
	_ = f.Close()
}

// startSnapshotLoop writes a snapshot every interval until Close. Outcomes
// (success and failure alike) are logged by writeSnapshotLocked.
func (d *daemon) startSnapshotLoop(interval time.Duration) {
	d.snapStop = make(chan struct{})
	d.snapDone = make(chan struct{})
	go func() {
		defer close(d.snapDone)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				_, _ = d.writeSnapshot()
			case <-d.snapStop:
				return
			}
		}
	}()
}

// Close shuts the autoscaler down first (no resize may race the
// teardown), then the stream front-end so no batch races the pool's
// shutdown, writes a final snapshot while the pool is still serving, then
// closes the pool (which closes the subscription hub and thereby every
// remaining stream subscription).
func (d *daemon) Close() {
	d.ctrl.Close()
	if d.resealStop != nil {
		close(d.resealStop)
		<-d.resealDone
		d.resealStop = nil
	}
	if d.snapStop != nil {
		close(d.snapStop)
		<-d.snapDone
		d.snapStop = nil
	}
	if d.stream != nil {
		d.stream.Close()
	}
	if d.cluster != nil {
		// After the ingest fronts: queued forwards drain into local ingest,
		// so the final snapshot still captures them.
		d.cluster.Close()
	}
	if d.snapshotPath != "" {
		// Ingest fronts are gone, so the barrier is exact: ids already
		// acknowledged into shard queues reach the samplers before the
		// final snapshot captures them.
		_ = d.pool.Flush()
		_, _ = d.writeSnapshot()
	}
	_ = d.pool.Close()
}

// maxPushBody bounds a /push request body and maxPushIDs caps the ids one
// request may carry (the wire protocol's MaxBatch): a flood has to arrive
// as many requests, and no single HTTP push can monopolise shard workers
// longer than a framed batch could.
const (
	maxPushBody = 1 << 20
	maxPushIDs  = netgossip.MaxBatch
)

// maxSampleN bounds how many samples one /sample request may ask for.
const maxSampleN = 65536

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	// The mutating admin endpoints are always behind the bearer token when
	// one is configured; the data and read surface joins them only under
	// -admin-token-all (an overlay usually needs /push and /sample open).
	readOpen := func(h http.HandlerFunc) http.HandlerFunc {
		if d.adminTokenAll {
			return d.requireToken(h)
		}
		return h
	}
	mux.HandleFunc("POST /push", readOpen(d.handlePush))
	mux.HandleFunc("GET /sample", readOpen(d.handleSample))
	mux.HandleFunc("GET /memory", readOpen(d.handleMemory))
	mux.HandleFunc("GET /stats", readOpen(d.handleStats))
	mux.HandleFunc("GET /metrics", readOpen(d.handleMetrics))
	mux.HandleFunc("GET /trace", d.requireToken(d.handleTrace))
	mux.HandleFunc("POST /resize", d.requireToken(d.handleResize))
	mux.HandleFunc("POST /migrate", d.requireToken(d.handleMigrate))
	mux.HandleFunc("POST /snapshot", d.requireToken(d.handleSnapshot))
	mux.HandleFunc("POST /autoscale", d.requireToken(d.handleAutoscale))
	if d.pprofEnabled {
		d.mountPprof(mux)
	}
	return mux
}

// requireToken gates a handler behind the configured admin bearer token.
// The status split mirrors HTTP semantics and stays disjoint from the
// handlers' own 400/409 vocabulary: 401 (with a WWW-Authenticate
// challenge) when no credential was presented at all, 403 when one was
// presented and does not match. With no token configured the handler runs
// open — security is opt-in, and ROADMAP tracks the default.
func (d *daemon) requireToken(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !d.adminTokenSet {
			h(w, r)
			return
		}
		auth := r.Header.Get("Authorization")
		if auth == "" {
			d.authFailures.Add(1)
			d.logger.Warn("auth failure", "status", http.StatusUnauthorized,
				"path", r.URL.Path, "remote", r.RemoteAddr, "reason", "no credential")
			w.Header().Set("WWW-Authenticate", `Bearer realm="unsd admin"`)
			httpError(w, http.StatusUnauthorized, "authorization required (Bearer token)")
			return
		}
		const scheme = "Bearer "
		if len(auth) < len(scheme) || !strings.EqualFold(auth[:len(scheme)], scheme) ||
			!tokenMatches(auth[len(scheme):], d.adminTokenHash) {
			d.authFailures.Add(1)
			d.logger.Warn("auth failure", "status", http.StatusForbidden,
				"path", r.URL.Path, "remote", r.RemoteAddr, "reason", "invalid token")
			httpError(w, http.StatusForbidden, "invalid bearer token")
			return
		}
		h(w, r)
	}
}

// tokenMatches compares a presented token against the configured token's
// digest in constant time. The presented side is hashed to the same fixed
// width, so the comparison leaks neither content nor length — a raw ==
// would let a remote caller binary-search the token byte by byte through
// response timing.
func tokenMatches(presented string, wantHash [sha256.Size]byte) bool {
	p := sha256.Sum256([]byte(presented))
	return subtle.ConstantTimeCompare(p[:], wantHash[:]) == 1
}

// maxAdminBody bounds an admin-endpoint request body: the legitimate
// payloads are a handful of small fields.
const maxAdminBody = 1024

// decodeAdminJSON parses a small admin request body strictly: unknown
// fields, trailing data, oversized bodies and malformed JSON are all
// client errors (the caller answers 400), never 500s or panics.
func decodeAdminJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxAdminBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("body exceeds %d bytes", mbe.Limit)
		}
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// conflict answers 409 with a Retry-After hint: the admin plane is busy
// with another resize or snapshot, and the client should simply try again.
func conflict(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusConflict, msg)
}

// jsonID carries a 64-bit id through JSON losslessly: it renders as a
// decimal string and accepts both strings and plain numbers on input.
// Doubles (the number type of JavaScript and most JSON parsers) corrupt
// integers above 2^53, and node ids are full-range 64-bit hashes.
type jsonID uint64

func (v jsonID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + strconv.FormatUint(uint64(v), 10) + `"`), nil
}

func (v *jsonID) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	u, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return fmt.Errorf("id %s: %w", string(data), err)
	}
	*v = jsonID(u)
	return nil
}

func toJSONIDs(ids []uint64) []jsonID {
	out := make([]jsonID, len(ids))
	for i, id := range ids {
		out[i] = jsonID(id)
	}
	return out
}

func (d *daemon) handlePush(w http.ResponseWriter, r *http.Request) {
	var req struct {
		IDs []jsonID `json:"ids"`
	}
	body := http.MaxBytesReader(w, r.Body, maxPushBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	if len(req.IDs) == 0 {
		httpError(w, http.StatusBadRequest, "no ids")
		return
	}
	if len(req.IDs) > maxPushIDs {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d ids exceeds limit %d", len(req.IDs), maxPushIDs))
		return
	}
	ids := make([]uint64, len(req.IDs))
	for i, id := range req.IDs {
		ids[i] = uint64(id)
	}
	if err := d.ingestRouted(ids, "http"); err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, map[string]any{"accepted": len(ids)})
}

func (d *daemon) handleSample(w http.ResponseWriter, r *http.Request) {
	// Every present n must parse as a plain decimal in [1, maxSampleN]:
	// non-numeric garbage, n <= 0, out-of-int-range digits (Atoi reports
	// ErrRange) and an explicitly empty "?n=" all answer 400 with a JSON
	// error — never a 200 with a surprising body, never a panic. Only a
	// genuinely absent parameter takes the default of one sample.
	n := 1
	if vals, present := r.URL.Query()["n"]; present {
		v, err := strconv.Atoi(vals[0])
		if err != nil || v < 1 || v > maxSampleN {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("n must be a decimal in [1, %d], got %q", maxSampleN, vals[0]))
			return
		}
		n = v
	}
	began := time.Now()
	// Clustered daemons answer over the union of member memories; the
	// standalone path is the pool untouched.
	samples := d.sampleN(n)
	d.latency.Sample.ObserveSince(began)
	if len(samples) == 0 {
		httpError(w, http.StatusServiceUnavailable, "pool is empty")
		return
	}
	writeJSON(w, map[string]any{"samples": toJSONIDs(samples)})
}

func (d *daemon) handleMemory(w http.ResponseWriter, r *http.Request) {
	mem := d.pool.Memory()
	writeJSON(w, map[string]any{"memory": toJSONIDs(mem), "size": len(mem)})
}

// handleResize serves the elastic-plane admin surface: a live
// re-partition of the pool to the requested shard count. A request racing
// another resize (manual or autoscaler-issued) or a snapshot write gets a
// clean 409 + Retry-After instead of queueing on the pool's locks.
func (d *daemon) handleResize(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Shards *int `json:"shards"`
	}
	if err := decodeAdminJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	if req.Shards == nil {
		httpError(w, http.StatusBadRequest, `missing "shards"`)
		return
	}
	if *req.Shards < 1 || *req.Shards > shard.MaxShards {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("shards must be in [1, %d]", shard.MaxShards))
		return
	}
	if !d.opMu.TryLock() {
		conflict(w, "another resize or snapshot is in progress")
		return
	}
	defer d.opMu.Unlock()
	from := d.pool.NumShards()
	began := time.Now()
	if err := d.pool.Resize(*req.Shards); err != nil {
		d.logger.Error("resize failed", "source", "admin", "from", from, "to", *req.Shards, "error", err)
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	d.latency.Resize.ObserveSince(began)
	// One map load for the pair, so a concurrent autoscaler resize between
	// two separate getters cannot produce an epoch from one topology and a
	// shard count from the next.
	epoch, shards := d.pool.Topology()
	d.logger.Info("resize", "source", "admin", "from", from, "to", shards, "epoch", epoch)
	writeJSON(w, map[string]any{"shards": shards, "epoch": epoch})
}

// handleSnapshot writes a durable snapshot to -snapshot-path on demand.
func (d *daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if d.snapshotPath == "" {
		httpError(w, http.StatusBadRequest, "no -snapshot-path configured")
		return
	}
	if !d.opMu.TryLock() {
		conflict(w, "another resize or snapshot is in progress")
		return
	}
	defer d.opMu.Unlock()
	n, err := d.writeSnapshotLocked()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, map[string]any{"path": d.snapshotPath, "bytes": n})
}

// handleAutoscale enables, disables or tunes the autoscaling controller at
// runtime. The body is a partial update — absent fields keep their current
// value — and an empty object just reports the current state:
//
//	{"enabled":true,"min":2,"max":32,
//	 "grow_threshold":0.5,"shrink_threshold":0.05,"cooldown_ms":3000}
func (d *daemon) handleAutoscale(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Enabled         *bool    `json:"enabled"`
		Min             *int     `json:"min"`
		Max             *int     `json:"max"`
		GrowThreshold   *float64 `json:"grow_threshold"`
		ShrinkThreshold *float64 `json:"shrink_threshold"`
		CooldownMS      *int64   `json:"cooldown_ms"`
	}
	if err := decodeAdminJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	t := autoscale.Tuning{
		Enabled:         req.Enabled,
		Min:             req.Min,
		Max:             req.Max,
		GrowThreshold:   req.GrowThreshold,
		ShrinkThreshold: req.ShrinkThreshold,
	}
	if req.CooldownMS != nil {
		// Bound before converting: a huge millisecond count would wrap the
		// int64 duration and could land on a small positive value, slipping
		// garbage past Tune's non-negative check.
		if *req.CooldownMS < 0 || *req.CooldownMS > math.MaxInt64/int64(time.Millisecond) {
			httpError(w, http.StatusBadRequest, "cooldown_ms out of range")
			return
		}
		cd := time.Duration(*req.CooldownMS) * time.Millisecond
		t.Cooldown = &cd
	}
	st, err := d.ctrl.Tune(t)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	d.logger.Info("autoscale tuned", "enabled", st.Enabled, "min", st.Min, "max", st.Max,
		"grow_threshold", st.GrowThreshold, "shrink_threshold", st.ShrinkThreshold,
		"cooldown", st.Cooldown)
	writeJSON(w, autoscaleJSON(st))
}

// autoscaleJSON renders controller state for /autoscale and /stats.
func autoscaleJSON(st autoscale.State) map[string]any {
	return map[string]any{
		"enabled":               st.Enabled,
		"min":                   st.Min,
		"max":                   st.Max,
		"interval_ms":           st.Interval.Milliseconds(),
		"grow_threshold":        st.GrowThreshold,
		"shrink_threshold":      st.ShrinkThreshold,
		"cooldown_ms":           st.Cooldown.Milliseconds(),
		"load_ewma":             st.EWMA,
		"ticks":                 st.Ticks,
		"resizes":               st.Resizes,
		"cooldown_remaining_ms": st.CooldownRemaining.Milliseconds(),
		"last_decision":         decisionJSON(st.Last),
		"last_resize":           decisionJSON(st.LastResize),
	}
}

// decisionJSON renders one controller decision.
func decisionJSON(d autoscale.Decision) map[string]any {
	out := map[string]any{
		"action":   string(d.Action),
		"reason":   d.Reason,
		"from":     d.From,
		"to":       d.To,
		"pressure": d.Pressure,
		"ewma":     d.EWMA,
	}
	if !d.At.IsZero() {
		out["unix_ms"] = d.At.UnixMilli()
	}
	if d.Err != "" {
		out["error"] = d.Err
	}
	return out
}

// shardStatsJSON is one shard's row in /stats.
type shardStatsJSON struct {
	Processed  uint64 `json:"processed"`
	Dropped    uint64 `json:"dropped"`
	Halvings   uint64 `json:"halvings"`
	QueueDepth int    `json:"queue_depth"`
	MemorySize int    `json:"memory_size"`
}

// subscriberStatsJSON is one output-stream subscription's row in /stats.
type subscriberStatsJSON struct {
	ID        uint64 `json:"id"`
	Offered   uint64 `json:"offered"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Filtered  uint64 `json:"filtered"`
	Capped    uint64 `json:"capped"`
	Capacity  int    `json:"capacity"`
	Depth     int    `json:"depth"`
	Every     int    `json:"every"`
	Rate      uint32 `json:"rate"`
}

func (d *daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	st := d.pool.Stats()
	shards := make([]shardStatsJSON, len(st.Shards))
	for i, s := range st.Shards {
		shards[i] = shardStatsJSON(s)
	}
	subs := make([]subscriberStatsJSON, len(st.Subscribers))
	for i, s := range st.Subscribers {
		subs[i] = subscriberStatsJSON(s)
	}
	uptime := time.Since(d.start).Seconds()
	throughput := 0.0
	if uptime > 0 {
		throughput = float64(st.Processed) / uptime
	}
	var clusterStats any
	if d.cluster != nil {
		clusterStats = d.cluster.Stats()
	}
	writeJSON(w, map[string]any{
		"cluster":                   clusterStats,
		"uptime_seconds":            uptime,
		"processed":                 st.Processed,
		"dropped":                   st.Dropped,
		"emit_dropped":              st.EmitDropped,
		"throughput_ids_per_second": throughput,
		"stream_connections":        d.streamConns(),
		"shard_count":               len(shards),
		"strategy":                  d.pool.Strategy(),
		"map_epoch":                 st.Epoch,
		"restored":                  d.restored,
		"snapshot_bytes":            d.snapBytes.Load(),
		"snapshot_unix":             d.snapUnix.Load(),
		"autoscale":                 autoscaleJSON(d.ctrl.State()),
		"shards":                    shards,
		"subscribers":               subs,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("unsd", flag.ContinueOnError)
	var (
		httpAddr   = fs.String("http", "127.0.0.1:8080", "HTTP listen address")
		streamAddr = fs.String("stream", "", "framed stream TCP listen address (empty disables)")
		shards     = fs.Int("shards", 8, "sampler shards")
		c          = fs.Int("c", 25, "sampling memory size per shard")
		k          = fs.Int("k", 50, "sketch columns per shard")
		s          = fs.Int("s", 10, "sketch rows per shard")
		strategy   = fs.String("strategy", core.DefaultStrategy, "sampler strategy, one of: "+strings.Join(core.Strategies(), ", "))
		buffer     = fs.Int("buffer", 64, "per-shard ingest queue, in batches")
		block      = fs.Bool("block", false, "block producers on a full shard queue instead of dropping")
		seed       = fs.Uint64("seed", 0, "random seed (0 means time-derived)")
		snapPath   = fs.String("snapshot-path", "", "durable pool snapshot file: restored at boot, written by POST /snapshot, -snapshot-interval and shutdown (a restored snapshot supersedes -shards and -c)")
		snapEvery  = fs.Duration("snapshot-interval", 0, "write a snapshot this often (0 disables periodic snapshots; requires -snapshot-path)")
		autoOn     = fs.Bool("autoscale", false, "grow and shrink the shard plane automatically from observed load (queue occupancy and drop rates)")
		minSh      = fs.Int("min-shards", 1, "autoscaler's lower shard bound")
		maxSh      = fs.Int("max-shards", 64, "autoscaler's upper shard bound")
		autoEvery  = fs.Duration("autoscale-interval", time.Second, "autoscaler tick period")
		tlsCert    = fs.String("tls-cert", "", "TLS certificate (PEM) served by the HTTP and stream listeners; enables TLS together with -tls-key")
		tlsKey     = fs.String("tls-key", "", "TLS private key (PEM) for -tls-cert")
		tlsCA      = fs.String("tls-client-ca", "", "CA bundle (PEM): the framed stream listener then requires and verifies client certificates (mutual TLS); needs -tls-cert/-tls-key")
		adminTok   = fs.String("admin-token", "", "bearer token required on POST /resize, /snapshot and /autoscale (empty falls back to $UNSD_ADMIN_TOKEN; both empty leaves the admin surface open)")
		adminAll   = fs.Bool("admin-token-all", false, "require the admin token on every HTTP endpoint, the read surface included")
		snapKeyF   = fs.String("snapshot-key-file", "", "file with a 32-byte AES-256 key (raw or hex, mode 0600): snapshots are sealed with it at rest and unsealed at boot; plaintext snapshots still restore")
		snapKeyOld = fs.String("snapshot-key-file-old", "", "previous snapshot key (rotation): a snapshot that fails under -snapshot-key-file is retried under this key, and the next write re-seals it under the new one")
		strictPerm = fs.Bool("strict-snapshot-perms", false, "refuse to restore a group/world-accessible snapshot instead of warning")
		pprofOn    = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ behind the admin token (requires -admin-token)")
		logLevel   = fs.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFormat  = fs.String("log-format", "text", "structured log encoding: text or json")
		uniWindow  = fs.Int("uniformity-window", 4096, "sliding-window size of the live uniformity gauge on /metrics (0 disables the divergence samples)")
		traceEvery = fs.Int("trace-sample", 1024, "record one in N ingest batches as an ingest→σ′ span tree served by GET /trace (0 disables tracing)")
		clusterOn  = fs.Bool("cluster", false, "run as one member of a daemon fleet sharing the sampling plane (requires -stream, -members and an explicit -seed shared by every member)")
		membersF   = fs.String("members", "", "comma-separated stream addresses of every cluster member, this daemon's -stream address included")
		clusterCAF = fs.String("cluster-ca", "", "CA bundle (PEM) verifying other members' stream listeners; with -tls-cert/-tls-key the daemon's certificate doubles as its client certificate for mutual TLS")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var members []string
	if *clusterOn {
		if *streamAddr == "" {
			return errors.New("-cluster requires -stream (members exchange frames on the stream listener)")
		}
		if *seed == 0 {
			return errors.New("-cluster requires an explicit shared -seed (ids must route identically on every member)")
		}
		for _, m := range strings.Split(*membersF, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		if len(members) == 0 {
			return errors.New("-cluster requires -members")
		}
	} else if *membersF != "" {
		return errors.New("-members requires -cluster")
	}
	if *seed == 0 {
		*seed = uint64(time.Now().UnixNano())
	}
	if *snapEvery < 0 {
		return fmt.Errorf("negative -snapshot-interval %v", *snapEvery)
	}
	if *snapEvery > 0 && *snapPath == "" {
		return errors.New("-snapshot-interval requires -snapshot-path")
	}
	if *minSh < 1 || *maxSh < *minSh || *maxSh > shard.MaxShards {
		return fmt.Errorf("-min-shards/-max-shards range [%d, %d] outside [1, %d]", *minSh, *maxSh, shard.MaxShards)
	}
	if *autoEvery <= 0 {
		return fmt.Errorf("non-positive -autoscale-interval %v", *autoEvery)
	}
	token := *adminTok
	if token == "" {
		token = os.Getenv("UNSD_ADMIN_TOKEN")
	}
	d, err := newDaemon(options{
		shards: *shards, c: *c, k: *k, s: *s,
		strategy: *strategy,
		buffer:   *buffer, block: *block, seed: *seed,
		snapshotPath: *snapPath, snapshotInterval: *snapEvery,
		autoscale: *autoOn, minShards: *minSh, maxShards: *maxSh,
		autoscaleInterval: *autoEvery,
		tlsCert:           *tlsCert, tlsKey: *tlsKey, tlsClientCA: *tlsCA,
		adminToken: token, adminTokenAll: *adminAll,
		snapshotKeyFile:     *snapKeyF,
		snapshotKeyFileOld:  *snapKeyOld,
		strictSnapshotPerms: *strictPerm,
		pprof:               *pprofOn,
		logLevel:            *logLevel,
		logFormat:           *logFormat,
		uniformityWindow:    *uniWindow,
		traceSample:         *traceEvery,
		clusterMembers:      members,
		clusterSelf:         *streamAddr,
		clusterCA:           *clusterCAF,
		warnw:               w,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	if d.tlsHTTP != nil {
		fmt.Fprintf(w, "tls enabled (stream client certificates required: %v)\n", *tlsCA != "")
	}
	if d.adminTokenSet {
		if *adminAll {
			fmt.Fprintln(w, "bearer token required on all HTTP endpoints")
		} else {
			fmt.Fprintln(w, "bearer token required on admin endpoints")
		}
	}
	if d.snapKey != nil {
		fmt.Fprintln(w, "snapshots sealed with AES-256-GCM at rest")
	}
	if *autoOn {
		fmt.Fprintf(w, "autoscale enabled: shards in [%d, %d], tick %v\n", *minSh, *maxSh, *autoEvery)
	}
	if d.cluster != nil {
		fmt.Fprintf(w, "cluster enabled: %d members, self %s\n",
			len(d.cluster.Members()), *streamAddr)
	}
	if d.restored {
		st := d.pool.Stats()
		fmt.Fprintf(w, "restored %s: %d shards, epoch %d, %d ids processed\n",
			*snapPath, len(st.Shards), st.Epoch, st.Processed)
	}
	if *snapEvery > 0 {
		d.startSnapshotLoop(*snapEvery)
	}

	if *streamAddr != "" {
		ln, err := d.listenStream(*streamAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "stream listening on %s\n", ln.Addr())
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return err
	}
	if d.tlsHTTP != nil {
		// Server-authenticated TLS only on the HTTP side: callers prove
		// themselves per request with the bearer token, not a certificate.
		ln = tls.NewListener(ln, d.tlsHTTP)
	}
	srv := &http.Server{
		Handler: d.handler(),
		// A daemon built to absorb hostile floods must not let a client pin
		// a connection by trickling bytes (slowloris); the body size is
		// already bounded by maxPushBody.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(w, "http listening on %s\n", ln.Addr())
	fmt.Fprintf(w, "pool: %d shards, strategy %s, c=%d, sketch %dx%d, buffer %d, block=%v\n",
		d.pool.NumShards(), d.pool.Strategy(), *c, *k, *s, *buffer, *block)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(w, "shut down")
	return nil
}
