package main

// The daemon itself: the struct that wires the planes together, its
// construction and ordered teardown, and the admin gate every mutating
// operation passes through. Each plane's own code lives beside it — admin.go
// (HTTP handlers), durability.go (snapshots), security.go (TLS, token),
// cluster.go, stream.go, telemetry.go.

import (
	"crypto/sha256"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nodesampling/internal/autoscale"
	"nodesampling/internal/cluster"
	"nodesampling/internal/core"
	"nodesampling/internal/rng"
	"nodesampling/internal/shard"
	"nodesampling/internal/spans"
	"nodesampling/internal/telemetry"
)

// daemon ties the sharded pool to its stream front-end. The HTTP layer is a
// plain handler over it, so tests can drive a live listener via httptest.
type daemon struct {
	pool   *shard.Pool
	stream *streamServer // nil until listenStream
	ctrl   *autoscale.Controller
	start  time.Time

	// The cluster plane (nil/zero standalone): the fleet view of
	// internal/cluster, the quota randomness of the cluster-wide sample
	// rounds — one generator behind a mutex, held for the quota draw only
	// — and the request and miss counters only the daemon layer sees.
	cluster              *cluster.Cluster
	mergeMu              sync.Mutex
	mergeRNG             *rng.Xoshiro
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
	// autoscaler wait their turn. Only admin (below) takes it.
	opMu sync.Mutex

	// The durability plane: writeSnapshot serialises the pool to
	// snapshotPath (atomically: temp file + fsync + rename + directory
	// fsync), on demand (POST /snapshot), periodically (startSnapshotLoop)
	// and finally at Close.
	snapshotPath string
	restored     bool
	snapBytes    atomic.Int64
	snapUnix     atomic.Int64

	// needReseal marks a restore that left the on-disk blob behind the
	// configured key: sealed under the previous key (-snapshot-key-file-old)
	// or plaintext from before encryption. startSnapshotLoop then rewrites
	// it automatically, so rotation completes without waiting for the next
	// scheduled or manual snapshot.
	needReseal bool

	// stops is the teardown, one function per thing newDaemon started, in
	// start order; Close runs it newest first, and so does newDaemon when
	// construction fails half-way.
	stops []func()
}

// scaleTarget adapts the daemon for the autoscale controller: signals come
// straight from the pool, resizes go through the daemon's admin gate so
// the controller, manual POST /resize and the snapshot ticker never
// surprise each other.
type scaleTarget struct{ d *daemon }

func (t scaleTarget) LoadSignals() shard.LoadSignals { return t.d.pool.LoadSignals() }

func (t scaleTarget) Resize(n int) error {
	_, _, err := t.d.resize("autoscale", n, true)
	return err
}

// errAdminBusy is what admin answers a caller that would not wait.
var errAdminBusy = errors.New("another admin operation is in progress")

// admin runs op holding the admin gate. A caller that waits (the snapshot
// loop, the autoscaler, Close) queues behind whatever holds it; one that
// does not (the HTTP handlers) gets errAdminBusy at once, which it answers
// as 409 + Retry-After.
func (d *daemon) admin(wait bool, op func() error) error {
	if wait {
		d.opMu.Lock()
	} else if !d.opMu.TryLock() {
		return errAdminBusy
	}
	defer d.opMu.Unlock()
	return op()
}

// resize re-partitions the pool to n shards through the admin gate, for
// POST /resize (source "admin", answers busy) and the autoscaler (source
// "autoscale", waits) alike.
func (d *daemon) resize(source string, n int, wait bool) (epoch uint64, shards int, err error) {
	err = d.admin(wait, func() error {
		from := d.pool.NumShards()
		began := time.Now()
		if err := d.pool.Resize(n); err != nil {
			d.logger.Error("resize failed", "source", source, "from", from, "to", n, "error", err)
			return err
		}
		d.latency.Resize.ObserveSince(began)
		// One map load for the pair, so a concurrent autoscaler resize between
		// two separate getters cannot produce an epoch from one topology and a
		// shard count from the next.
		epoch, shards = d.pool.Topology()
		d.logger.Info("resize", "source", source, "from", from, "to", shards, "epoch", epoch)
		return nil
	})
	return epoch, shards, err
}

func newDaemon(o options) (*daemon, error) {
	warnw := o.warnw
	if warnw == nil {
		warnw = io.Discard
	}
	d := &daemon{
		start:         time.Now(),
		snapshotPath:  o.snapshotPath,
		adminTokenAll: o.adminTokenAll,
		pprofEnabled:  o.pprof,
		latency:       telemetry.NewLatency(),
	}
	var err error
	if d.logger, err = newLogger(o.warnw, o.logLevel, o.logFormat); err != nil {
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
	if len(o.adminToken) > 0 {
		d.adminTokenHash = sha256.Sum256([]byte(o.adminToken))
		d.adminTokenSet = true
	}
	if d.tlsHTTP, d.tlsStream, err = loadTLSConfigs(o); err != nil {
		return nil, err
	}
	var snapKeyOld []byte
	if o.snapshotKeyFile != "" {
		if o.snapshotPath == "" {
			return nil, errors.New("-snapshot-key-file requires -snapshot-path")
		}
		if d.snapKey, err = readSnapshotKey(o.snapshotKeyFile); err != nil {
			return nil, err
		}
	}
	if o.snapshotKeyFileOld != "" {
		if d.snapKey == nil {
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
	d.uniformity = telemetry.NewUniformity(o.uniformityWindow, uniformityInputEvery)
	d.tracer = spans.New(o.traceSample, traceRingSize)
	factory, err := core.NewFactory(core.DefaultStrategy, core.StrategyParams{K: o.k, S: o.s})
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
		OnEmitLag: d.latency.EmitLag.Observe,
	}
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
			if blob, d.needReseal, err = unsealSnapshot(blob, d.snapKey, snapKeyOld, warnw); err != nil {
				return nil, fmt.Errorf("restore %s: %w", o.snapshotPath, err)
			}
			if d.pool, err = shard.Restore(scfg, blob); err != nil {
				return nil, fmt.Errorf("restore %s: %w", o.snapshotPath, err)
			}
			d.restored = true
		case errors.Is(err, fs.ErrNotExist):
			// First boot: start fresh, snapshots will appear at this path.
		default:
			return nil, err
		}
	}
	if d.pool == nil {
		if d.pool, err = shard.New(scfg); err != nil {
			return nil, err
		}
	}
	d.stops = []func(){func() { _ = d.pool.Close() }}
	// Everything that can still refuse is built before anything is started,
	// so a failed boot has only the pool to stop: it leaves no member
	// connection dialling, no loop running and the snapshot untouched.
	if len(o.clusterMembers) > 0 {
		var clTLS *tls.Config
		if o.clusterCA != "" {
			if clTLS, err = loadClusterTLS(o.clusterCA, o.tlsCert, o.tlsKey); err != nil {
				d.Close()
				return nil, err
			}
		}
		d.cluster, err = cluster.New(cluster.Config{
			Members: o.clusterMembers,
			Self:    o.streamAddr,
			Seed:    o.seed,
			TLS:     clTLS,
			Logger:  d.logger,
			// Undeliverable forwards ingest locally under the "forward"
			// surface, which never re-forwards: misplaced, not lost.
			Fallback: func(ids []uint64) { _ = d.ingest(ids, "forward") },
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.mergeRNG = rng.New(rng.Mix64(o.seed ^ 0x636c7573746572)) // "cluster"
	}
	d.ctrl, err = autoscale.New(scaleTarget{d}, autoscale.Config{
		Min:      o.minShards,
		Max:      o.maxShards,
		Interval: o.autoscaleInterval,
		Enabled:  o.autoscale,
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.registry = d.newRegistry()

	// Start order is Close order reversed (see Close).
	if d.snapshotPath != "" {
		d.stops = append(d.stops, func() {
			// Ingest fronts are gone, so the barrier is exact: ids already
			// acknowledged into shard queues reach the samplers before the
			// final snapshot captures them.
			_ = d.pool.Flush()
			_, _ = d.writeSnapshot()
		})
	}
	if d.cluster != nil {
		d.cluster.Start()
		// After the ingest fronts: queued forwards drain into local ingest,
		// so the final snapshot still captures them.
		d.stops = append(d.stops, d.cluster.Close)
	}
	// The stream front-end starts later (serveStream, once there is a
	// listener); its place in the order is held here.
	d.stops = append(d.stops, func() {
		if d.stream != nil {
			d.stream.Close()
		}
	})
	if o.snapshotInterval > 0 || d.needReseal {
		d.stops = append(d.stops, d.startSnapshotLoop(o.snapshotInterval, d.needReseal))
	}
	d.ctrl.Start()
	d.stops = append(d.stops, d.ctrl.Close)
	return d, nil
}

// traceRingSize bounds the span ring behind GET /trace: old spans are
// overwritten, never accumulated, so tracing costs fixed memory no matter
// how long the daemon runs.
const traceRingSize = 4096

// Close shuts the autoscaler down first (no resize may race the
// teardown), then the stream front-end so no batch races the pool's
// shutdown, writes a final snapshot while the pool is still serving, then
// closes the pool (which closes the subscription hub and thereby every
// remaining stream subscription) — the stops in reverse start order:
// autoscaler, snapshot loop, stream, cluster, flush + final snapshot, pool.
// Idempotent.
func (d *daemon) Close() {
	for len(d.stops) > 0 {
		stop := d.stops[len(d.stops)-1]
		d.stops = d.stops[:len(d.stops)-1]
		stop()
	}
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
