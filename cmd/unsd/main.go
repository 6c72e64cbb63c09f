package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nodesampling/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "unsd:", err)
		os.Exit(1)
	}
}

// options collects the daemon's configuration. parseOptions binds the flags
// straight into it (-cluster and -members parse into clusterMembers), so
// the flag table below is the one place a default is stated; newDaemon
// takes the values as given.
type options struct {
	// The listener addresses run binds. streamAddr ("" disables the framed
	// listener) is also this member's identity in clusterMembers.
	httpAddr, streamAddr string

	shards, c, k, s  int
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
	// (streamAddr); clusterCA verifies other members' stream listeners when
	// they serve TLS.
	clusterMembers []string
	clusterCA      string

	// warnw receives boot-time warnings (nil discards them); run() passes
	// its output writer.
	warnw io.Writer

	// The autoscaling plane: the controller is always constructed (so POST
	// /autoscale can arm it at runtime and /stats always shows live
	// pressure) and starts enabled only with -autoscale.
	autoscale         bool
	minShards         int
	maxShards         int
	autoscaleInterval time.Duration
}

// parseOptions is the flag table and the cross-flag checks: the command
// line in, a validated options out.
func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("unsd", flag.ContinueOnError)
	fs.StringVar(&o.httpAddr, "http", "127.0.0.1:8080", "HTTP listen address")
	fs.StringVar(&o.streamAddr, "stream", "", "framed stream TCP listen address (empty disables)")
	fs.IntVar(&o.shards, "shards", 8, "sampler shards")
	fs.IntVar(&o.c, "c", 25, "sampling memory size per shard")
	fs.IntVar(&o.k, "k", 50, "sketch columns per shard")
	fs.IntVar(&o.s, "s", 10, "sketch rows per shard")
	fs.IntVar(&o.buffer, "buffer", 64, "per-shard ingest queue, in batches")
	fs.BoolVar(&o.block, "block", false, "block producers on a full shard queue instead of dropping")
	fs.Uint64Var(&o.seed, "seed", 0, "random seed (0 means time-derived)")
	fs.StringVar(&o.snapshotPath, "snapshot-path", "", "durable pool snapshot file: restored at boot, written by POST /snapshot, -snapshot-interval and shutdown (a restored snapshot supersedes -shards and -c)")
	fs.DurationVar(&o.snapshotInterval, "snapshot-interval", 0, "write a snapshot this often (0 disables periodic snapshots; requires -snapshot-path)")
	fs.BoolVar(&o.autoscale, "autoscale", false, "grow and shrink the shard plane automatically from observed load (queue occupancy and drop rates)")
	fs.IntVar(&o.minShards, "min-shards", 1, "autoscaler's lower shard bound")
	fs.IntVar(&o.maxShards, "max-shards", 64, "autoscaler's upper shard bound")
	fs.DurationVar(&o.autoscaleInterval, "autoscale-interval", time.Second, "autoscaler tick period")
	fs.StringVar(&o.tlsCert, "tls-cert", "", "TLS certificate (PEM) served by the HTTP and stream listeners; enables TLS together with -tls-key")
	fs.StringVar(&o.tlsKey, "tls-key", "", "TLS private key (PEM) for -tls-cert")
	fs.StringVar(&o.tlsClientCA, "tls-client-ca", "", "CA bundle (PEM): the framed stream listener then requires and verifies client certificates (mutual TLS); needs -tls-cert/-tls-key")
	fs.StringVar(&o.adminToken, "admin-token", "", "bearer token required on the admin surface: POST /resize, /snapshot, /autoscale and /migrate, GET /trace and the -pprof mount (empty falls back to $UNSD_ADMIN_TOKEN; both empty leaves the admin surface open)")
	fs.BoolVar(&o.adminTokenAll, "admin-token-all", false, "require the admin token on every HTTP endpoint, the read surface included")
	fs.StringVar(&o.snapshotKeyFile, "snapshot-key-file", "", "file with a 32-byte AES-256 key (raw or hex, mode 0600): snapshots are sealed with it at rest and unsealed at boot; plaintext snapshots still restore")
	fs.StringVar(&o.snapshotKeyFileOld, "snapshot-key-file-old", "", "previous snapshot key (rotation): a snapshot that fails under -snapshot-key-file is retried under this key, and the next write re-seals it under the new one")
	fs.BoolVar(&o.strictSnapshotPerms, "strict-snapshot-perms", false, "refuse to restore a group/world-accessible snapshot instead of warning")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ behind the admin token (requires -admin-token)")
	fs.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log encoding: text or json")
	fs.IntVar(&o.uniformityWindow, "uniformity-window", 4096, "sliding-window size of the live uniformity gauge on /metrics (0 disables the divergence samples)")
	fs.IntVar(&o.traceSample, "trace-sample", 1024, "record one in N ingest batches as an ingest→σ′ span tree served by GET /trace (0 disables tracing)")
	clusterOn := fs.Bool("cluster", false, "run as one member of a daemon fleet sharing the sampling plane (requires -stream, -members and an explicit -seed shared by every member)")
	members := fs.String("members", "", "comma-separated stream addresses of every cluster member, this daemon's -stream address included")
	fs.StringVar(&o.clusterCA, "cluster-ca", "", "CA bundle (PEM) verifying other members' stream listeners; with -tls-cert/-tls-key the daemon's certificate doubles as its client certificate for mutual TLS")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *clusterOn {
		if o.streamAddr == "" {
			return o, errors.New("-cluster requires -stream (members exchange frames on the stream listener)")
		}
		if o.seed == 0 {
			return o, errors.New("-cluster requires an explicit shared -seed (ids must route identically on every member)")
		}
		for _, m := range strings.Split(*members, ",") {
			if m = strings.TrimSpace(m); m != "" {
				o.clusterMembers = append(o.clusterMembers, m)
			}
		}
		if len(o.clusterMembers) == 0 {
			return o, errors.New("-cluster requires -members")
		}
	} else if *members != "" {
		return o, errors.New("-members requires -cluster")
	}
	if o.seed == 0 {
		o.seed = uint64(time.Now().UnixNano())
	}
	if o.snapshotInterval < 0 {
		return o, fmt.Errorf("negative -snapshot-interval %v", o.snapshotInterval)
	}
	if o.snapshotInterval > 0 && o.snapshotPath == "" {
		return o, errors.New("-snapshot-interval requires -snapshot-path")
	}
	if o.minShards < 1 || o.maxShards < o.minShards || o.maxShards > shard.MaxShards {
		return o, fmt.Errorf("-min-shards/-max-shards range [%d, %d] outside [1, %d]", o.minShards, o.maxShards, shard.MaxShards)
	}
	if o.autoscaleInterval <= 0 {
		return o, fmt.Errorf("non-positive -autoscale-interval %v", o.autoscaleInterval)
	}
	if o.adminToken == "" {
		o.adminToken = os.Getenv("UNSD_ADMIN_TOKEN")
	}
	return o, nil
}

func run(ctx context.Context, args []string, w io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	o.warnw = w
	d, err := newDaemon(o)
	if err != nil {
		return err
	}
	defer d.Close()
	if d.tlsHTTP != nil {
		fmt.Fprintf(w, "tls enabled (stream client certificates required: %v)\n", o.tlsClientCA != "")
	}
	if d.adminTokenSet {
		if o.adminTokenAll {
			fmt.Fprintln(w, "bearer token required on all HTTP endpoints")
		} else {
			fmt.Fprintln(w, "bearer token required on admin endpoints")
		}
	}
	if d.snapKey != nil {
		fmt.Fprintln(w, "snapshots sealed with AES-256-GCM at rest")
	}
	if o.autoscale {
		fmt.Fprintf(w, "autoscale enabled: shards in [%d, %d], tick %v\n", o.minShards, o.maxShards, o.autoscaleInterval)
	}
	if d.cluster != nil {
		fmt.Fprintf(w, "cluster enabled: %d members, self %s\n",
			len(d.cluster.Members()), o.streamAddr)
	}
	if d.restored {
		st := d.pool.Stats()
		fmt.Fprintf(w, "restored %s: %d shards, epoch %d, %d ids processed\n",
			o.snapshotPath, len(st.Shards), st.Epoch, st.Processed)
	}
	if o.streamAddr != "" {
		ln, err := d.listenStream(o.streamAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "stream listening on %s\n", ln.Addr())
	}

	ln, err := net.Listen("tcp", o.httpAddr)
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
		d.pool.NumShards(), d.pool.Strategy(), o.c, o.k, o.s, o.buffer, o.block)

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
