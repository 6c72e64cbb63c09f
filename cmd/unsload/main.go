// Command unsload replays adversarial load scenarios against a live unsd
// daemon: phased id streams (uniform baseline, targeted flood, churn storm,
// slow-trickle bias, recovery) pushed over the framed stream protocol at a
// target rate while GET /metrics is scraped, ending in a per-phase report —
// achieved rate, the daemon's own processed/dropped deltas (and a fleet
// member's exchanges per cluster Sample), the live uniformity gauge's
// trajectory, and client-observed latency percentiles (p50/p95/p99) for the
// push-ack and Sample RPC round trips, measured on one in -latency-sample
// batches. It turns the paper's evaluation into a drill an operator can run
// against a running fleet: push the attack, watch the gauge degrade, watch it
// recover.
//
// Usage:
//
//	unsload -addr 127.0.0.1:9101 -metrics http://127.0.0.1:9100/metrics \
//	        -rate 50000 -count 200000 -population 4096
//
// Against an unsd cluster, -addr takes a comma-separated member list (and
// -metrics a matching list, or one URL, or none). One generator per member
// pushes a distinct id stream — per-target seeds derive from -seed — with
// every phase started across the fleet together, the way a coordinated
// adversary would, and the per-phase reports merged into one fleet view:
// summed offered/processed/dropped, the interleaved uniformity trajectory
// across every member's gauge, worst-case latency percentiles.
//
// TLS mirrors the daemon's stream plane: -tls-ca verifies the server,
// -tls-cert/-tls-key present a client certificate when the daemon requires
// mutual TLS. -token is the admin bearer token, needed only against
// -admin-token-all daemons. -json emits the reports as one JSON document
// for scripting.
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nodesampling/internal/loadgen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "unsload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("unsload", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		addr       = fs.String("addr", "", "daemon stream endpoint(s), comma-separated for a cluster; required")
		metricsURL = fs.String("metrics", "", "daemon /metrics URL(s): one per -addr target, a single shared URL, or empty to disable scraping")
		token      = fs.String("token", "", "admin bearer token for -metrics (only needed against -admin-token-all)")
		rate       = fs.Float64("rate", 50000, "target push rate in ids/second (0 = unpaced)")
		count      = fs.Int("count", 100000, "ids pushed per phase")
		population = fs.Int("population", 4096, "legitimate id population size")
		batch      = fs.Int("batch", 1024, "ids per frame")
		scrapeMS   = fs.Int("scrape-ms", 250, "milliseconds between /metrics scrapes")
		seed       = fs.Uint64("seed", 1, "random seed for the phase streams")
		tlsCA      = fs.String("tls-ca", "", "CA bundle (PEM) to verify the daemon's stream certificate; enables TLS")
		tlsCert    = fs.String("tls-cert", "", "client certificate (PEM) for mutual TLS; needs -tls-key")
		tlsKey     = fs.String("tls-key", "", "client key (PEM) for -tls-cert")
		latEvery   = fs.Int("latency-sample", 8, "measure push-ack and Sample RPC round trips on one in N batches (0 disables; sampled batches serialise on the round trip)")
		jsonOut    = fs.Bool("json", false, "emit the reports as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return errors.New("-addr is required")
	}
	addrs := splitList(*addr)
	metricsURLs := splitList(*metricsURL)
	switch {
	case len(metricsURLs) <= 1:
		// Zero (scraping off) or one (every target scrapes the same
		// endpoint — fine for a shared gateway) applies to all targets.
		for len(metricsURLs) < len(addrs) {
			u := ""
			if len(metricsURLs) > 0 {
				u = metricsURLs[0]
			}
			metricsURLs = append(metricsURLs, u)
		}
	case len(metricsURLs) != len(addrs):
		return fmt.Errorf("-metrics lists %d URLs for %d targets", len(metricsURLs), len(addrs))
	}
	tlsCfg, err := clientTLSConfig(*tlsCA, *tlsCert, *tlsKey)
	if err != nil {
		return err
	}
	var hc *http.Client
	if tlsCfg != nil {
		hc = &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{TLSClientConfig: tlsCfg.Clone()},
		}
	}

	gens := make([]*loadgen.Generator, 0, len(addrs))
	phaseLists := make([][]loadgen.Phase, 0, len(addrs))
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()
	for i, target := range addrs {
		// Per-target seeds keep the member streams distinct — a fleet fed
		// identical ids would measure dedup, not routing.
		phases, err := loadgen.StandardPhases(*population, *count, *seed+uint64(i), *rate)
		if err != nil {
			return err
		}
		g, err := loadgen.New(loadgen.Config{
			Addr:           target,
			TLS:            tlsCfg,
			MetricsURL:     metricsURLs[i],
			Token:          *token,
			HTTPClient:     hc,
			Rate:           *rate,
			Batch:          *batch,
			ScrapeInterval: time.Duration(*scrapeMS) * time.Millisecond,
			LatencySample:  *latEvery,
		})
		if err != nil {
			return err
		}
		gens = append(gens, g)
		phaseLists = append(phaseLists, phases)
	}

	if !*jsonOut {
		fmt.Fprintf(w, "unsload: %d phases x %d ids against %s (rate %.0f ids/s",
			len(phaseLists[0]), *count, *addr, *rate)
		if len(addrs) > 1 {
			fmt.Fprintf(w, " per target, %d targets", len(addrs))
		}
		fmt.Fprintln(w, ")")
	}
	var (
		reports []loadgen.Report
		runErr  error
	)
	if len(gens) == 1 {
		reports, runErr = gens[0].Run(ctx, phaseLists[0])
	} else {
		reports, runErr = loadgen.RunMulti(ctx, gens, phaseLists)
	}
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	} else {
		for _, rep := range reports {
			printReport(w, rep)
		}
	}
	return runErr
}

// splitList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// printReport renders one phase the way an operator reads it: what was
// pushed, what the daemon admitted, and what the uniformity gauge said.
func printReport(w io.Writer, rep loadgen.Report) {
	fmt.Fprintf(w, "phase %-14s %8d ids in %8s (%.0f ids/s)\n",
		rep.Name, rep.Offered, rep.Duration.Round(time.Millisecond), rep.AchievedRate)
	if rep.HaveDeltas {
		fmt.Fprintf(w, "  daemon: processed %+.0f, dropped %+.0f (drop fraction %.3f)\n",
			rep.Processed, rep.Dropped, rep.DropFraction)
	}
	if rep.ClusterSamples > 0 {
		fmt.Fprintf(w, "  cluster: %.0f Samples, %.2f member exchanges per Sample\n", rep.ClusterSamples, rep.MemberExchanges/rep.ClusterSamples)
	}
	if max, ok := rep.MaxInputKL(); ok {
		final, _ := rep.FinalInputKL()
		fmt.Fprintf(w, "  uniformity: input KL max %.3f, final %.3f (%d scrapes",
			max, final, rep.Scrapes)
		if rep.ScrapeErrors > 0 {
			fmt.Fprintf(w, ", %d failed", rep.ScrapeErrors)
		}
		fmt.Fprintln(w, ")")
	} else if rep.Scrapes > 0 {
		fmt.Fprintf(w, "  uniformity: gauge quiet (%d scrapes)\n", rep.Scrapes)
	}
	printLatency(w, "push-ack", rep.PushAck)
	printLatency(w, "sample rpc", rep.SampleRPC)
}

// printLatency renders one client-observed latency summary line.
func printLatency(w io.Writer, what string, s loadgen.LatencySummary) {
	if s.Count == 0 {
		return
	}
	fmt.Fprintf(w, "  %-10s p50 %s  p95 %s  p99 %s  max %s (%d samples)\n",
		what+":", s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond), s.Count)
}

// clientTLSConfig assembles the stream-plane TLS client config from flag
// values; all empty means plaintext.
func clientTLSConfig(caPath, certPath, keyPath string) (*tls.Config, error) {
	if caPath == "" && certPath == "" && keyPath == "" {
		return nil, nil
	}
	if (certPath == "") != (keyPath == "") {
		return nil, errors.New("-tls-cert and -tls-key must be set together")
	}
	cfg := &tls.Config{MinVersion: tls.VersionTLS12}
	if caPath != "" {
		pem, err := os.ReadFile(caPath)
		if err != nil {
			return nil, err
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("no certificates in -tls-ca %s", caPath)
		}
		cfg.RootCAs = pool
	}
	if certPath != "" {
		cert, err := tls.LoadX509KeyPair(certPath, keyPath)
		if err != nil {
			return nil, err
		}
		cfg.Certificates = []tls.Certificate{cert}
	}
	return cfg, nil
}
