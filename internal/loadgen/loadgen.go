// Package loadgen drives a live unsd daemon the way the paper's adversary
// drives the sampler: phased id streams — a uniform baseline, a targeted
// flood, a churn storm, a slow-trickle bias — pushed over the framed
// protocol (version 2) at a target rate, while GET /metrics is scraped so
// each phase's report carries the daemon's own view of the experiment:
// ingest counters, drop fractions, and the live uniformity gauge's
// trajectory. It is the measurement half of the observability plane: the
// telemetry package exports the gauges, loadgen exercises them against a
// running fleet and turns the scrape series into evidence.
//
// The generator is deliberately a pure client: it drives the daemon through
// the public client package, like any other peer (so it exercises the TLS
// and mTLS edge too), and reads only public surfaces, which keeps it honest
// — a report line is something an operator could reproduce with curl and a
// stopwatch.
package loadgen

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net/http"
	"time"

	"nodesampling/client"
	"nodesampling/internal/adversary"
	"nodesampling/internal/netgossip"
	"nodesampling/internal/rng"
	"nodesampling/internal/stream"
	"nodesampling/internal/telemetry"
	"nodesampling/nodeid"
)

// Config configures a Generator.
type Config struct {
	// Addr is the daemon's framed stream endpoint (host:port). Required.
	Addr string
	// TLS, when non-nil, wraps the connection (set RootCAs for the daemon's
	// CA and Certificates for mutual TLS).
	TLS *tls.Config
	// MetricsURL is the daemon's /metrics endpoint; empty disables scraping
	// and the per-phase reports carry no gauge trajectory.
	MetricsURL string
	// Token is the admin bearer token, needed only when the daemon runs
	// with -admin-token-all.
	Token string
	// HTTPClient overrides the scrape client (nil uses a 5s-timeout client;
	// set one with a TLS transport when MetricsURL is https).
	HTTPClient *http.Client
	// Rate is the target push rate in ids/second; 0 means unpaced (as fast
	// as the connection accepts).
	Rate float64
	// Batch is the ids-per-frame granularity, clamped to the protocol's
	// MaxBatch; 0 means 1024.
	Batch int
	// ScrapeInterval is how often /metrics is sampled during a phase; 0
	// means 250ms.
	ScrapeInterval time.Duration
	// LatencySample measures client-observed latency on one in N batches:
	// the push-ack round trip (client.PushBatch followed by a Ping whose
	// Pong proves the daemon's read loop consumed the batch — frames on one
	// connection are handled in order, through the ingest funnel, before
	// the clock stops) and a client.Sample round trip. 0 disables latency sampling; the
	// measured batches serialise on the round trip, so a small N trades
	// throughput for latency resolution.
	LatencySample int
}

// Phase is one segment of a load run: Count ids drawn from Source, pushed
// at Rate (0 inherits the generator's rate).
type Phase struct {
	Name   string
	Source stream.Source
	Count  int
	Rate   float64
}

// GaugePoint is one /metrics observation of the uniformity gauge.
type GaugePoint struct {
	Elapsed  time.Duration // since the phase started
	InputKL  float64
	OutputKL float64
	HasIn    bool // the scrape carried an input-KL sample
	HasOut   bool
}

// Report is the outcome of one phase.
type Report struct {
	Name         string
	Offered      int           // ids pushed over the wire
	Duration     time.Duration // wall clock for the phase
	AchievedRate float64       // ids/second actually sustained
	Scrapes      int           // successful /metrics scrapes
	ScrapeErrors int
	Gauge        []GaugePoint // uniformity trajectory, one point per scrape

	// Counter deltas over the phase, from the first and last scrape
	// (NaN-free only when scraping is enabled and both scrapes succeeded).
	Processed    float64 // unsd_pool_processed_ids_total delta
	Dropped      float64 // unsd_pool_dropped_ids_total delta
	DropFraction float64 // Dropped / (Processed + Dropped), 0 when idle
	HaveDeltas   bool
	// A fleet member's sample plane (0 from a standalone target).
	ClusterSamples  float64 // unsd_cluster_sample_fanouts_total delta
	MemberExchanges float64 // unsd_cluster_sample_rpcs_total delta, all members

	// Client-observed latency percentiles (Config.LatencySample): the
	// push-ack round trip and the Sample RPC round trip, as a caller on
	// this connection actually experienced them — the wire-side complement
	// of the daemon's own unsd_*_duration_seconds histograms.
	PushAck   LatencySummary
	SampleRPC LatencySummary
}

// MaxInputKL returns the highest input divergence observed in the phase
// (0, false when the gauge never reported).
func (r Report) MaxInputKL() (float64, bool) {
	max, ok := 0.0, false
	for _, p := range r.Gauge {
		if p.HasIn && (!ok || p.InputKL > max) {
			max, ok = p.InputKL, true
		}
	}
	return max, ok
}

// FinalInputKL returns the last observed input divergence.
func (r Report) FinalInputKL() (float64, bool) {
	for i := len(r.Gauge) - 1; i >= 0; i-- {
		if r.Gauge[i].HasIn {
			return r.Gauge[i].InputKL, true
		}
	}
	return 0, false
}

// Generator pushes phased id streams at a live daemon.
type Generator struct {
	cfg Config
	c   *client.Client
	hc  *http.Client
}

// New validates cfg and dials the stream endpoint.
func New(cfg Config) (*Generator, error) {
	if cfg.Addr == "" {
		return nil, errors.New("loadgen: no stream address")
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("loadgen: negative rate %v", cfg.Rate)
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("loadgen: negative batch %d", cfg.Batch)
	}
	if cfg.Batch == 0 {
		cfg.Batch = 1024
	}
	if cfg.LatencySample < 0 {
		return nil, fmt.Errorf("loadgen: negative latency sample interval %d", cfg.LatencySample)
	}
	if cfg.Batch > netgossip.MaxBatch {
		cfg.Batch = netgossip.MaxBatch
	}
	if cfg.ScrapeInterval <= 0 {
		cfg.ScrapeInterval = 250 * time.Millisecond
	}
	c, err := client.DialWithOptions(cfg.Addr, client.DialOptions{TLS: cfg.TLS})
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	return &Generator{cfg: cfg, c: c, hc: hc}, nil
}

// Close releases the stream connection.
func (g *Generator) Close() error { return g.c.Close() }

// Run executes the phases in order and returns one report per completed
// phase. A push failure or context cancellation aborts the run; the reports
// accumulated so far come back alongside the error.
func (g *Generator) Run(ctx context.Context, phases []Phase) ([]Report, error) {
	reports := make([]Report, 0, len(phases))
	for _, ph := range phases {
		rep, err := g.runPhase(ctx, ph)
		reports = append(reports, rep)
		if err != nil {
			return reports, fmt.Errorf("loadgen: phase %s: %w", ph.Name, err)
		}
	}
	return reports, nil
}

func (g *Generator) runPhase(ctx context.Context, ph Phase) (Report, error) {
	rep := Report{Name: ph.Name}
	if ph.Source == nil {
		return rep, errors.New("nil source")
	}
	if ph.Count <= 0 {
		return rep, fmt.Errorf("non-positive count %d", ph.Count)
	}
	rate := ph.Rate
	if rate == 0 {
		rate = g.cfg.Rate
	}

	start := time.Now()
	var first, last *telemetry.Scrape
	scrape := func() {
		if g.cfg.MetricsURL == "" {
			return
		}
		s, err := g.Scrape(ctx)
		if err != nil {
			rep.ScrapeErrors++
			return
		}
		rep.Scrapes++
		if first == nil {
			first = s
		}
		last = s
		pt := GaugePoint{Elapsed: time.Since(start)}
		pt.InputKL, pt.HasIn = s.Value("unsd_uniformity_input_kl")
		pt.OutputKL, pt.HasOut = s.Value("unsd_uniformity_output_kl")
		rep.Gauge = append(rep.Gauge, pt)
	}
	scrape()
	nextScrape := start.Add(g.cfg.ScrapeInterval)

	batch := make([]nodeid.NodeID, 0, g.cfg.Batch)
	var pushAcks, sampleRTTs []time.Duration
	sent, batches := 0, 0
	for sent < ph.Count {
		if err := ctx.Err(); err != nil {
			rep.Duration = time.Since(start)
			return rep, err
		}
		n := g.cfg.Batch
		if left := ph.Count - sent; left < n {
			n = left
		}
		batch = batch[:0]
		for i := 0; i < n; i++ {
			batch = append(batch, nodeid.NodeID(ph.Source.Next()))
		}
		batches++
		began := time.Now()
		err := g.c.PushBatch(batch)
		if err == nil && g.cfg.LatencySample > 0 && batches%g.cfg.LatencySample == 0 {
			if err = g.c.Ping(); err == nil {
				pushAcks = append(pushAcks, time.Since(began))
				began = time.Now()
				if _, err = g.c.Sample(1); err == nil {
					sampleRTTs = append(sampleRTTs, time.Since(began))
				}
			}
		}
		if err != nil {
			rep.Duration = time.Since(start)
			return rep, err
		}
		sent += n
		rep.Offered = sent

		// Pacing: the batch that just went out "costs" n/rate seconds;
		// sleep until the schedule catches up, scraping on the way.
		if rate > 0 {
			due := start.Add(time.Duration(float64(sent) / rate * float64(time.Second)))
			for {
				now := time.Now()
				if !now.Before(due) {
					break
				}
				wait := due.Sub(now)
				if g.cfg.MetricsURL != "" && nextScrape.Before(due) {
					if w := nextScrape.Sub(now); w < wait {
						wait = w
					}
				}
				if wait > 0 {
					select {
					case <-ctx.Done():
						rep.Duration = time.Since(start)
						return rep, ctx.Err()
					case <-time.After(wait):
					}
				}
				if g.cfg.MetricsURL != "" && !time.Now().Before(nextScrape) {
					scrape()
					nextScrape = time.Now().Add(g.cfg.ScrapeInterval)
				}
			}
		} else if g.cfg.MetricsURL != "" && !time.Now().Before(nextScrape) {
			scrape()
			nextScrape = time.Now().Add(g.cfg.ScrapeInterval)
		}
	}
	scrape()
	rep.Duration = time.Since(start)
	if secs := rep.Duration.Seconds(); secs > 0 {
		rep.AchievedRate = float64(rep.Offered) / secs
	}
	rep.PushAck = summarize(pushAcks)
	rep.SampleRPC = summarize(sampleRTTs)
	if first != nil && last != nil && rep.Scrapes >= 2 {
		p0, ok0 := first.Value("unsd_pool_processed_ids_total")
		p1, ok1 := last.Value("unsd_pool_processed_ids_total")
		d0, ok2 := first.Value("unsd_pool_dropped_ids_total")
		d1, ok3 := last.Value("unsd_pool_dropped_ids_total")
		if ok0 && ok1 && ok2 && ok3 {
			rep.Processed = p1 - p0
			rep.Dropped = d1 - d0
			if total := rep.Processed + rep.Dropped; total > 0 {
				rep.DropFraction = rep.Dropped / total
			}
			rep.HaveDeltas = true
		}
		f0, _ := first.Sum("unsd_cluster_sample_fanouts_total")
		f1, _ := last.Sum("unsd_cluster_sample_fanouts_total")
		x0, _ := first.Sum("unsd_cluster_sample_rpcs_total")
		x1, _ := last.Sum("unsd_cluster_sample_rpcs_total")
		rep.ClusterSamples, rep.MemberExchanges = f1-f0, x1-x0
	}
	return rep, nil
}

// Scrape fetches and parses the daemon's /metrics once. It is the client
// half of the exposition surface: any tool wanting the daemon's counters
// without a Prometheus server goes through here.
func (g *Generator) Scrape(ctx context.Context) (*telemetry.Scrape, error) {
	return client.ScrapeMetrics(ctx, g.hc, g.cfg.MetricsURL, g.cfg.Token)
}

// Scenario names for StandardPhases.
const (
	PhaseUniform     = "uniform"
	PhaseFlood       = "targeted-flood"
	PhaseChurn       = "churn-storm"
	PhaseSlowTrickle = "slow-trickle"
	PhaseRecovery    = "recovery"
)

// churnSource emits ever-fresh ids — every draw is an identifier the
// daemon has never seen, the stream of a population churning faster than
// the sampler's memory. Deterministic per seed.
type churnSource struct {
	next uint64
	salt uint64
}

func (c *churnSource) Next() uint64 {
	c.next++
	return rng.Mix64(c.next ^ c.salt)
}

// NewChurnSource returns a Source whose every id is new, derived from seed.
func NewChurnSource(seed uint64) stream.Source {
	return &churnSource{salt: rng.Mix64(seed ^ 0x9e3779b97f4a7c15)}
}

// StandardPhases builds the canonical unsload scenario over a population of
// n ids: a uniform baseline, a targeted flood (one victim id carrying 80%
// of the stream — the paper's peak attack), a churn storm of never-repeated
// ids, a slow-trickle bias (32 colluding ids quietly holding 30%), and a
// uniform recovery tail. Each phase pushes `count` ids; the trickle phase
// runs at a quarter of the configured rate to model the low-and-slow
// attacker (unpaced generators keep it unpaced).
func StandardPhases(n, count int, seed uint64, rate float64) ([]Phase, error) {
	if n < 64 {
		return nil, fmt.Errorf("loadgen: population %d too small (need >= 64)", n)
	}
	if count <= 0 {
		return nil, fmt.Errorf("loadgen: non-positive phase count %d", count)
	}
	base := stream.UniformPMF(n)

	uniformSrc, err := stream.NewCategorical(base, rng.New(seed))
	if err != nil {
		return nil, err
	}
	floodPMF, err := adversary.Peak(base, uint64(n/2), 0.8)
	if err != nil {
		return nil, err
	}
	floodSrc, err := stream.NewCategorical(floodPMF, rng.New(seed+1))
	if err != nil {
		return nil, err
	}
	tricklePMF, err := adversary.OverRepresent(base, adversary.FirstIDs(32), 0.3)
	if err != nil {
		return nil, err
	}
	trickleSrc, err := stream.NewCategorical(tricklePMF, rng.New(seed+2))
	if err != nil {
		return nil, err
	}
	recoverySrc, err := stream.NewCategorical(base, rng.New(seed+3))
	if err != nil {
		return nil, err
	}
	return []Phase{
		{Name: PhaseUniform, Source: uniformSrc, Count: count},
		{Name: PhaseFlood, Source: floodSrc, Count: count},
		{Name: PhaseChurn, Source: NewChurnSource(seed), Count: count},
		{Name: PhaseSlowTrickle, Source: trickleSrc, Count: count, Rate: rate / 4},
		{Name: PhaseRecovery, Source: recoverySrc, Count: count},
	}, nil
}
