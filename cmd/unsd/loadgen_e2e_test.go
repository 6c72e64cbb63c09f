package main

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodesampling/client"
	"nodesampling/internal/loadgen"
)

// TestScrapeUnderFlood is the observability acceptance e2e: the unsload
// generator drives the full standard scenario (uniform, targeted flood,
// churn, slow trickle, recovery) over the framed protocol while /metrics is
// scraped concurrently from multiple goroutines. Every scrape must be a
// valid exposition, the counters must reconcile with what was pushed, and
// the uniformity gauge must visibly degrade during the flood and recover
// afterwards. Run under -race this is also the telemetry plane's
// concurrency audit: scrapes race live ingest by construction.
func TestScrapeUnderFlood(t *testing.T) {
	o := defaultOptions()
	o.uniformityWindow = 512
	d, ln := testStreamDaemon(t, o)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// Background scrapers: valid expositions under fire, continuously.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var scrapes, scrapeFailures atomic.Uint64
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, err := client.ScrapeMetrics(ctx, nil, ts.URL+"/metrics", ""); err != nil {
					if ctx.Err() == nil {
						scrapeFailures.Add(1)
					}
				} else {
					scrapes.Add(1)
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// Each phase pushes enough to cycle the decimated input window
	// (window x every = 512 x 8 = 4096) twice over.
	const perPhase = 8192
	phases, err := loadgen.StandardPhases(256, perPhase, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadgen.New(loadgen.Config{
		Addr:           ln.Addr().String(),
		MetricsURL:     ts.URL + "/metrics",
		Batch:          1024,
		ScrapeInterval: 2 * time.Millisecond,
		LatencySample:  4, // 8 batches per phase -> 2 sampled round trips each
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Stream pushes are fire-and-forget, so a phase's wire completion races
	// the server's frame draining: run the phases one at a time and let each
	// settle into the gauge before asserting. settledKL waits until the
	// daemon has accounted for every id pushed so far, then returns the
	// input divergence of the now-quiescent window.
	pushed := 0
	settledKL := func(name string) float64 {
		t.Helper()
		var kl float64
		waitFor(t, name+" ids to be accounted and the gauge to report", func() bool {
			s, err := g.Scrape(context.Background())
			if err != nil {
				return false
			}
			proc, _ := s.Value("unsd_pool_processed_ids_total")
			drop, _ := s.Value("unsd_pool_dropped_ids_total")
			if proc+drop < float64(pushed) {
				return false
			}
			v, ok := s.Value("unsd_uniformity_input_kl")
			kl = v
			return ok
		})
		return kl
	}
	sampleRPCs := 0
	runPhase := func(ph loadgen.Phase) loadgen.Report {
		t.Helper()
		reports, err := g.Run(context.Background(), []loadgen.Phase{ph})
		if err != nil {
			t.Fatalf("phase %s: %v", ph.Name, err)
		}
		rep := reports[0]
		if rep.Offered != perPhase {
			t.Fatalf("phase %s offered %d, want %d", rep.Name, rep.Offered, perPhase)
		}
		if rep.Scrapes < 2 {
			t.Fatalf("phase %s completed %d scrapes", rep.Name, rep.Scrapes)
		}
		if rep.PushAck.Count < 1 || rep.SampleRPC.Count < 1 {
			t.Fatalf("phase %s measured no client-observed latency: %+v / %+v",
				rep.Name, rep.PushAck, rep.SampleRPC)
		}
		sampleRPCs += rep.SampleRPC.Count
		pushed += rep.Offered
		return rep
	}

	// The thresholds match the uniformity-gauge unit tests: multinomial
	// noise over a 512-id window of 256 ids stays well under 0.4, while the
	// flood's 80% point mass adds far more than 0.5.
	runPhase(phases[0]) // uniform baseline
	baseline := settledKL(loadgen.PhaseUniform)
	if baseline > 0.4 {
		t.Fatalf("uniform baseline input KL %.3f, want < 0.4", baseline)
	}
	runPhase(phases[1]) // targeted flood
	flooded := settledKL(loadgen.PhaseFlood)
	if flooded < baseline+0.5 {
		t.Fatalf("flood did not degrade the live gauge: baseline %.3f, flooded %.3f", baseline, flooded)
	}
	runPhase(phases[2]) // churn storm (coverage: ever-fresh ids)
	runPhase(phases[3]) // slow-trickle bias
	runPhase(phases[4]) // uniform recovery
	recovered := settledKL(loadgen.PhaseRecovery)
	if recovered > 0.4 {
		t.Fatalf("gauge did not recover: flooded %.3f, recovered %.3f", flooded, recovered)
	}

	// Cross-check the client-observed latency against the server's own
	// histograms: every sampled Sample RPC was timed by the daemon too, and
	// every wire batch crossed the ingest funnel.
	final, err := g.Scrape(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h := final.Histogram("unsd_sample_duration_seconds"); h == nil || h.Count < float64(sampleRPCs) {
		t.Fatalf("server sample histogram does not cover the %d client-sampled RPCs: %+v", sampleRPCs, h)
	}
	if h := final.Histogram("unsd_ingest_batch_duration_seconds"); h == nil || h.Count < float64(pushed/1024) {
		t.Fatalf("server ingest histogram missed wire batches: %+v", h)
	}

	cancel()
	wg.Wait()
	if n := scrapeFailures.Load(); n > 0 {
		t.Fatalf("%d concurrent scrapes failed during the flood", n)
	}
	if scrapes.Load() == 0 {
		t.Fatal("background scrapers never completed a scrape")
	}
}
