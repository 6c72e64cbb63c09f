package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodesampling/client"
	"nodesampling/internal/netgossip"
)

// frameSink is a minimal framed-protocol server: it counts PushBatch ids
// and tracks per-id frequencies, which is all the generator tests need.
type frameSink struct {
	ln net.Listener

	mu     sync.Mutex
	ids    uint64
	counts map[uint64]uint64
}

func newFrameSink(t *testing.T) *frameSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &frameSink{ln: ln, counts: make(map[uint64]uint64)}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return s
}

func (s *frameSink) serve(conn net.Conn) {
	defer conn.Close()
	for {
		f, err := netgossip.ReadFrame(conn)
		if err != nil {
			return
		}
		switch f.Type {
		case netgossip.FramePushBatch:
			s.mu.Lock()
			s.ids += uint64(len(f.IDs))
			for _, id := range f.IDs {
				s.counts[id]++
			}
			s.mu.Unlock()
		case netgossip.FramePing:
			if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FramePong, Token: f.Token}); err != nil {
				return
			}
		case netgossip.FrameSample:
			if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FrameSampleResp, IDs: []uint64{1}}); err != nil {
				return
			}
		}
	}
}

func (s *frameSink) total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ids
}

func (s *frameSink) count(id uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[id]
}

func (s *frameSink) addr() string { return s.ln.Addr().String() }

// metricsStub serves a scrape whose counters advance on every hit, so delta
// logic has something to measure.
func metricsStub(t *testing.T, wantToken string) (*httptest.Server, *atomic.Uint64) {
	t.Helper()
	var hits atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wantToken != "" && r.Header.Get("Authorization") != "Bearer "+wantToken {
			http.Error(w, "no", http.StatusUnauthorized)
			return
		}
		n := hits.Add(1)
		fmt.Fprintf(w, "# HELP unsd_pool_processed_ids_total x\n# TYPE unsd_pool_processed_ids_total counter\nunsd_pool_processed_ids_total %d\n", n*100)
		fmt.Fprintf(w, "# HELP unsd_pool_dropped_ids_total x\n# TYPE unsd_pool_dropped_ids_total counter\nunsd_pool_dropped_ids_total %d\n", n*25)
		fmt.Fprintf(w, "# HELP unsd_uniformity_input_kl x\n# TYPE unsd_uniformity_input_kl gauge\nunsd_uniformity_input_kl %g\n", 0.5+float64(n))
		// A fleet member's sample plane: 40 cluster Samples per scrape, 4
		// exchanges with each of two members.
		fmt.Fprintf(w, "# HELP unsd_cluster_sample_fanouts_total x\n# TYPE unsd_cluster_sample_fanouts_total counter\nunsd_cluster_sample_fanouts_total %d\n", n*40)
		fmt.Fprintf(w, "# HELP unsd_cluster_sample_rpcs_total x\n# TYPE unsd_cluster_sample_rpcs_total counter\nunsd_cluster_sample_rpcs_total{member=\"a\"} %d\nunsd_cluster_sample_rpcs_total{member=\"b\"} %d\n", n*4, n*4)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestGeneratorPushesAndScrapes(t *testing.T) {
	sink := newFrameSink(t)
	ms, hits := metricsStub(t, "")
	g, err := New(Config{
		Addr:           sink.addr(),
		MetricsURL:     ms.URL,
		Batch:          256,
		ScrapeInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	phases, err := StandardPhases(256, 2048, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := g.Run(context.Background(), phases[:2]) // uniform + flood
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for _, rep := range reports {
		if rep.Offered != 2048 {
			t.Fatalf("phase %s offered %d, want 2048", rep.Name, rep.Offered)
		}
		if rep.Scrapes < 2 {
			t.Fatalf("phase %s scraped %d times, want >= 2 (start + end)", rep.Name, rep.Scrapes)
		}
		if !rep.HaveDeltas {
			t.Fatalf("phase %s has no counter deltas", rep.Name)
		}
		if rep.Processed <= 0 || rep.Dropped <= 0 {
			t.Fatalf("phase %s deltas processed=%v dropped=%v, want positive", rep.Name, rep.Processed, rep.Dropped)
		}
		if rep.DropFraction < 0.19 || rep.DropFraction > 0.21 {
			t.Fatalf("phase %s drop fraction %v, want 0.2 (stub serves 4:1)", rep.Name, rep.DropFraction)
		}
		if rep.ClusterSamples <= 0 || rep.MemberExchanges/rep.ClusterSamples != 0.2 {
			t.Fatalf("phase %s: %v cluster Samples, %v member exchanges, want 0.2 per Sample (stub serves 8:40)", rep.Name, rep.ClusterSamples, rep.MemberExchanges)
		}
		if kl, ok := rep.MaxInputKL(); !ok || kl <= 0 {
			t.Fatalf("phase %s input KL trajectory missing (kl=%v ok=%v)", rep.Name, kl, ok)
		}
		if rep.AchievedRate <= 0 {
			t.Fatalf("phase %s achieved rate %v", rep.Name, rep.AchievedRate)
		}
	}
	if hits.Load() == 0 {
		t.Fatal("metrics endpoint never scraped")
	}
	waitFor(t, "all pushed ids to land in the sink", func() bool {
		return sink.total() == 4096
	})
	// The flood phase concentrates 80% on id n/2 = 128: the sink must see
	// it dominate.
	if c := sink.count(128); c < 1200 {
		t.Fatalf("flood victim id seen %d times of 2048, want the 80%% share", c)
	}
}

func TestGeneratorPacing(t *testing.T) {
	sink := newFrameSink(t)
	g, err := New(Config{Addr: sink.addr(), Batch: 100, Rate: 4000})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	phases, err := StandardPhases(64, 1000, 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	reports, err := g.Run(context.Background(), phases[:1])
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 1000 ids at 4000/s is 250ms of schedule; granting generous slack for
	// CI, the run must take materially longer than unpaced (~instant) and
	// the report must agree with the wall clock.
	if elapsed < 200*time.Millisecond {
		t.Fatalf("paced run finished in %v, want >= 200ms", elapsed)
	}
	rep := reports[0]
	if rep.AchievedRate > 6000 {
		t.Fatalf("achieved rate %v ids/s against a 4000 target", rep.AchievedRate)
	}
}

func TestGeneratorScrapeToken(t *testing.T) {
	sink := newFrameSink(t)
	ms, _ := metricsStub(t, "sekrit")
	g, err := New(Config{Addr: sink.addr(), MetricsURL: ms.URL, Token: "sekrit"})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Scrape(context.Background()); err != nil {
		t.Fatalf("authorised scrape: %v", err)
	}
	if _, err := client.ScrapeMetrics(context.Background(), nil, ms.URL, ""); err == nil {
		t.Fatal("tokenless scrape of a gated endpoint succeeded")
	}
}

func TestGeneratorAbortsOnContext(t *testing.T) {
	sink := newFrameSink(t)
	g, err := New(Config{Addr: sink.addr(), Batch: 10, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	phases, err := StandardPhases(64, 1_000_000, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := g.Run(ctx, phases[:1])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if len(reports) != 1 || reports[0].Offered >= 1_000_000 {
		t.Fatalf("aborted run reported %+v", reports)
	}
}

func TestGeneratorLatencySampling(t *testing.T) {
	sink := newFrameSink(t)
	g, err := New(Config{Addr: sink.addr(), Batch: 128, LatencySample: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	phases, err := StandardPhases(256, 1024, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := g.Run(context.Background(), phases[:1])
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	// 1024 ids / 128 per batch = 8 batches, every 2nd measured = 4 samples
	// of each round trip.
	if rep.PushAck.Count != 4 || rep.SampleRPC.Count != 4 {
		t.Fatalf("latency sample counts push-ack=%d sample=%d, want 4 each",
			rep.PushAck.Count, rep.SampleRPC.Count)
	}
	for _, s := range []LatencySummary{rep.PushAck, rep.SampleRPC} {
		if s.P50 <= 0 || s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
			t.Fatalf("latency percentiles out of order: %+v", s)
		}
	}
	// Measured batches still count as pushed ids.
	waitFor(t, "all pushed ids to land in the sink", func() bool {
		return sink.total() == 1024
	})

	if _, err := New(Config{Addr: sink.addr(), LatencySample: -1}); err == nil {
		t.Fatal("negative latency sample accepted")
	}
}

func TestLatencySummarize(t *testing.T) {
	if s := summarize(nil); s.Count != 0 || s.Max != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(100-i) * time.Millisecond // descending: summarize must sort
	}
	s := summarize(samples)
	if s.Count != 100 {
		t.Fatalf("count %d, want 100", s.Count)
	}
	if s.P50 != 50*time.Millisecond || s.P95 != 95*time.Millisecond ||
		s.P99 != 99*time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("percentiles %+v", s)
	}
	one := summarize([]time.Duration{7 * time.Millisecond})
	if one.P50 != 7*time.Millisecond || one.Max != 7*time.Millisecond {
		t.Fatalf("single-sample summary %+v", one)
	}
}

func TestChurnSourceNeverRepeats(t *testing.T) {
	src := NewChurnSource(42)
	seen := make(map[uint64]struct{}, 100_000)
	for i := 0; i < 100_000; i++ {
		id := src.Next()
		if _, dup := seen[id]; dup {
			t.Fatalf("churn source repeated id %d at draw %d", id, i)
		}
		seen[id] = struct{}{}
	}
	// Determinism per seed: a second source replays the same stream.
	a, b := NewChurnSource(7), NewChurnSource(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("churn source is not deterministic per seed")
		}
	}
}

func TestStandardPhasesValidation(t *testing.T) {
	if _, err := StandardPhases(8, 100, 1, 0); err == nil {
		t.Fatal("tiny population accepted")
	}
	if _, err := StandardPhases(256, 0, 1, 0); err == nil {
		t.Fatal("zero count accepted")
	}
	phases, err := StandardPhases(256, 100, 1, 8000)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{PhaseUniform, PhaseFlood, PhaseChurn, PhaseSlowTrickle, PhaseRecovery}
	if len(phases) != len(names) {
		t.Fatalf("got %d phases, want %d", len(phases), len(names))
	}
	for i, ph := range phases {
		if ph.Name != names[i] {
			t.Fatalf("phase %d is %q, want %q", i, ph.Name, names[i])
		}
		if ph.Source == nil || ph.Count != 100 {
			t.Fatalf("phase %q malformed: %+v", ph.Name, ph)
		}
	}
	if phases[3].Rate != 2000 {
		t.Fatalf("slow-trickle rate %v, want rate/4 = 2000", phases[3].Rate)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty address accepted")
	}
	if _, err := New(Config{Addr: "127.0.0.1:1", Rate: -1}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := New(Config{Addr: "127.0.0.1:1", Batch: -1}); err == nil {
		t.Fatal("negative batch accepted")
	}
	// An unreachable address fails at New, not at first push.
	if _, err := New(Config{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("dial of port 0 succeeded")
	}
}

func TestScrapeMetricsRejectsGarbage(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "this is not an exposition\n")
	}))
	defer ts.Close()
	if _, err := client.ScrapeMetrics(context.Background(), nil, ts.URL, ""); err == nil {
		t.Fatal("garbage body parsed as an exposition")
	}
}
