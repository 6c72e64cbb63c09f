package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"nodesampling/internal/telemetry"
)

// scrapeMetrics fetches and parses GET /metrics from a test server.
func scrapeMetrics(t *testing.T, ts *httptest.Server) *telemetry.Scrape {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("/metrics Content-Type %q, want %q", ct, telemetry.ContentType)
	}
	s, err := telemetry.Parse(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return s
}

func pushRange(t *testing.T, d *daemon, n, distinct int) {
	t.Helper()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i % distinct)
	}
	if err := d.pool.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := d.pool.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsExpositionFormat pins the satellite contract: every family on
// a live daemon's /metrics carries # TYPE and # HELP lines, every name
// matches [a-z_:]+ with the unsd_ prefix, and every unlabelled counter is
// monotone across live resizes (the retired-shard fold-in must never make
// a counter go backwards).
func TestMetricsExpositionFormat(t *testing.T) {
	o := defaultOptions()
	o.uniformityWindow = 256
	d := testDaemon(t, o)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	pushRange(t, d, 2048, 100)
	sub, err := d.pool.Subscribe(128)
	if err != nil {
		t.Fatal(err)
	}
	defer d.pool.Unsubscribe(sub)

	nameRE := regexp.MustCompile(`^unsd_[a-z_:]+$`)
	counters := func(s *telemetry.Scrape) map[string]float64 {
		out := make(map[string]float64)
		for _, f := range s.Families {
			if !nameRE.MatchString(f.Name) {
				t.Errorf("family %q does not match ^unsd_[a-z_:]+$", f.Name)
			}
			if f.Type != "counter" && f.Type != "gauge" && f.Type != "histogram" {
				t.Errorf("family %s has no # TYPE line (or unknown type %q)", f.Name, f.Type)
			}
			if f.Help == "" {
				t.Errorf("family %s has no # HELP line", f.Name)
			}
			if f.Type == "counter" && len(f.Samples) == 1 && len(f.Samples[0].Labels) == 0 {
				out[f.Name] = f.Samples[0].Value
			}
			// Histogram _count and cumulative bucket counts are counters
			// too: the resize hand-off must never lose an observation.
			if f.Type == "histogram" && len(f.Histograms) == 1 && len(f.Histograms[0].Labels) == 0 {
				h := f.Histograms[0]
				out[f.Name+"_count"] = h.Count
				for _, b := range h.Buckets {
					out[fmt.Sprintf("%s_bucket{le=%v}", f.Name, b.UpperBound)] = b.Count
				}
			}
		}
		return out
	}

	before := counters(scrapeMetrics(t, ts))
	if len(before) == 0 {
		t.Fatal("no unlabelled counter families exported")
	}
	for _, n := range []int{7, 3, 6} {
		if err := d.pool.Resize(n); err != nil {
			t.Fatalf("Resize(%d): %v", n, err)
		}
		pushRange(t, d, 2048, 100)
		after := counters(scrapeMetrics(t, ts))
		for name, prev := range before {
			now, ok := after[name]
			if !ok {
				t.Errorf("counter %s disappeared after resize to %d", name, n)
				continue
			}
			if now < prev {
				t.Errorf("counter %s went backwards across resize to %d: %v -> %v", name, n, prev, now)
			}
		}
		before = after
	}

	// The load-bearing families from every plane must be present.
	s := scrapeMetrics(t, ts)
	for _, name := range []string{
		"unsd_pool_processed_ids_total", "unsd_pool_dropped_ids_total",
		"unsd_pool_emit_dropped_ids_total", "unsd_pool_queue_depth_batches",
		"unsd_pool_shards", "unsd_pool_map_epoch",
		"unsd_shard_processed_ids_total", "unsd_subscriber_offered_ids_total",
		"unsd_autoscale_enabled", "unsd_autoscale_load_ewma",
		"unsd_autoscale_ticks_total", "unsd_autoscale_resizes_total",
		"unsd_stream_connections", "unsd_stream_accepted_total",
		"unsd_stream_frame_errors_total",
		"unsd_stream_data_frames_total", "unsd_subscriber_capped_ids_total",
		"unsd_auth_failures_total", "unsd_snapshot_writes_total",
		"unsd_snapshot_failures_total", "unsd_snapshot_sealed",
		"unsd_uniformity_input_kl", "unsd_uniformity_output_kl",
		"unsd_uniformity_gain", "unsd_uptime_seconds",
		"unsd_snapshot_write_duration_seconds", "unsd_resize_duration_seconds",
		"unsd_sample_duration_seconds", "unsd_ingest_batch_duration_seconds",
		"unsd_emit_delivery_lag_seconds",
	} {
		if s.Family(name) == nil {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	// The latency families are real histograms that Parse round-trips:
	// after driving the ingest and sample paths through HTTP, _count moves
	// and the +Inf bucket agrees with it.
	resp, err := http.Get(ts.URL + "/sample?n=16")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code := postPush(t, ts.URL, []uint64{1, 2, 3}).StatusCode; code != http.StatusOK {
		t.Fatalf("/push status %d", code)
	}
	s = scrapeMetrics(t, ts)
	for _, name := range []string{"unsd_sample_duration_seconds", "unsd_ingest_batch_duration_seconds"} {
		h := s.Histogram(name)
		if h == nil {
			t.Fatalf("%s did not parse as a histogram", name)
		}
		if h.Count < 1 {
			t.Errorf("%s _count = %v, want >= 1 after driving the surface", name, h.Count)
		}
		if last := h.Buckets[len(h.Buckets)-1]; last.Count != h.Count {
			t.Errorf("%s +Inf bucket %v != _count %v", name, last.Count, h.Count)
		}
	}
}

// TestMetricsReconcilesWithStats cross-checks the two observability
// surfaces on one daemon: the Prometheus families must agree with the
// /stats JSON they were adapted from.
func TestMetricsReconcilesWithStats(t *testing.T) {
	d := testDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	pushRange(t, d, 4096, 200)
	sub, err := d.pool.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.pool.Unsubscribe(sub)
	pushRange(t, d, 1024, 200)

	// Scrape after quiescing ingest so both surfaces see the same state.
	s := scrapeMetrics(t, ts)
	var stats struct {
		Processed   uint64 `json:"processed"`
		Dropped     uint64 `json:"dropped"`
		EmitDropped uint64 `json:"emit_dropped"`
		ShardCount  int    `json:"shard_count"`
		MapEpoch    uint64 `json:"map_epoch"`
		StreamConns int    `json:"stream_connections"`
		Subscribers []struct {
			ID      uint64 `json:"id"`
			Offered uint64 `json:"offered"`
		} `json:"subscribers"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}

	check := func(metric string, want float64, labels ...string) {
		t.Helper()
		got, ok := s.Value(metric, labels...)
		if !ok {
			t.Errorf("metric %s%v missing", metric, labels)
			return
		}
		if got != want {
			t.Errorf("metric %s%v = %v, /stats says %v", metric, labels, got, want)
		}
	}
	check("unsd_pool_processed_ids_total", float64(stats.Processed))
	check("unsd_pool_dropped_ids_total", float64(stats.Dropped))
	check("unsd_pool_emit_dropped_ids_total", float64(stats.EmitDropped))
	check("unsd_pool_shards", float64(stats.ShardCount))
	check("unsd_pool_map_epoch", float64(stats.MapEpoch))
	check("unsd_stream_connections", float64(stats.StreamConns))
	if len(stats.Subscribers) != 1 {
		t.Fatalf("want 1 subscriber in /stats, got %d", len(stats.Subscribers))
	}
	check("unsd_subscriber_offered_ids_total", float64(stats.Subscribers[0].Offered),
		"subscriber", fmt.Sprintf("%d", stats.Subscribers[0].ID))
}

// TestMetricsGatedLikeStats: /metrics rides the read surface — open by
// default, behind the bearer token under -admin-token-all.
func TestMetricsGatedLikeStats(t *testing.T) {
	open := testDaemon(t, defaultOptions())
	ts := httptest.NewServer(open.handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open daemon /metrics status %d", resp.StatusCode)
	}

	o := defaultOptions()
	o.adminToken = "hunter2hunter2"
	o.adminTokenAll = true
	gated := testDaemon(t, o)
	ts2 := httptest.NewServer(gated.handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless /metrics under -admin-token-all: status %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, ts2.URL+"/metrics", nil)
	req.Header.Set("Authorization", "Bearer hunter2hunter2")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized /metrics status %d", resp.StatusCode)
	}
	if _, err := telemetry.Parse(resp.Body); err != nil {
		t.Fatalf("authorized /metrics did not parse: %v", err)
	}
}

// TestPprofBehindAdminToken: the -pprof mount is operator material — no
// credential answers 401 with a challenge, a wrong one 403, the right one
// serves the index; and -pprof without a token refuses at boot.
func TestPprofBehindAdminToken(t *testing.T) {
	o := defaultOptions()
	o.pprof = true
	if _, err := newDaemon(o); err == nil || !strings.Contains(err.Error(), "-admin-token") {
		t.Fatalf("-pprof without a token: err = %v, want refusal naming -admin-token", err)
	}

	o.adminToken = "profiling-secret"
	d := testDaemon(t, o)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("credential-less pprof: status %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/debug/pprof/", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("wrong-token pprof: status %d, want 403", resp.StatusCode)
	}
	req.Header.Set("Authorization", "Bearer profiling-secret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized pprof index: status %d", resp.StatusCode)
	}

	// The auth failures above must be on the counter.
	s := func() *telemetry.Scrape {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc, err := telemetry.Parse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}()
	if v, ok := s.Value("unsd_auth_failures_total"); !ok || v < 2 {
		t.Fatalf("unsd_auth_failures_total = %v (ok=%v), want >= 2", v, ok)
	}

	// Without -pprof the debug surface must not exist at all.
	bare := testDaemon(t, defaultOptions())
	ts2 := httptest.NewServer(bare.handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without -pprof: status %d, want 404", resp.StatusCode)
	}
}

// TestUniformityGaugeDegradesAndRecovers is the live-gauge acceptance
// scenario on a real daemon: uniform traffic through the HTTP ingest front
// keeps input KL near zero, a targeted flood (one id dominating) drives it
// up, and uniform traffic again slides the flood out of the window.
func TestUniformityGaugeDegradesAndRecovers(t *testing.T) {
	o := defaultOptions()
	o.uniformityWindow = 512
	d := testDaemon(t, o)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// The input probe decimates 1-in-8, so a full window needs
	// window×8 offered ids.
	fill := o.uniformityWindow * uniformityInputEvery
	pushHTTP := func(gen func(i int) uint64, n int) {
		t.Helper()
		const batch = 1024
		ids := make([]uint64, 0, batch)
		for i := 0; i < n; i++ {
			ids = append(ids, gen(i))
			if len(ids) == batch || i == n-1 {
				resp := postPush(t, ts.URL, ids)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("/push status %d", resp.StatusCode)
				}
				ids = ids[:0]
			}
		}
	}
	inputKL := func() float64 {
		t.Helper()
		s := scrapeMetrics(t, ts)
		v, ok := s.Value("unsd_uniformity_input_kl")
		if !ok {
			t.Fatal("unsd_uniformity_input_kl has no sample")
		}
		return v
	}

	// A 512-id window over 64 uniform ids carries multinomial noise of
	// roughly (distinct-1)/(2·window) ≈ 0.06 nats; 0.25 is comfortably
	// above it and far below any flood signal.
	const calm = 0.25
	pushHTTP(func(i int) uint64 { return uint64(i%64) + 1 }, fill)
	baseline := inputKL()
	if baseline > calm {
		t.Fatalf("uniform baseline input KL = %v, want < %v", baseline, calm)
	}

	pushHTTP(func(int) uint64 { return 424242 }, fill*8/10)
	flooded := inputKL()
	if flooded < baseline+0.5 {
		t.Fatalf("targeted flood did not degrade the gauge: baseline %v, flooded %v", baseline, flooded)
	}

	// The output side (fed from Γ at scrape time) must be exported too.
	s := scrapeMetrics(t, ts)
	if _, ok := s.Value("unsd_uniformity_output_kl"); !ok {
		t.Error("unsd_uniformity_output_kl has no sample on a non-empty pool")
	}

	pushHTTP(func(i int) uint64 { return uint64(i%64) + 1 }, fill*2)
	recovered := inputKL()
	if recovered > calm {
		t.Fatalf("gauge did not recover after the flood: KL %v (flooded %v)", recovered, flooded)
	}
}

// TestLogFlagValidation: unknown log levels and formats refuse at boot,
// and the structured logger honours the configured encoding.
func TestLogFlagValidation(t *testing.T) {
	o := defaultOptions()
	o.logLevel = "loud"
	if _, err := newDaemon(o); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("bogus -log-level: err = %v", err)
	}
	o = defaultOptions()
	o.logFormat = "yaml"
	if _, err := newDaemon(o); err == nil || !strings.Contains(err.Error(), "-log-format") {
		t.Fatalf("bogus -log-format: err = %v", err)
	}

	var sb safeBuilder
	o = defaultOptions()
	o.logFormat = "json"
	o.warnw = &sb
	d := testDaemon(t, o)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	code := postJSON(t, ts.URL+"/resize", map[string]int{"shards": 2}, &struct{}{})
	if code != http.StatusOK {
		t.Fatalf("/resize status %d", code)
	}
	waitFor(t, "a structured resize log line", func() bool {
		return strings.Contains(sb.String(), `"msg":"resize"`) &&
			strings.Contains(sb.String(), `"source":"admin"`)
	})
}
