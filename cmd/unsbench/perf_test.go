package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPerfEmitsValidArtifact runs the cheapest suite entry end to end and
// pins the JSON document shape CI and the committed BENCH_<pr>.json rely
// on. The full suite is exercised when the artifact is regenerated, not
// per test run; two runs keep the fastest-of-runs loop under test.
func TestPerfEmitsValidArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var sb strings.Builder
	if err := run([]string{"-perf", "-perf-filter", "ControllerTick", "-perf-runs", "2", "-perf-out", path}, &sb); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report perfReport
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("artifact is not JSON: %v", err)
	}
	if report.Schema != "unsbench-perf/v1" {
		t.Fatalf("schema %q", report.Schema)
	}
	if report.GoVersion == "" || report.Generated == "" || report.GOMAXPROCS < 1 {
		t.Fatalf("missing provenance: %+v", report)
	}
	if len(report.HistogramFamilies) < 4 {
		t.Fatalf("artifact must record the compiled-in latency histogram families, got %v",
			report.HistogramFamilies)
	}
	for _, name := range report.HistogramFamilies {
		if !strings.HasPrefix(name, "unsd_") || !strings.HasSuffix(name, "_seconds") {
			t.Fatalf("implausible histogram family %q in provenance", name)
		}
	}
	if len(report.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1", len(report.Benchmarks))
	}
	b := report.Benchmarks[0]
	if b.Name != "ControllerTick" || b.Unit != "ns/op" {
		t.Fatalf("benchmark entry %+v", b)
	}
	if b.NsPerOp <= 0 || b.Iterations <= 0 {
		t.Fatalf("implausible measurement %+v", b)
	}
}

func TestPerfFilterValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-perf", "-perf-filter", "no-such-benchmark"}, &sb); err == nil {
		t.Fatal("unmatched filter accepted")
	}
}

// TestPerfSuiteCoversTheTrackedPaths pins the suite composition: the
// artifact must track PushBatch across shard counts, the fan-out plane,
// the autoscale controller tick, the per-id step under a flood, and the σ′
// plane in the daemon's shape.
func TestPerfSuiteCoversTheTrackedPaths(t *testing.T) {
	want := []string{
		"PoolPushBatch/shards=1", "PoolPushBatch/shards=4", "PoolPushBatch/shards=8",
		"PoolSubscribeFanout/subs=0", "PoolSubscribeFanout/subs=16", "PoolSigmaBatch/shards=4,subs=2",
		"ControllerTick",
		"SketchAddEstimate/k50s10-flood", "KnowledgeFreeProcessBatch/c25k50s10-flood",
	}
	names := make(map[string]bool, len(perfSuite))
	for _, b := range perfSuite {
		names[b.name] = true
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("perf suite missing %s", n)
		}
	}
}
