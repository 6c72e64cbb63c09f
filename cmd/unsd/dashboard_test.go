package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"nodesampling/internal/loadgen"
)

// TestDashboardFamiliesExported is the static gate between the committed
// Grafana dashboard and the daemon's live exposition: every unsd_* token a
// dashboard query mentions must resolve to a family a real daemon exports,
// standalone or as a member of a fleet.
// Rename a metric without updating dashboards/unsd.json (or vice versa) and
// this test goes red — the dashboard can never drift into querying series
// that do not exist.
func TestDashboardFamiliesExported(t *testing.T) {
	raw, err := os.ReadFile("../../dashboards/unsd.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("dashboards/unsd.json is not valid JSON: %v", err)
	}

	tokens := regexp.MustCompile(`unsd_[a-z_]*[a-z]`).FindAllString(string(raw), -1)
	want := make(map[string]bool)
	for _, tok := range tokens {
		// Histogram queries address the exposition series; map them back to
		// the family that exports them.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			tok = strings.TrimSuffix(tok, suffix)
		}
		want[tok] = true
	}
	if len(want) < 10 {
		t.Fatalf("dashboard references only %d families — the extraction regex or the dashboard is broken", len(want))
	}

	// A live daemon with a subscriber attached exports every family group,
	// including the per-subscription fan-out series; a clustered member adds
	// the unsd_cluster_* families.
	d := testDaemon(t, defaultOptions())
	sub, err := d.pool.Subscribe(16)
	if err != nil {
		t.Fatal(err)
	}
	defer d.pool.Unsubscribe(sub)
	fleet, _ := testClusterDaemons(t, 2, nil)
	exported := make(map[string]bool)
	for _, src := range []*daemon{d, fleet[0]} {
		ts := httptest.NewServer(src.handler())
		defer ts.Close()
		s, err := loadgen.ScrapeMetrics(context.Background(), nil, ts.URL+"/metrics", "")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range s.SortedNames() {
			exported[name] = true
		}
	}

	var missing []string
	for name := range want {
		if !exported[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("dashboard queries families the daemon does not export:\n  %s",
			strings.Join(missing, "\n  "))
	}
}
