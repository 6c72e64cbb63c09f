package main

import (
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStrategyDefaultInStats checks that the default daemon reports the
// knowledge-free strategy on both observability surfaces.
func TestStrategyDefaultInStats(t *testing.T) {
	d := testDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	var stats struct {
		Strategy string `json:"strategy"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if stats.Strategy != "knowledge-free" {
		t.Fatalf("/stats strategy %q, want knowledge-free", stats.Strategy)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `unsd_info{strategy="knowledge-free"} 1`) {
		t.Fatalf("/metrics missing the strategy info gauge:\n%s", body)
	}
}

// writeTaggedSnapshot runs a default daemon over 256 ids, lets its shutdown
// write the snapshot at path, and rewrites the blob's strategy tag to tag.
func writeTaggedSnapshot(t *testing.T, path, tag string) {
	t.Helper()
	o := defaultOptions()
	o.snapshotPath = path
	d, err := newDaemon(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	ids := make([]uint64, 256)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	if resp := postPush(t, ts.URL, ids); resp.StatusCode != http.StatusOK {
		t.Fatalf("push status %d", resp.StatusCode)
	}
	if err := d.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	d.Close() // writes the final snapshot
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// v2 layout: magic | version u32 | tag length u32 | tag | body.
	old := int(binary.BigEndian.Uint32(blob[8:12]))
	out := binary.BigEndian.AppendUint32(append([]byte(nil), blob[:8]...), uint32(len(tag)))
	out = append(append(out, tag...), blob[12+old:]...)
	if err := os.WriteFile(path, out, 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestStrategyUnknownRefused: a snapshot naming a strategy this build does
// not know refuses to boot the daemon, naming the strategy.
func TestStrategyUnknownRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.snap")
	writeTaggedSnapshot(t, path, "no-such-strategy")
	o := defaultOptions()
	o.snapshotPath = path
	if _, err := newDaemon(o); err == nil {
		t.Fatal("unknown snapshot strategy should fail daemon construction")
	} else if !strings.Contains(err.Error(), "no-such-strategy") {
		t.Fatalf("error %v does not name the unknown strategy", err)
	}
}

// TestStrategySnapshotMismatchRefused is the durability cross-check: a
// snapshot tagged with the retired basalt strategy refuses to restore into
// the knowledge-free daemon, and the error names both strategies, while the
// same blob tagged knowledge-free restores.
func TestStrategySnapshotMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.snap")
	o := defaultOptions()
	o.snapshotPath = path
	writeTaggedSnapshot(t, path, "basalt")
	_, err := newDaemon(o)
	if err == nil {
		t.Fatal("strategy mismatch against the snapshot should fail")
	}
	if !strings.Contains(err.Error(), "basalt") || !strings.Contains(err.Error(), "knowledge-free") {
		t.Fatalf("mismatch error %v does not name both strategies", err)
	}

	o.snapshotPath = filepath.Join(t.TempDir(), "pool.snap")
	writeTaggedSnapshot(t, o.snapshotPath, "knowledge-free")
	d2, err := newDaemon(o)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.restored {
		t.Fatal("matching-strategy daemon did not restore from the snapshot")
	}
}
