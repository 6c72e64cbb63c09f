package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// postRaw posts a raw body and returns the status code.
func postRaw(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// TestAdminBadBodies pins the hardening of the admin surface: malformed,
// oversized, unknown-field and out-of-range bodies are all client errors
// (400), never 500s or panics.
func TestAdminBadBodies(t *testing.T) {
	d := testDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	cases := []struct {
		endpoint, body string
	}{
		{"/resize", "not json"},
		{"/resize", `{"shards":0}`},
		{"/resize", `{"shards":257}`},
		{"/resize", `{"shards":"x"}`},
		{"/resize", `{}`},
		{"/resize", `{"shard":4}`},                                         // unknown field (typo)
		{"/resize", `{"shards":2}{"shards"}`},                              // trailing garbage
		{"/resize", `{"shards":2, "bogus":1}`},                             // unknown field
		{"/resize", `{"shards":2,` + strings.Repeat(" ", 2048) + `"x":1}`}, // oversized
		{"/autoscale", "not json"},
		{"/autoscale", `{"min":0}`},
		{"/autoscale", `{"min":8,"max":2}`},
		{"/autoscale", `{"grow_threshold":0.1,"shrink_threshold":0.5}`},
		{"/autoscale", `{"cooldown_ms":-5}`},
		{"/autoscale", `{"bogus":true}`},
	}
	for _, c := range cases {
		if code := postRaw(t, ts.URL+c.endpoint, c.body); code != http.StatusBadRequest {
			t.Errorf("POST %s %q → %d, want 400", c.endpoint, c.body, code)
		}
	}
	// None of the rejects may have touched the plane.
	if epoch, shards := d.pool.Topology(); epoch != 0 || shards != 4 {
		t.Fatalf("rejected requests moved the plane: epoch %d, %d shards", epoch, shards)
	}
	if st := d.ctrl.State(); st.Min != 1 || st.Max != 64 || st.Enabled {
		t.Fatalf("rejected requests retuned the controller: %+v", st)
	}
}

// TestAdminConflictWhileBusy pins the 409 path: while a resize or a
// snapshot holds the admin gate, POST /resize and POST /snapshot answer
// 409 with a Retry-After hint instead of queueing or failing opaquely.
func TestAdminConflictWhileBusy(t *testing.T) {
	o := defaultOptions()
	o.snapshotPath = filepath.Join(t.TempDir(), "pool.snap")
	d := testDaemon(t, o)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// Occupy the admin gate, standing in for a long resize quiesce or a
	// snapshot write in flight.
	d.opMu.Lock()
	resp, err := http.Post(ts.URL+"/resize", "application/json", strings.NewReader(`{"shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resize while busy → %d, want 409", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("409 without a Retry-After hint")
	}
	if code := postRaw(t, ts.URL+"/snapshot", ""); code != http.StatusConflict {
		t.Fatalf("snapshot while busy → %d, want 409", code)
	}
	d.opMu.Unlock()

	// With the gate free both operations succeed.
	var rr struct {
		Shards int    `json:"shards"`
		Epoch  uint64 `json:"epoch"`
	}
	if code := postJSON(t, ts.URL+"/resize", map[string]int{"shards": 2}, &rr); code != http.StatusOK {
		t.Fatalf("resize after release → %d", code)
	}
	if rr.Shards != 2 || rr.Epoch != 1 {
		t.Fatalf("resize answered %+v", rr)
	}
	var sr struct {
		Bytes int `json:"bytes"`
	}
	if code := postJSON(t, ts.URL+"/snapshot", struct{}{}, &sr); code != http.StatusOK || sr.Bytes == 0 {
		t.Fatalf("snapshot after release → %d, %d bytes", code, sr.Bytes)
	}
}

// TestSnapshotWriteFailureLeavesNoOrphan injects write failures into the
// snapshot path and pins the cleanup contract: a failed write reports an
// error, removes its orphaned .tmp file, and never disturbs the last good
// snapshot.
func TestSnapshotWriteFailureLeavesNoOrphan(t *testing.T) {
	dir := t.TempDir()
	o := defaultOptions()
	o.snapshotPath = filepath.Join(dir, "pool.snap")
	d := testDaemon(t, o)

	// A good write first, so there is a last-good snapshot to protect.
	if _, err := d.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(o.snapshotPath)
	if err != nil {
		t.Fatal(err)
	}

	// Injected failure after the temp write: turn the rename target into a
	// directory, so os.Rename must fail.
	if err := os.Remove(o.snapshotPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(o.snapshotPath, 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := d.writeSnapshot(); err == nil {
		t.Fatal("snapshot write onto a directory reported success")
	}
	if _, err := os.Stat(o.snapshotPath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed write left an orphaned temp file (stat err %v)", err)
	}

	// Injected failure before the temp write: an unwritable path errors
	// without creating anything.
	if err := os.RemoveAll(o.snapshotPath); err != nil {
		t.Fatal(err)
	}
	d.snapshotPath = filepath.Join(dir, "missing", "pool.snap")
	if _, err := d.writeSnapshot(); err == nil {
		t.Fatal("snapshot write into a missing directory reported success")
	}
	if _, err := os.Stat(d.snapshotPath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed open left a temp file (stat err %v)", err)
	}

	// The durable path still works end to end afterwards: write, restore,
	// byte-compatible with the earlier good blob's shape.
	d.snapshotPath = o.snapshotPath
	if _, err := d.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(o.snapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 || !bytes.Equal(blob[:4], good[:4]) {
		t.Fatalf("recovered snapshot malformed: %d bytes", len(blob))
	}
}

// TestPeriodicSnapshot: with a snapshot interval the daemon's one durability
// loop writes on its own, repeatedly, and stops at Close.
func TestPeriodicSnapshot(t *testing.T) {
	o := defaultOptions()
	o.snapshotPath = filepath.Join(t.TempDir(), "pool.snap")
	o.snapshotInterval = 10 * time.Millisecond
	d := testDaemon(t, o)
	waitFor(t, "two periodic snapshot writes", func() bool { return d.snapWrites.Load() >= 2 })
	if _, err := os.Stat(o.snapshotPath); err != nil {
		t.Fatalf("periodic snapshot left no file: %v", err)
	}
	d.Close()
	after := d.snapWrites.Load() // includes the final snapshot
	time.Sleep(5 * o.snapshotInterval)
	if now := d.snapWrites.Load(); now != after {
		t.Fatalf("snapshot loop still writing after Close: %d → %d", after, now)
	}
}

// TestAutoscaleCooldownOverflowRejected pins the overflow guard: a
// millisecond count that would wrap the int64 duration must be a 400, not
// a silently-installed garbage cooldown.
func TestAutoscaleCooldownOverflowRejected(t *testing.T) {
	d := testDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	if code := postRaw(t, ts.URL+"/autoscale", `{"cooldown_ms":9223372036854776}`); code != http.StatusBadRequest {
		t.Fatalf("overflowing cooldown_ms → %d, want 400", code)
	}
	if st := d.ctrl.State(); st.Cooldown != 3*time.Second {
		t.Fatalf("overflowing cooldown leaked into the controller: %v", st.Cooldown)
	}
}
