package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nodesampling/internal/netgossip"
)

func testDaemon(t *testing.T, o options) *daemon {
	t.Helper()
	d, err := newDaemon(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func defaultOptions() options {
	return options{
		shards: 4, c: 10, k: 10, s: 5, buffer: 16, block: true, seed: 1,
		minShards: 1, maxShards: 64, autoscaleInterval: time.Second,
	}
}

func postPush(t *testing.T, url string, ids []uint64) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string][]uint64{"ids": ids})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/push", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// waitFor polls cond until true or the deadline passes.
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

func TestPushSampleMemoryStats(t *testing.T) {
	d := testDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	ids := make([]uint64, 500)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	resp := postPush(t, ts.URL, ids)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/push status %d", resp.StatusCode)
	}
	var pushed struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pushed); err != nil {
		t.Fatal(err)
	}
	if pushed.Accepted != 500 {
		t.Fatalf("accepted %d, want 500", pushed.Accepted)
	}
	if err := d.pool.Flush(); err != nil {
		t.Fatal(err)
	}

	var sampled struct {
		Samples []string `json:"samples"`
	}
	if code := getJSON(t, ts.URL+"/sample?n=100", &sampled); code != http.StatusOK {
		t.Fatalf("/sample status %d", code)
	}
	if len(sampled.Samples) != 100 {
		t.Fatalf("got %d samples, want 100", len(sampled.Samples))
	}
	for _, raw := range sampled.Samples {
		id, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			t.Fatalf("sample %q is not a decimal id: %v", raw, err)
		}
		if id < 1 || id > 500 {
			t.Fatalf("sample %d outside the pushed population", id)
		}
	}

	var mem struct {
		Memory []string `json:"memory"`
		Size   int      `json:"size"`
	}
	if code := getJSON(t, ts.URL+"/memory", &mem); code != http.StatusOK {
		t.Fatalf("/memory status %d", code)
	}
	if mem.Size != 4*10 || len(mem.Memory) != mem.Size {
		t.Fatalf("memory size %d (len %d), want full 40", mem.Size, len(mem.Memory))
	}

	// Ids above 2^53 must round-trip exactly: push as a string, observe the
	// same string come back through /memory (doubles would corrupt it).
	hugeID := "18446744073709551615" // 2^64 - 1
	r2, err := http.Post(ts.URL+"/push", "application/json",
		strings.NewReader(`{"ids":["`+hugeID+`", 17]}`))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("huge-id push status %d", r2.StatusCode)
	}
	if err := d.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/memory", &mem); code != http.StatusOK {
		t.Fatalf("/memory status %d", code)
	}
	found := false
	for _, raw := range mem.Memory {
		if raw == hugeID {
			found = true
		}
	}
	if !found {
		t.Fatalf("huge id did not round-trip through /memory: %v", mem.Memory)
	}

	var stats struct {
		Processed  uint64  `json:"processed"`
		Dropped    uint64  `json:"dropped"`
		Throughput float64 `json:"throughput_ids_per_second"`
		Shards     []struct {
			Processed  uint64 `json:"processed"`
			Dropped    uint64 `json:"dropped"`
			QueueDepth int    `json:"queue_depth"`
			MemorySize int    `json:"memory_size"`
		} `json:"shards"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if stats.Processed != 502 || stats.Dropped != 0 { // 500 + the 2 round-trip ids
		t.Fatalf("stats processed/dropped = %d/%d", stats.Processed, stats.Dropped)
	}
	if len(stats.Shards) != 4 {
		t.Fatalf("stats has %d shards, want 4", len(stats.Shards))
	}
	var sum uint64
	for i, s := range stats.Shards {
		sum += s.Processed
		if s.MemorySize != 10 {
			t.Fatalf("shard %d memory %d, want full 10", i, s.MemorySize)
		}
	}
	if sum != stats.Processed {
		t.Fatalf("per-shard processed sums to %d, total says %d", sum, stats.Processed)
	}
	if stats.Throughput <= 0 {
		t.Fatalf("throughput %v", stats.Throughput)
	}
}

// TestStatsExposesPerShardDrops floods a deliberately tiny daemon (one
// shard, unbuffered queue, drop policy, heavy sketch) until /stats reports
// a non-zero per-shard drop count.
func TestStatsExposesPerShardDrops(t *testing.T) {
	o := defaultOptions()
	o.shards, o.buffer, o.block = 1, 0, false
	o.k, o.s = 300, 10 // slow per-batch digestion so follow-up pushes collide
	d := testDaemon(t, o)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	ids := make([]uint64, 4096)
	for i := range ids {
		ids[i] = uint64(i)
	}
	body, err := json.Marshal(map[string][]uint64{"ids": ids})
	if err != nil {
		t.Fatal(err)
	}
	// Slam the daemon from several concurrent producers: with a single
	// unbuffered shard, pushes that land while the worker digests an
	// earlier batch must be dropped, not queued.
	stop := make(chan struct{})
	defer close(stop)
	for g := 0; g < 8; g++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/push", "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
	}
	var stats struct {
		Dropped uint64 `json:"dropped"`
		Shards  []struct {
			Dropped uint64 `json:"dropped"`
		} `json:"shards"`
	}
	waitFor(t, "a drop to surface in /stats", func() bool {
		getJSON(t, ts.URL+"/stats", &stats)
		return stats.Dropped > 0
	})
	if len(stats.Shards) != 1 || stats.Shards[0].Dropped != stats.Dropped {
		t.Fatalf("per-shard drops inconsistent with total: %+v", stats)
	}
}

func TestBadRequests(t *testing.T) {
	d := testDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// Sampling an empty pool is a 503, not an empty success.
	resp, err := http.Get(ts.URL + "/sample")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/sample on empty pool status %d", resp.StatusCode)
	}
	// GET on /push (wrong method).
	resp, err = http.Get(ts.URL + "/push")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /push status %d", resp.StatusCode)
	}
	// Malformed JSON.
	resp, err = http.Post(ts.URL+"/push", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", resp.StatusCode)
	}
	// Empty batch.
	if resp := postPush(t, ts.URL, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}
	// Oversized batch (id count above the wire-protocol-aligned cap).
	big := make([]uint64, maxPushIDs+1)
	if resp := postPush(t, ts.URL, big); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d", resp.StatusCode)
	}
	// Out-of-range n.
	for _, q := range []string{"n=0", "n=-3", "n=abc", fmt.Sprintf("n=%d", maxSampleN+1)} {
		resp, err := http.Get(ts.URL + "/sample?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/sample?%s status %d", q, resp.StatusCode)
		}
	}
}

// TestGossipFeedsDaemon drives the overlay's ingestion path: a gossiping
// node dials the daemon's stream listener — the one front door for frames —
// and pushes its own id as FramePushBatch frames; the ids must become
// visible through the HTTP surface, and the node is accounted like any
// other stream connection.
func TestGossipFeedsDaemon(t *testing.T) {
	d, ln := testStreamDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	push, err := netgossip.AppendFrame(nil, netgossip.Frame{Type: netgossip.FramePushBatch, IDs: []uint64{7}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := conn.Write(push); err != nil {
			t.Fatal(err)
		}
	}

	var stats struct {
		Processed uint64 `json:"processed"`
		Conns     int    `json:"stream_connections"`
	}
	waitFor(t, "gossiped ids to reach the pool", func() bool {
		getJSON(t, ts.URL+"/stats", &stats)
		return stats.Processed == 20 && stats.Conns == 1
	})
	var sampled struct {
		Samples []string `json:"samples"`
	}
	if code := getJSON(t, ts.URL+"/sample", &sampled); code != http.StatusOK {
		t.Fatalf("/sample status %d", code)
	}
	if len(sampled.Samples) != 1 || sampled.Samples[0] != "7" {
		t.Fatalf("samples = %v, want the gossiping node's id 7", sampled.Samples)
	}
	// The daemon never writes to a connection that only pushes.
	_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("push-only connection read (%d, %v), want a timeout", n, err)
	}
}

// safeBuilder is a strings.Builder safe for the cross-goroutine
// write-then-poll pattern of TestRunLifecycle.
type safeBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *safeBuilder) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *safeBuilder) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestRunLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var sb safeBuilder
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-http", "127.0.0.1:0", "-stream", "127.0.0.1:0",
			"-shards", "2", "-c", "5", "-k", "6", "-s", "3", "-seed", "11",
		}, &sb)
	}()
	var url string
	waitFor(t, "the http listener to come up", func() bool {
		out := sb.String()
		i := strings.Index(out, "http listening on ")
		if i < 0 {
			return false
		}
		rest := out[i+len("http listening on "):]
		j := strings.IndexByte(rest, '\n')
		if j < 0 {
			return false
		}
		url = "http://" + rest[:j]
		return true
	})
	resp := postPush(t, url, []uint64{1, 2, 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/push against run() daemon: status %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down")
	}
	if !strings.Contains(sb.String(), "stream listening on ") {
		t.Fatalf("missing stream listener line:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "shut down") {
		t.Fatalf("missing shutdown line:\n%s", sb.String())
	}
}

func TestBadFlags(t *testing.T) {
	var sb safeBuilder
	if err := run(context.Background(), []string{"-nope"}, &sb); err == nil {
		t.Error("unknown flag should fail")
	}
	// The gossip listener, its dial-out and the peer identity it gossiped
	// are gone (peers dial -stream), and so is the strategy selector: the
	// knowledge-free sampler is the only one.
	for _, gone := range [][]string{{"-gossip", "127.0.0.1:0"}, {"-connect", "127.0.0.1:1"}, {"-self", "7"}, {"-strategy", "basalt"}} {
		if err := run(context.Background(), gone, &sb); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: error %v, want a flag-parsing failure", gone, err)
		}
	}
	if err := run(context.Background(), []string{"-shards", "0"}, &sb); err == nil {
		t.Error("zero shards should fail")
	}
	if err := run(context.Background(), []string{"-http", "256.0.0.1:bad"}, &sb); err == nil {
		t.Error("unusable http address should fail")
	}
	if err := run(context.Background(), []string{"-min-shards", "0"}, &sb); err == nil {
		t.Error("zero min-shards should fail")
	}
	if err := run(context.Background(), []string{"-min-shards", "8", "-max-shards", "4"}, &sb); err == nil {
		t.Error("inverted autoscale range should fail")
	}
	if err := run(context.Background(), []string{"-max-shards", "1000"}, &sb); err == nil {
		t.Error("max-shards beyond the shard cap should fail")
	}
	if err := run(context.Background(), []string{"-autoscale-interval", "-1s"}, &sb); err == nil {
		t.Error("negative autoscale interval should fail")
	}
}

// postJSON posts a JSON body and decodes the JSON answer.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestResizeEndpoint drives the elastic plane over HTTP: a live resize
// changes the shard count in /stats, bumps the map epoch, and the pool
// keeps serving samples from the re-partitioned memory.
func TestResizeEndpoint(t *testing.T) {
	d := testDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	ids := make([]uint64, 512)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	resp := postPush(t, ts.URL, ids)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push status %d", resp.StatusCode)
	}
	if err := d.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	var rr struct {
		Shards int    `json:"shards"`
		Epoch  uint64 `json:"epoch"`
	}
	if code := postJSON(t, ts.URL+"/resize", map[string]int{"shards": 8}, &rr); code != http.StatusOK {
		t.Fatalf("resize status %d", code)
	}
	if rr.Shards != 8 || rr.Epoch != 1 {
		t.Fatalf("resize answered %+v", rr)
	}
	var stats struct {
		ShardCount int        `json:"shard_count"`
		MapEpoch   uint64     `json:"map_epoch"`
		Processed  uint64     `json:"processed"`
		Shards     []struct{} `json:"shards"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.ShardCount != 8 || len(stats.Shards) != 8 || stats.MapEpoch != 1 {
		t.Fatalf("stats after resize: %+v", stats)
	}
	if stats.Processed != 512 {
		t.Fatalf("processed %d across resize, want 512", stats.Processed)
	}
	var sample struct {
		Samples []string `json:"samples"`
	}
	if code := getJSON(t, ts.URL+"/sample?n=16", &sample); code != http.StatusOK || len(sample.Samples) != 16 {
		t.Fatalf("sample after resize: code %d, %d samples", code, len(sample.Samples))
	}
	// Bad requests.
	if code := postJSON(t, ts.URL+"/resize", map[string]int{"shards": 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("resize 0 status %d", code)
	}
	if code := postJSON(t, ts.URL+"/resize", map[string]string{"shards": "x"}, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed resize status %d", code)
	}
}

// TestSnapshotEndpointRequiresPath: without -snapshot-path the endpoint
// must refuse rather than pretend.
func TestSnapshotEndpointRequiresPath(t *testing.T) {
	d := testDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	// Asking for the impossible is a client error (409 is reserved for the
	// transient "another resize or snapshot is running" case).
	if code := postJSON(t, ts.URL+"/snapshot", struct{}{}, nil); code != http.StatusBadRequest {
		t.Fatalf("snapshot without path status %d", code)
	}
}

// TestSnapshotRestartServesRestoredState is the acceptance e2e: a daemon
// with -snapshot-path is killed and restarted, and the successor serves
// Sample//memory//stats from the restored Γ and sketch state — attacker
// frequencies are not forgotten.
func TestSnapshotRestartServesRestoredState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.snap")
	o := defaultOptions()
	o.snapshotPath = path

	d1, err := newDaemon(o)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(d1.handler())
	// An "attack": one hot id pushed massively among background noise.
	const hot = uint64(7777)
	ids := make([]uint64, 1024)
	for i := range ids {
		if i%2 == 0 {
			ids[i] = hot
		} else {
			ids[i] = uint64(i + 1)
		}
	}
	for r := 0; r < 4; r++ {
		if resp := postPush(t, ts1.URL, ids); resp.StatusCode != http.StatusOK {
			t.Fatalf("push status %d", resp.StatusCode)
		}
	}
	if err := d1.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Path  string `json:"path"`
		Bytes int    `json:"bytes"`
	}
	if code := postJSON(t, ts1.URL+"/snapshot", struct{}{}, &snap); code != http.StatusOK {
		t.Fatalf("snapshot status %d", code)
	}
	if snap.Path != path || snap.Bytes == 0 {
		t.Fatalf("snapshot answered %+v", snap)
	}
	var memBefore struct {
		Memory []string `json:"memory"`
		Size   int      `json:"size"`
	}
	getJSON(t, ts1.URL+"/memory", &memBefore)
	estBefore := d1.pool.Estimate(hot)
	if estBefore == 0 {
		t.Fatal("hot id estimate is zero before the restart")
	}
	ts1.Close()
	d1.Close() // also writes the final snapshot

	// The restarted daemon restores from the same path (no pushes at all).
	d2, err := newDaemon(o)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.restored {
		t.Fatal("second daemon did not restore from the snapshot")
	}
	ts2 := httptest.NewServer(d2.handler())
	defer ts2.Close()
	var stats struct {
		Processed uint64 `json:"processed"`
		Restored  bool   `json:"restored"`
	}
	getJSON(t, ts2.URL+"/stats", &stats)
	if !stats.Restored || stats.Processed != 4*1024 {
		t.Fatalf("restored stats: %+v", stats)
	}
	var memAfter struct {
		Memory []string `json:"memory"`
		Size   int      `json:"size"`
	}
	getJSON(t, ts2.URL+"/memory", &memAfter)
	if memAfter.Size != memBefore.Size {
		t.Fatalf("restored memory %d ids, want %d", memAfter.Size, memBefore.Size)
	}
	sortStrings := func(s []string) { sort.Strings(s) }
	sortStrings(memBefore.Memory)
	sortStrings(memAfter.Memory)
	for i := range memBefore.Memory {
		if memBefore.Memory[i] != memAfter.Memory[i] {
			t.Fatalf("restored memory differs at %d: %s vs %s", i, memBefore.Memory[i], memAfter.Memory[i])
		}
	}
	// The sketch state survived: the hot id's frequency estimate is intact.
	if got := d2.pool.Estimate(hot); got != estBefore {
		t.Fatalf("hot id estimate %d after restart, want %d (attacker forgotten)", got, estBefore)
	}
	// And the daemon serves samples with zero new input.
	var sample struct {
		Samples []string `json:"samples"`
	}
	if code := getJSON(t, ts2.URL+"/sample?n=8", &sample); code != http.StatusOK || len(sample.Samples) != 8 {
		t.Fatalf("restored daemon sample: code %d, %d samples", code, len(sample.Samples))
	}
	// A daemon restarted with contradicting sketch flags must refuse.
	bad := o
	bad.k, bad.s = 3, 2
	if _, err := newDaemon(bad); err == nil {
		t.Fatal("sketch-shape mismatch against the snapshot should fail")
	}
}

// TestSnapshotFlagValidation covers the run()-level flag contract.
func TestSnapshotFlagValidation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sb safeBuilder
	if err := run(ctx, []string{"-snapshot-interval", "5s"}, &sb); err == nil {
		t.Fatal("-snapshot-interval without -snapshot-path should fail")
	}
	if err := run(ctx, []string{"-snapshot-interval", "-5s", "-snapshot-path", "x"}, &sb); err == nil {
		t.Fatal("negative -snapshot-interval should fail")
	}
}
