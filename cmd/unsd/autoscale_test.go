package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodesampling/internal/autoscale"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
	"nodesampling/internal/shard"
)

// waitForLong is waitFor with a caller-chosen deadline, for the flood
// phases that legitimately take a while under the race detector.
func waitForLong(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// statsSnapshot is the /stats subset the flood test tracks.
type statsSnapshot struct {
	Processed uint64 `json:"processed"`
	Dropped   uint64 `json:"dropped"`
	ShardNum  int    `json:"shard_count"`
	MapEpoch  uint64 `json:"map_epoch"`
	Autoscale struct {
		Enabled  bool    `json:"enabled"`
		Min      int     `json:"min"`
		Max      int     `json:"max"`
		EWMA     float64 `json:"load_ewma"`
		Ticks    uint64  `json:"ticks"`
		Resizes  uint64  `json:"resizes"`
		Cooldown int64   `json:"cooldown_remaining_ms"`
		Last     struct {
			Action string `json:"action"`
			Reason string `json:"reason"`
			From   int    `json:"from"`
			To     int    `json:"to"`
		} `json:"last_decision"`
		LastResize struct {
			Action string `json:"action"`
			From   int    `json:"from"`
			To     int    `json:"to"`
		} `json:"last_resize"`
	} `json:"autoscale"`
}

// TestAutoscaleFloodGrowShrinkLifecycle is the acceptance e2e for the
// autoscaling plane. A hostile flood of single-id pushes overruns a
// one-shard daemon's ingest queue until drops appear; the controller must
// observe the drop rate and grow the plane to its configured max, after
// which the same flood fits in the widened queue capacity and the drop
// rate collapses. Once the flood subsides the idle plane must shrink back
// to min on its own — and throughout the autonomous resizes, Sample must
// stay chi-square-uniform over the population.
func TestAutoscaleFloodGrowShrinkLifecycle(t *testing.T) {
	const (
		popSize   = 512
		burst     = 300
		minShards = 1
		maxShards = 8
	)
	o := options{
		shards: minShards, c: popSize, k: 32, s: 4,
		buffer: 64, block: false, seed: 99,
		autoscale: true, minShards: minShards, maxShards: maxShards,
		autoscaleInterval: 10 * time.Millisecond,
	}
	d := testDaemon(t, o)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// Phase-1 tuning, through the admin endpoint: sensitive growth, and a
	// shrink threshold of zero so the plane cannot contract while the flood
	// (and the post-grow measurement) is still running.
	var tuned struct {
		Enabled bool    `json:"enabled"`
		Grow    float64 `json:"grow_threshold"`
	}
	if code := postJSON(t, ts.URL+"/autoscale", map[string]any{
		"grow_threshold": 0.05, "shrink_threshold": 0.0, "cooldown_ms": 50,
	}, &tuned); code != http.StatusOK {
		t.Fatalf("autoscale tune status %d", code)
	}
	if !tuned.Enabled || tuned.Grow != 0.05 {
		t.Fatalf("tune answered %+v", tuned)
	}

	// The flood: bursts of single-id pushes from the population, far larger
	// than one shard's queue (64) but comfortably inside eight shards'
	// spread capacity — so growth, not raw CPU, is what ends the drops.
	pop := make([]uint64, popSize)
	for i := range pop {
		pop[i] = uint64(i + 1)
	}
	stopFlood := make(chan struct{})
	var floodWG sync.WaitGroup
	floodWG.Add(1)
	go func() {
		defer floodWG.Done()
		r := rng.New(5)
		for {
			select {
			case <-stopFlood:
				return
			default:
			}
			for i := 0; i < burst; i++ {
				_ = d.pool.Push(pop[r.Intn(popSize)])
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Drops must appear, and must trigger growth.
	waitForLong(t, "ingest drops under the flood", 20*time.Second, func() bool {
		return d.pool.Stats().Dropped > 0
	})
	var preGrow shard.Stats
	waitForLong(t, "the first autonomous grow", 20*time.Second, func() bool {
		if d.pool.NumShards() > minShards {
			preGrow = d.pool.Stats()
			return true
		}
		return false
	})
	preFrac := float64(preGrow.Dropped) / float64(preGrow.Dropped+preGrow.Processed)
	if preFrac < 0.1 {
		t.Fatalf("pre-grow drop fraction %.3f too small to prove anything", preFrac)
	}
	waitForLong(t, "growth to max shards", 30*time.Second, func() bool {
		return d.pool.NumShards() == maxShards
	})

	// At max, the same flood must mostly fit: measure the drop rate over a
	// settled window and compare with the one-shard era.
	time.Sleep(200 * time.Millisecond)
	a := d.pool.Stats()
	time.Sleep(500 * time.Millisecond)
	b := d.pool.Stats()
	dDrop := b.Dropped - a.Dropped
	dProc := b.Processed - a.Processed
	if dProc == 0 {
		t.Fatal("flood stalled during the post-grow window")
	}
	postFrac := float64(dDrop) / float64(dDrop+dProc)
	if postFrac >= preFrac/2 {
		t.Fatalf("drop rate did not fall after growth: pre %.3f, post %.3f", preFrac, postFrac)
	}

	// Flood over. Phase-2 tuning: normal thresholds so the idle plane
	// shrinks, and a grow threshold high enough that the gentle coverage
	// traffic below cannot regrow it.
	close(stopFlood)
	floodWG.Wait()
	if code := postJSON(t, ts.URL+"/autoscale", map[string]any{
		"grow_threshold": 0.5, "shrink_threshold": 0.05, "cooldown_ms": 50,
	}, nil); code != http.StatusOK {
		t.Fatalf("autoscale retune status %d", code)
	}

	// Warm every shard's Γ to its full sub-population (capacity equals the
	// population, so coverage is total once admission has seen enough).
	waitForLong(t, "full Γ coverage of the population", 30*time.Second, func() bool {
		if err := d.pool.PushBatch(pop); err != nil {
			t.Fatal(err)
		}
		if err := d.pool.Flush(); err != nil {
			t.Fatal(err)
		}
		return len(d.pool.Memory()) == popSize
	})

	// Sample while the autoscaler shrinks the plane underneath: uniformity
	// must hold across the autonomous resizes.
	byID := metrics.NewHistogram()
	sampled := 0
	waitForLong(t, "shrink back to min while sampling", 60*time.Second, func() bool {
		for _, id := range d.pool.SampleN(2000) {
			byID.Add(id)
		}
		sampled += 2000
		return sampled >= 100000 && d.pool.NumShards() == minShards
	})
	chi, err := byID.ChiSquareUniform(popSize)
	if err != nil {
		t.Fatal(err)
	}
	// df = 511; the 99.99th percentile is ≈ 630.
	if chi > 700 {
		t.Fatalf("samples not uniform across autonomous resizes: chi2 = %v over %d samples", chi, sampled)
	}

	// The operational surface must tell the story: epoch == resizes (every
	// resize was autonomous), a shrink as the last decision, and the
	// controller disarmable at runtime.
	var st statsSnapshot
	getJSON(t, ts.URL+"/stats", &st)
	if st.ShardNum != minShards {
		t.Fatalf("final shard count %d, want %d", st.ShardNum, minShards)
	}
	if st.Autoscale.Resizes < 6 || st.MapEpoch != st.Autoscale.Resizes {
		t.Fatalf("resize accounting: epoch %d, resizes %d (want ≥6, equal)", st.MapEpoch, st.Autoscale.Resizes)
	}
	if st.Autoscale.LastResize.Action != "shrink" || st.Autoscale.LastResize.To != minShards {
		t.Fatalf("last resize %+v, want a shrink to %d", st.Autoscale.LastResize, minShards)
	}
	if st.Autoscale.Last.Reason == "" {
		t.Fatal("last decision carries no reason")
	}
	if !st.Autoscale.Enabled || st.Autoscale.Min != minShards || st.Autoscale.Max != maxShards {
		t.Fatalf("autoscale state in /stats: %+v", st.Autoscale)
	}
	if code := postJSON(t, ts.URL+"/autoscale", map[string]bool{"enabled": false}, nil); code != http.StatusOK {
		t.Fatalf("disable status %d", code)
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.Autoscale.Enabled {
		t.Fatal("controller still enabled after POST /autoscale disable")
	}
}

// TestAutoscaleRacesWithManualResizeAndClose drives the controller at full
// speed against concurrent ingest, sampling, manual POST /resize and
// finally daemon Close. The race detector plus clean status codes are the
// assertions: a manual resize racing the controller answers 200, 409 or
// (after close) 503 — never anything opaque.
func TestAutoscaleRacesWithManualResizeAndClose(t *testing.T) {
	o := defaultOptions()
	o.block = false
	o.buffer = 2
	o.autoscale = true
	o.minShards, o.maxShards = 1, 8
	o.autoscaleInterval = time.Millisecond
	d := testDaemon(t, o)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	// Hair-trigger thresholds so the controller really fights the others.
	grow, shrink, cooldown := 0.1, 0.05, 2*time.Millisecond
	if _, err := d.ctrl.Tune(autoscale.Tuning{
		GrowThreshold: &grow, ShrinkThreshold: &shrink, Cooldown: &cooldown,
	}); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			batch := make([]uint64, 512)
			for !stop.Load() {
				for i := range batch {
					batch[i] = r.Uint64()
				}
				if err := d.pool.PushBatch(batch); err != nil {
					if !errors.Is(err, shard.ErrPoolClosed) {
						t.Errorf("push: %v", err)
					}
					return
				}
			}
		}(uint64(g) + 31)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			d.pool.SampleN(64)
			d.pool.LoadSignals()
			d.ctrl.State()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			code := postJSON(t, ts.URL+"/resize", map[string]int{"shards": 2 + i%3}, nil)
			switch code {
			case http.StatusOK, http.StatusConflict, http.StatusServiceUnavailable:
			default:
				t.Errorf("manual resize status %d", code)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	// Close the daemon while everything is still flying.
	d.Close()
	stop.Store(true)
	wg.Wait()
	if st := d.ctrl.State(); st.Ticks == 0 {
		t.Fatalf("controller never ticked: %+v", st)
	}
}
