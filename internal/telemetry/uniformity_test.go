package telemetry

import (
	"strings"
	"sync"
	"testing"

	"nodesampling/internal/rng"
)

func collectGauge(t *testing.T, u *Uniformity, name string) (float64, bool) {
	t.Helper()
	for _, f := range u.Collect() {
		if f.Name != name {
			continue
		}
		if len(f.Samples) == 0 {
			return 0, false
		}
		if len(f.Samples) != 1 {
			t.Fatalf("%s: want at most 1 sample, got %d", name, len(f.Samples))
		}
		return f.Samples[0].Value, true
	}
	t.Fatalf("family %s not collected", name)
	return 0, false
}

func TestProbeSlidingWindow(t *testing.T) {
	p := NewProbe(4, 1)
	p.Offer([]uint64{1, 2, 3, 4})
	h, seen, kept := p.Snapshot()
	if seen != 4 || kept != 4 {
		t.Fatalf("seen=%d kept=%d, want 4/4", seen, kept)
	}
	if h.Total() != 4 || h.Distinct() != 4 {
		t.Fatalf("total=%d distinct=%d, want 4/4", h.Total(), h.Distinct())
	}
	// Two more ids evict the two oldest (1 and 2).
	p.Offer([]uint64{5, 5})
	h, _, _ = p.Snapshot()
	if h.Total() != 4 {
		t.Fatalf("total=%d after eviction, want 4", h.Total())
	}
	if h.Count(1) != 0 || h.Count(2) != 0 {
		t.Fatalf("oldest ids not evicted: count(1)=%d count(2)=%d", h.Count(1), h.Count(2))
	}
	if h.Count(5) != 2 || h.Count(3) != 1 || h.Count(4) != 1 {
		t.Fatalf("window contents wrong: 5=%d 3=%d 4=%d", h.Count(5), h.Count(3), h.Count(4))
	}
}

func TestProbeDecimation(t *testing.T) {
	const total = 4000
	p := NewProbe(total, 4)
	ids := make([]uint64, total)
	for i := range ids {
		ids[i] = uint64(i)
	}
	// Split across batches: decimation must carry over the boundary.
	p.Offer(ids[:7])
	p.Offer(ids[7:])
	_, seen, kept := p.Snapshot()
	if seen != total {
		t.Fatalf("seen=%d, want %d", seen, total)
	}
	// The hashed 1-in-4 gate admits ~total/4; the exact count is
	// deterministic but not a round quarter.
	if kept < total/5 || kept > total/3 {
		t.Fatalf("kept=%d, want roughly %d (1 of every 4)", kept, total/4)
	}
	// Aliasing guard: a periodic id cycle sharing a factor with the
	// decimation interval must still populate (nearly) all distinct ids.
	q := NewProbe(512, 8)
	cyc := make([]uint64, 512*8)
	for i := range cyc {
		cyc[i] = uint64(i % 64)
	}
	q.Offer(cyc)
	h, _, _ := q.Snapshot()
	if h.Distinct() < 60 {
		t.Fatalf("periodic input collapsed under decimation: %d distinct of 64", h.Distinct())
	}
}

func TestProbeDisabled(t *testing.T) {
	p := NewProbe(0, 1)
	p.Offer([]uint64{1, 2, 3})
	h, seen, kept := p.Snapshot()
	if h.Total() != 0 || kept != 0 {
		t.Fatalf("disabled probe admitted ids: total=%d kept=%d", h.Total(), kept)
	}
	if seen != 3 {
		t.Fatalf("disabled probe lost the offered count: seen=%d", seen)
	}
}

// TestProbeWindowIsLastKeptIDs holds the ring against a model kept beside
// it: whatever the decimation (none, the daemon's power-of-two 8, a
// non-power-of-two 3), however the stream is cut into batches, and however
// often the ring has wrapped, the snapshot histogram is exactly the multiset
// of the last `window` ids the 1-in-every gate let through.
func TestProbeWindowIsLastKeptIDs(t *testing.T) {
	const window = 64
	for _, every := range []int{1, 3, 8} {
		p := NewProbe(window, every)
		r := rng.New(uint64(every))
		var model []uint64 // every kept id, in order
		var seen uint64
		for batch := 0; batch < 400; batch++ { // ~10 000 ids: 20 to 160 wraps
			ids := make([]uint64, r.Intn(50)) // empty batches included
			for i := range ids {
				ids[i] = r.Uint64n(40)
				seen++
				if rng.Mix64(seen)%uint64(every) == 0 {
					model = append(model, ids[i])
				}
			}
			p.Offer(ids)
			if batch%7 != 0 && batch != 399 {
				continue
			}
			h, gotSeen, gotKept := p.Snapshot()
			if gotSeen != seen || gotKept != uint64(len(model)) {
				t.Fatalf("every=%d batch %d: seen/kept %d/%d, want %d/%d", every, batch, gotSeen, gotKept, seen, len(model))
			}
			last := model[max(0, len(model)-window):]
			want := map[uint64]uint64{}
			for _, id := range last {
				want[id]++
			}
			if h.Total() != uint64(len(last)) || h.Distinct() != len(want) {
				t.Fatalf("every=%d batch %d: window holds %d ids (%d distinct), want %d (%d)",
					every, batch, h.Total(), h.Distinct(), len(last), len(want))
			}
			for id, n := range want {
				if h.Count(id) != n {
					t.Fatalf("every=%d batch %d: id %d counted %d times, want %d", every, batch, id, h.Count(id), n)
				}
			}
		}
		if len(model) < 20*window {
			t.Fatalf("every=%d: only %d kept ids, the ring barely wrapped", every, len(model))
		}
	}
}

// TestProbeOfferAllocatesNothing: Offer runs on the connection goroutine for
// every ingested batch; it may count and store, never allocate.
func TestProbeOfferAllocatesNothing(t *testing.T) {
	ids := make([]uint64, 1024)
	for i := range ids {
		ids[i] = uint64(i)
	}
	for _, p := range []*Probe{NewProbe(4096, 8), NewProbe(256, 1), NewProbe(0, 8)} {
		if allocs := testing.AllocsPerRun(100, func() { p.Offer(ids) }); allocs != 0 {
			t.Errorf("window %d: Offer allocated %v times per batch", p.Window(), allocs)
		}
	}
}

// TestProbeOfferRacesSnapshot: ingest goroutines offer while a scraper
// snapshots. Every snapshot must be a consistent cut — a window no larger
// than the ring, counters that only grow — and the race detector must stay
// quiet.
func TestProbeOfferRacesSnapshot(t *testing.T) {
	const window, writers, batches = 128, 4, 200
	p := NewProbe(window, 8)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint64, 100)
			for b := 0; b < batches; b++ {
				for i := range ids {
					ids[i] = uint64(w*1000 + i)
				}
				p.Offer(ids)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var lastSeen, lastKept uint64
		for i := 0; i < 200; i++ {
			h, seen, kept := p.Snapshot()
			if seen < lastSeen || kept < lastKept || kept > seen {
				t.Errorf("counters went seen %d→%d, kept %d→%d", lastSeen, seen, lastKept, kept)
			}
			if h.Total() != min(kept, window) {
				t.Errorf("window holds %d ids after %d kept", h.Total(), kept)
			}
			lastSeen, lastKept = seen, kept
		}
	}()
	wg.Wait()
	<-done
	if _, seen, _ := p.Snapshot(); seen != writers*batches*100 {
		t.Fatalf("seen %d of %d offered ids", seen, writers*batches*100)
	}
}

// TestUniformityFloodDegradesAndRecovers drives the gauge through the
// acceptance scenario in miniature: a uniform baseline, then a targeted
// flood concentrated on one id, then uniform traffic again. Input KL must
// rise under the flood and fall back once the window slides past it.
func TestUniformityFloodDegradesAndRecovers(t *testing.T) {
	const window = 512
	u := NewUniformity(window, 1)

	uniform := make([]uint64, window)
	for i := range uniform {
		uniform[i] = uint64(i % 64)
	}
	u.In.Offer(uniform)
	u.Out.Offer(uniform)

	baseline, ok := collectGauge(t, u, "unsd_uniformity_input_kl")
	if !ok {
		t.Fatal("no baseline input KL")
	}
	if baseline > 1e-9 {
		t.Fatalf("uniform baseline has KL %v, want ~0", baseline)
	}

	// Targeted flood: 80% of the window becomes a single id.
	flood := make([]uint64, window*8/10)
	for i := range flood {
		flood[i] = 7
	}
	u.In.Offer(flood)
	flooded, ok := collectGauge(t, u, "unsd_uniformity_input_kl")
	if !ok {
		t.Fatal("no flooded input KL")
	}
	if flooded <= baseline+0.5 {
		t.Fatalf("flood did not degrade the gauge: baseline %v, flooded %v", baseline, flooded)
	}

	// Gain must show the output (still uniform) beating the input.
	gain, ok := collectGauge(t, u, "unsd_uniformity_gain")
	if !ok {
		t.Fatal("no gain while input is biased")
	}
	if gain < 0.5 {
		t.Fatalf("gain %v under flood, want close to 1 (output stayed uniform)", gain)
	}

	// Recovery: a full window of uniform traffic slides the flood out.
	u.In.Offer(uniform)
	recovered, ok := collectGauge(t, u, "unsd_uniformity_input_kl")
	if !ok {
		t.Fatal("no recovered input KL")
	}
	if recovered > 1e-9 {
		t.Fatalf("gauge did not recover after flood: KL %v", recovered)
	}
}

func TestUniformityEmptyWindows(t *testing.T) {
	u := NewUniformity(64, 1)
	if _, ok := collectGauge(t, u, "unsd_uniformity_input_kl"); ok {
		t.Error("empty window exported an input KL sample")
	}
	if _, ok := collectGauge(t, u, "unsd_uniformity_gain"); ok {
		t.Error("empty window exported a gain sample")
	}
	// Metadata families must still be present and valid for the registry.
	r := NewRegistry()
	r.Register(u)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo over empty gauge: %v", err)
	}
}
