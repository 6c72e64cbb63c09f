package autoscale

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodesampling/internal/core"
	"nodesampling/internal/rng"
	"nodesampling/internal/shard"
)

// fakeTarget is a scriptable Target: tests set the signals a tick will
// observe and record every resize the controller issues.
type fakeTarget struct {
	mu      sync.Mutex
	sig     shard.LoadSignals
	resizes []int
	err     error
}

func (f *fakeTarget) LoadSignals() shard.LoadSignals {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sig
}

func (f *fakeTarget) Resize(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	f.resizes = append(f.resizes, n)
	f.sig.Shards = n
	f.sig.QueueCap = n * 16
	return nil
}

func (f *fakeTarget) set(mut func(*shard.LoadSignals)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mut(&f.sig)
}

func (f *fakeTarget) resized() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.resizes...)
}

func newFake(shards int) *fakeTarget {
	return &fakeTarget{sig: shard.LoadSignals{Shards: shards, QueueCap: shards * 16}}
}

// testController builds an unstarted controller with tight, deterministic
// settings; tests drive Tick with an explicit clock.
func testController(t *testing.T, f *fakeTarget, cfg Config) *Controller {
	t.Helper()
	c, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestConfigValidation(t *testing.T) {
	f := newFake(1)
	bad := []Config{
		{Min: -1, Max: 4},
		{Min: 8, Max: 4},
		{Min: 1, Max: shard.MaxShards + 1},
		{Min: 1, Max: 4, Alpha: 1.5},
		{Min: 1, Max: 4, Alpha: -0.1},
		{Min: 1, Max: 4, GrowThreshold: 0.1, ShrinkThreshold: 0.2},
		{Min: 1, Max: 4, Interval: -time.Second},
		{Min: 1, Max: 4, Cooldown: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := New(f, cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
	c, err := New(f, Config{})
	if err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	st := c.State()
	if st.Min != 1 || st.Max != shard.MaxShards || st.Interval != time.Second ||
		st.Alpha != 0.3 || st.GrowThreshold != 0.5 || st.ShrinkThreshold != 0.05 ||
		st.Cooldown != 3*time.Second || st.Enabled {
		t.Fatalf("defaults not applied: %+v", st)
	}
}

func TestSustainedDropsGrowWithCooldown(t *testing.T) {
	f := newFake(1)
	c := testController(t, f, Config{
		Min: 1, Max: 8, Enabled: true,
		Alpha: 0.5, GrowThreshold: 0.5, ShrinkThreshold: 0.01,
		Interval: time.Second, Cooldown: 3 * time.Second,
	})
	now := time.Unix(1000, 0)
	// Baseline tick: no history yet, empty queues — hold.
	if d := c.Tick(now); d.Action != Hold {
		t.Fatalf("baseline tick acted: %+v", d)
	}
	// Sustained 80% drop fraction: EWMA 0.4 after one loaded tick (below
	// the threshold — one bad tick is not enough), 0.6 after two.
	tickLoaded := func() Decision {
		f.set(func(s *shard.LoadSignals) { s.Processed += 200; s.Dropped += 800 })
		now = now.Add(time.Second)
		return c.Tick(now)
	}
	if d := tickLoaded(); d.Action != Hold {
		t.Fatalf("one loaded tick already resized: %+v", d)
	}
	d := tickLoaded()
	if d.Action != Grow || d.To != 2 {
		t.Fatalf("sustained drops did not grow 1→2: %+v", d)
	}
	// Inside the cooldown the controller only observes, even under full
	// queues (the delta baseline restarted at the resize, so occupancy is
	// the pressure signal here).
	f.set(func(s *shard.LoadSignals) { s.QueueLen = s.QueueCap })
	if d := tickLoaded(); d.Action != Hold || !strings.Contains(d.Reason, "cooldown") {
		t.Fatalf("tick inside cooldown: %+v", d)
	}
	f.set(func(s *shard.LoadSignals) { s.QueueLen = 0 })
	// Past the cooldown it doubles again, clamping at Max eventually.
	now = now.Add(3 * time.Second)
	for i := 0; i < 20 && f.sig.Shards < 8; i++ {
		tickLoaded()
		now = now.Add(3 * time.Second)
	}
	if got := f.resized(); len(got) != 3 || got[0] != 2 || got[1] != 4 || got[2] != 8 {
		t.Fatalf("grow sequence %v, want [2 4 8]", got)
	}
	// At Max, sustained pressure holds rather than erroring.
	if d := tickLoaded(); d.Action != Hold {
		t.Fatalf("tick at max resized: %+v", d)
	}
	st := c.State()
	if st.Resizes != 3 || st.Ticks == 0 {
		t.Fatalf("state after growth: %+v", st)
	}
}

func TestSingleSpikeDoesNotThrash(t *testing.T) {
	f := newFake(2)
	c := testController(t, f, Config{
		Min: 2, Max: 8, Enabled: true,
		Alpha: 0.3, GrowThreshold: 0.5, ShrinkThreshold: 0.0001,
		Interval: time.Second, Cooldown: time.Second,
	})
	now := time.Unix(2000, 0)
	c.Tick(now)
	// One tick of total overload (queues full), then quiet.
	f.set(func(s *shard.LoadSignals) { s.QueueLen = s.QueueCap })
	now = now.Add(time.Second)
	if d := c.Tick(now); d.Action != Hold {
		t.Fatalf("a single full-queue spike resized the plane: %+v", d)
	}
	f.set(func(s *shard.LoadSignals) { s.QueueLen = 0 })
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		if d := c.Tick(now); d.Action != Hold {
			t.Fatalf("post-spike tick %d resized: %+v", i, d)
		}
	}
	if got := f.resized(); len(got) != 0 {
		t.Fatalf("spike caused resizes: %v", got)
	}
}

func TestIdleShrinksToMin(t *testing.T) {
	f := newFake(8)
	c := testController(t, f, Config{
		Min: 2, Max: 8, Enabled: true,
		Alpha: 0.5, GrowThreshold: 0.5, ShrinkThreshold: 0.05,
		Interval: time.Second, Cooldown: 2 * time.Second,
	})
	now := time.Unix(3000, 0)
	for i := 0; i < 20 && f.sig.Shards > 2; i++ {
		c.Tick(now)
		now = now.Add(3 * time.Second) // always past the cooldown
	}
	if got := f.resized(); len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Fatalf("shrink sequence %v, want [4 2]", got)
	}
	// At Min an idle plane stays put.
	if d := c.Tick(now); d.Action != Hold {
		t.Fatalf("idle tick at min resized: %+v", d)
	}
}

func TestHysteresisBandHolds(t *testing.T) {
	f := newFake(4)
	c := testController(t, f, Config{
		Min: 1, Max: 8, Enabled: true,
		Alpha: 1, GrowThreshold: 0.6, ShrinkThreshold: 0.2,
		Interval: time.Second,
	})
	now := time.Unix(4000, 0)
	// 40% occupancy sits between the thresholds: hold forever (alpha 1, so
	// the EWMA equals the occupancy from the very first tick).
	f.set(func(s *shard.LoadSignals) { s.QueueLen = 2 * s.Shards * 16 / 5 })
	for i := 0; i < 8; i++ {
		now = now.Add(time.Second)
		if d := c.Tick(now); d.Action != Hold || d.Reason != "load within thresholds" {
			t.Fatalf("in-band tick acted: %+v", d)
		}
	}
}

func TestDisabledMeasuresButNeverActs(t *testing.T) {
	f := newFake(1)
	c := testController(t, f, Config{
		Min: 1, Max: 8,
		Alpha: 0.5, GrowThreshold: 0.3, ShrinkThreshold: 0.01,
		Interval: time.Second,
	})
	now := time.Unix(5000, 0)
	c.Tick(now)
	for i := 0; i < 5; i++ {
		f.set(func(s *shard.LoadSignals) { s.Processed += 100; s.Dropped += 900 })
		now = now.Add(time.Second)
		if d := c.Tick(now); d.Action != Hold || d.Reason != "disabled" {
			t.Fatalf("disabled controller acted: %+v", d)
		}
	}
	st := c.State()
	if st.EWMA < 0.3 {
		t.Fatalf("disabled controller did not keep measuring: EWMA %v", st.EWMA)
	}
	// Arming it lets the already-high EWMA act on the next tick.
	c.SetEnabled(true)
	f.set(func(s *shard.LoadSignals) { s.Processed += 100; s.Dropped += 900 })
	now = now.Add(time.Second)
	if d := c.Tick(now); d.Action != Grow || d.To != 2 {
		t.Fatalf("armed controller did not act on accumulated pressure: %+v", d)
	}
}

func TestTuneBoundsCorrection(t *testing.T) {
	f := newFake(2)
	c := testController(t, f, Config{
		Min: 1, Max: 8, Enabled: true, Interval: time.Second,
	})
	now := time.Unix(6000, 0)
	// Raise Min above the current count: the next tick corrects upward
	// regardless of load.
	min := 4
	if _, err := c.Tune(Tuning{Min: &min}); err != nil {
		t.Fatal(err)
	}
	if d := c.Tick(now); d.Action != Grow || d.To != 4 {
		t.Fatalf("tick after raising min: %+v", d)
	}
	// Drop Max below the current count: correct downward (past cooldown).
	min, max := 1, 2
	if _, err := c.Tune(Tuning{Min: &min, Max: &max}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Hour)
	if d := c.Tick(now); d.Action != Shrink || d.To != 2 {
		t.Fatalf("tick after lowering max: %+v", d)
	}
	// Invalid combinations are rejected atomically.
	bad := 0
	if _, err := c.Tune(Tuning{Min: &bad}); err == nil {
		t.Fatal("Tune accepted min 0")
	}
	if st := c.State(); st.Min != 1 || st.Max != 2 {
		t.Fatalf("rejected Tune leaked: %+v", st)
	}
}

func TestResizeErrorRecordedAndRetried(t *testing.T) {
	f := newFake(1)
	f.err = errors.New("plane wedged")
	c := testController(t, f, Config{
		Min: 1, Max: 8, Enabled: true,
		Alpha: 1, GrowThreshold: 0.5, ShrinkThreshold: 0.01,
		Interval: time.Second, Cooldown: 10 * time.Second,
	})
	now := time.Unix(7000, 0)
	c.Tick(now)
	f.set(func(s *shard.LoadSignals) { s.QueueLen = s.QueueCap })
	now = now.Add(time.Second)
	d := c.Tick(now)
	if d.Action != Grow || d.Err == "" {
		t.Fatalf("failed resize not recorded: %+v", d)
	}
	if st := c.State(); st.Resizes != 0 || st.CooldownRemaining != 0 {
		t.Fatalf("failed resize counted or started a cooldown: %+v", st)
	}
	// The fault clears: the very next tick retries (no cooldown was set).
	f.mu.Lock()
	f.err = nil
	f.mu.Unlock()
	now = now.Add(time.Second)
	if d := c.Tick(now); d.Action != Grow || d.Err != "" {
		t.Fatalf("retry after cleared fault: %+v", d)
	}
	if got := f.resized(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("resizes after retry: %v", got)
	}
}

func TestCloseWithoutStart(t *testing.T) {
	c, err := New(newFake(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
}

// TestControllerAgainstLivePool runs the controller's Run loop at full
// speed against a real pool while producers, samplers, a manual resizer
// and finally Close race it — the race detector and the
// either-complete-or-closed contract are the assertions.
func TestControllerAgainstLivePool(t *testing.T) {
	sampler, err := core.NewFactory(core.DefaultStrategy, core.StrategyParams{K: 16, S: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.New(shard.Config{
		Shards: 2, Buffer: 2, Block: false, Seed: 11, Capacity: 16,
		Sampler: sampler,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p, Config{
		Min: 1, Max: 8, Enabled: true,
		Interval: time.Millisecond, Cooldown: 2 * time.Millisecond,
		Alpha: 0.5, GrowThreshold: 0.2, ShrinkThreshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			batch := make([]uint64, 256)
			for !stop.Load() {
				for i := range batch {
					batch[i] = r.Uint64()
				}
				if err := p.PushBatch(batch); err != nil {
					return // pool closed under us: the accepted outcome
				}
			}
		}(uint64(g) + 21)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			p.SampleN(32)
			p.LoadSignals()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A manual operator fighting the controller.
		for i := 0; !stop.Load(); i++ {
			if err := p.Resize(2 + i%3); err != nil && !errors.Is(err, shard.ErrPoolClosed) {
				t.Errorf("manual resize: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(100 * time.Millisecond)
	// Close the pool while the controller is still ticking: resize failures
	// must be recorded, never panic.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	c.Close()
	if st := c.State(); st.Ticks == 0 {
		t.Fatalf("controller never ticked: %+v", st)
	}
}

// TestExternalResizeResetsDeltaBaseline pins the fix for manual resizes:
// a topology change the controller did not make also quiesced the plane,
// and the counter deltas straddling that stall (queued ids dropped at the
// barrier, the stall window itself) must not be misread as load.
func TestExternalResizeResetsDeltaBaseline(t *testing.T) {
	f := newFake(4)
	c := testController(t, f, Config{
		Min: 1, Max: 8, Enabled: true,
		Alpha: 1, GrowThreshold: 0.5, ShrinkThreshold: 0.1,
		Interval: time.Second,
	})
	now := time.Unix(8000, 0)
	f.set(func(s *shard.LoadSignals) { s.QueueLen = s.QueueCap / 4 }) // in-band
	c.Tick(now)
	// A manual resize lands between ticks: epoch bumps, and the quiesce
	// stall shows up as a huge drop delta in the cumulative counters.
	f.set(func(s *shard.LoadSignals) {
		s.Epoch++
		s.Dropped += 10000
		s.QueueLen = s.QueueCap / 4
	})
	now = now.Add(time.Second)
	if d := c.Tick(now); d.Action != Hold || d.Pressure > 0.3 {
		t.Fatalf("manual-resize stall misread as load: %+v", d)
	}
	// With a stable epoch the same delta is real load again.
	f.set(func(s *shard.LoadSignals) { s.Dropped += 10000; s.Processed += 100 })
	now = now.Add(time.Second)
	if d := c.Tick(now); d.Action != Grow {
		t.Fatalf("genuine drop burst after re-baselining ignored: %+v", d)
	}
}

// TestSaturationReasonsNameTheBound: a plane pinned at Max under load (or
// at Min while idle) must say so instead of claiming the load is in-band.
func TestSaturationReasonsNameTheBound(t *testing.T) {
	f := newFake(8)
	c := testController(t, f, Config{
		Min: 8, Max: 8, Enabled: true,
		Alpha: 1, GrowThreshold: 0.5, ShrinkThreshold: 0.1,
		Interval: time.Second,
	})
	now := time.Unix(9000, 0)
	f.set(func(s *shard.LoadSignals) { s.QueueLen = s.QueueCap })
	if d := c.Tick(now); d.Action != Hold || !strings.Contains(d.Reason, "at max") {
		t.Fatalf("saturated-at-max reason: %+v", d)
	}
	f.set(func(s *shard.LoadSignals) { s.QueueLen = 0 })
	now = now.Add(time.Second)
	if d := c.Tick(now); d.Action != Hold || !strings.Contains(d.Reason, "at min") {
		t.Fatalf("idle-at-min reason: %+v", d)
	}
}
