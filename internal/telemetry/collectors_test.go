package telemetry

import (
	"strings"
	"testing"
	"time"

	"nodesampling/internal/autoscale"
	"nodesampling/internal/core"
	"nodesampling/internal/shard"
)

func newTestPool(t *testing.T, shards int) *shard.Pool {
	t.Helper()
	sampler, err := core.NewFactory(core.DefaultStrategy, core.StrategyParams{K: 10, S: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.New(shard.Config{
		Shards:   shards,
		Buffer:   16,
		Block:    true,
		Seed:     1,
		Capacity: 10,
		Sampler:  sampler,
	})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPoolCollectorReconcilesWithStats(t *testing.T) {
	p := newTestPool(t, 4)
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = uint64(i % 50)
	}
	if err := p.PushBatch(ids); err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	sub, err := p.Subscribe(256)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer p.Unsubscribe(sub)

	r := NewRegistry()
	r.Register(PoolCollector(p))
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	s, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}

	sig := p.LoadSignals()
	if v, ok := s.Value("unsd_pool_processed_ids_total"); !ok || v != float64(sig.Processed) {
		t.Errorf("processed: exported %v ok=%v, LoadSignals %d", v, ok, sig.Processed)
	}
	if v, ok := s.Value("unsd_pool_shards"); !ok || v != 4 {
		t.Errorf("shards: exported %v ok=%v, want 4", v, ok)
	}
	// Per-shard processed must sum to (at least) the pool total minus
	// retired shards; with no resize yet they are equal.
	if sum, ok := s.Sum("unsd_shard_processed_ids_total"); !ok || sum != float64(sig.Processed) {
		t.Errorf("per-shard processed sum %v ok=%v, want %d", sum, ok, sig.Processed)
	}
	if f := s.Family("unsd_shard_processed_ids_total"); f == nil || len(f.Samples) != 4 {
		t.Errorf("want 4 per-shard samples, got %+v", f)
	}
	if f := s.Family("unsd_subscriber_offered_ids_total"); f == nil || len(f.Samples) != 1 {
		t.Errorf("want 1 per-subscriber sample, got %+v", f)
	}
}

func TestPoolCollectorMonotoneAcrossResize(t *testing.T) {
	p := newTestPool(t, 2)
	ids := make([]uint64, 4096)
	for i := range ids {
		ids[i] = uint64(i)
	}
	read := func() map[string]float64 {
		var sb strings.Builder
		r := NewRegistry()
		r.Register(PoolCollector(p))
		if _, err := r.WriteTo(&sb); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		s, err := Parse(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		out := make(map[string]float64)
		for _, name := range []string{
			"unsd_pool_processed_ids_total",
			"unsd_pool_dropped_ids_total",
			"unsd_pool_emit_dropped_ids_total",
			"unsd_pool_map_epoch",
		} {
			v, ok := s.Value(name)
			if !ok {
				t.Fatalf("family %s missing", name)
			}
			out[name] = v
		}
		return out
	}

	if err := p.PushBatch(ids); err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	before := read()
	for _, n := range []int{5, 3, 8} {
		if err := p.Resize(n); err != nil {
			t.Fatalf("Resize(%d): %v", n, err)
		}
		if err := p.PushBatch(ids); err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
		if err := p.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		after := read()
		for name, prev := range before {
			if after[name] < prev {
				t.Errorf("resize to %d shards: %s went backwards (%v -> %v)", n, name, prev, after[name])
			}
		}
		before = after
	}
}

type staticTarget struct{ sig shard.LoadSignals }

func (s staticTarget) LoadSignals() shard.LoadSignals { return s.sig }
func (s staticTarget) Resize(int) error               { return nil }

func TestAutoscaleCollector(t *testing.T) {
	tgt := staticTarget{sig: shard.LoadSignals{
		Shards: 8, QueueCap: 512, QueueLen: 96, Processed: 1 << 20,
	}}
	c, err := autoscale.New(tgt, autoscale.Config{
		Min: 1, Max: 64, Enabled: true, Interval: time.Second,
	})
	if err != nil {
		t.Fatalf("autoscale.New: %v", err)
	}

	r := NewRegistry()
	r.Register(AutoscaleCollector(c))
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	s, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v, ok := s.Value("unsd_autoscale_enabled"); !ok || v != 1 {
		t.Errorf("enabled: got %v ok=%v", v, ok)
	}
	if v, ok := s.Value("unsd_autoscale_min_shards"); !ok || v != 1 {
		t.Errorf("min: got %v ok=%v", v, ok)
	}
	if v, ok := s.Value("unsd_autoscale_max_shards"); !ok || v != 64 {
		t.Errorf("max: got %v ok=%v", v, ok)
	}

	// Nil controller must collect nothing rather than panic.
	if fams := AutoscaleCollector(nil).Collect(); fams != nil {
		t.Errorf("nil controller collected %d families", len(fams))
	}
}
