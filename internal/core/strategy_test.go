package core

import (
	"strings"
	"testing"

	"nodesampling/internal/rng"
)

func TestStrategyRegistryNames(t *testing.T) {
	if names := Strategies(); len(names) != 1 || names[0] != DefaultStrategy {
		t.Fatalf("Strategies() = %v, want [%s]", names, DefaultStrategy)
	}
	if _, err := NewFactory("no-such-strategy", StrategyParams{}); err == nil {
		t.Fatal("unknown strategy name must fail")
	} else if !strings.Contains(err.Error(), "no-such-strategy") {
		t.Fatalf("error should name the strategy: %v", err)
	}
	if _, err := NewFactory("basalt", StrategyParams{}); err == nil {
		t.Fatal("the retired basalt strategy must fail")
	} else if !strings.Contains(err.Error(), "basalt") || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("error should name basalt as retired: %v", err)
	}
	for _, name := range []string{"", DefaultStrategy} {
		f, err := NewFactory(name, StrategyParams{K: 8, S: 2})
		if err != nil {
			t.Fatal(err)
		}
		if f.Name != DefaultStrategy {
			t.Fatalf("%q should resolve to %q, got %q", name, DefaultStrategy, f.Name)
		}
	}
}

// The knowledge-free sampler must satisfy the full PoolSampler contract
// through its factory: build, process, sample, marshal, restore with
// identical estimates, clone, and merge.
func TestStrategyContractAllBackends(t *testing.T) {
	t.Run(DefaultStrategy, func(t *testing.T) {
		f, err := NewFactory(DefaultStrategy, StrategyParams{K: 32, S: 4})
		if err != nil {
			t.Fatal(err)
		}
		s, err := f.New(16, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if s.StrategyName() != DefaultStrategy {
			t.Fatalf("StrategyName() = %q, want %q", s.StrategyName(), DefaultStrategy)
		}
		if s.MemoryCap() != 16 {
			t.Fatalf("MemoryCap() = %d, want 16", s.MemoryCap())
		}
		ids := make([]uint64, 0, 512)
		r := rng.New(99)
		for i := 0; i < 512; i++ {
			ids = append(ids, 1+r.Uint64n(64))
		}
		s.ProcessBatch(ids)
		if s.MemorySize() == 0 {
			t.Fatal("memory empty after 512 ids")
		}
		if _, ok := s.Sample(); !ok {
			t.Fatal("Sample() not ready after ingest")
		}
		if got := s.SampleN(8, nil); len(got) != 8 {
			t.Fatalf("SampleN(8) returned %d samples", len(got))
		}
		state, err := s.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		back, err := f.Restore(16, state, rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		if err := back.RestoreMemory(s.Memory()); err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 64; id++ {
			if got, want := back.Estimate(id), s.Estimate(id); got != want {
				t.Fatalf("restored Estimate(%d) = %d, want %d", id, got, want)
			}
		}
		if !s.SharesFamily(back) {
			t.Fatal("restored sampler must share the original's family")
		}
		clone, err := s.CloneEmpty(rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if clone.MemorySize() != 0 {
			t.Fatalf("CloneEmpty memory size = %d, want 0", clone.MemorySize())
		}
		if !s.SharesFamily(clone) {
			t.Fatal("clone must share the original's family")
		}
		if err := clone.MergeState(s); err != nil {
			t.Fatalf("MergeState into clone: %v", err)
		}
		s.Decay() // the decay hook must at least not explode
	})
}

// Samplers from independently seeded factories hash with different
// families: merging their counters would be garbage, so it is refused.
func TestStrategyCrossMergeRefused(t *testing.T) {
	a, err := NewKnowledgeFree(8, 16, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewKnowledgeFree(8, 16, 2, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergeState(b); err == nil {
		t.Fatal("merging state across hash families must fail")
	}
	if a.SharesFamily(b) || b.SharesFamily(a) {
		t.Fatal("independently seeded samplers must not report a shared family")
	}
}
