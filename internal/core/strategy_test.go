package core

import (
	"strings"
	"testing"

	"nodesampling/internal/rng"
)

func TestStrategyRegistryNames(t *testing.T) {
	names := Strategies()
	want := map[string]bool{DefaultStrategy: false, "basalt": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("Strategies() = %v, missing %q", names, n)
		}
	}
	if _, err := NewFactory("no-such-strategy", StrategyParams{}); err == nil {
		t.Fatal("unknown strategy name must fail")
	} else if !strings.Contains(err.Error(), "no-such-strategy") {
		t.Fatalf("error should name the strategy: %v", err)
	}
	f, err := NewFactory("", StrategyParams{K: 8, S: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != DefaultStrategy {
		t.Fatalf("empty name should resolve to %q, got %q", DefaultStrategy, f.Name)
	}
}

// Every registered strategy must satisfy the full PoolSampler contract:
// build, process, sample, marshal, restore with identical estimates, clone,
// and merge.
func TestStrategyContractAllBackends(t *testing.T) {
	for _, name := range Strategies() {
		t.Run(name, func(t *testing.T) {
			f, err := NewFactory(name, StrategyParams{K: 32, S: 4})
			if err != nil {
				t.Fatal(err)
			}
			s, err := f.New(16, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if s.StrategyName() != name {
				t.Fatalf("StrategyName() = %q, want %q", s.StrategyName(), name)
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
}

func TestStrategyCrossMergeRefused(t *testing.T) {
	kf, err := NewKnowledgeFree(8, 16, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := NewBasalt(8, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := kf.MergeState(ba); err == nil {
		t.Fatal("merging basalt state into knowledge-free must fail")
	}
	if err := ba.MergeState(kf); err == nil {
		t.Fatal("merging knowledge-free state into basalt must fail")
	}
	if kf.SharesFamily(ba) || ba.SharesFamily(kf) {
		t.Fatal("cross-strategy samplers must not report a shared family")
	}
}
