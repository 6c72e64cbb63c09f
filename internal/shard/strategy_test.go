package shard

import (
	"encoding/binary"
	"strings"
	"testing"

	"nodesampling/internal/core"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
)

// strategyConfig builds a pool config for a registered strategy by name.
func strategyConfig(t testing.TB, name string, shards, c int, seed uint64) Config {
	t.Helper()
	factory, err := core.NewFactory(name, core.StrategyParams{K: 16, S: 4})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Shards:   shards,
		Buffer:   16,
		Block:    true,
		Seed:     seed,
		Capacity: c,
		Sampler:  factory,
	}
}

// feedUniform pushes rounds of a uniform stream over pop into p.
func feedUniform(t testing.TB, p *Pool, pop []uint64, rounds int, seed uint64) {
	t.Helper()
	src := rng.New(seed)
	batch := make([]uint64, 128)
	for round := 0; round < rounds; round++ {
		for i := range batch {
			batch[i] = pop[src.Intn(len(pop))]
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

// ensembleChi2 runs R independently seeded pools through build+feed, draws
// ONE sample from each, and returns the chi-square statistic of the sample
// histogram against uniform over pop. One sample per pool keeps the draws
// iid across the ensemble: any fixed pool's end-state may legitimately be
// non-uniform (basalt's slot residents are a deterministic function of its
// seeds), but over random seeds the marginal of a single sample is uniform
// for every correct strategy — the same exchangeability argument as the
// salted shard partition.
func ensembleChi2(t *testing.T, pop []uint64, runs int, build func(r int) *Pool) float64 {
	t.Helper()
	byID := metrics.NewHistogram()
	for r := 0; r < runs; r++ {
		p := build(r)
		id, ok := p.Sample()
		if !ok {
			_ = p.Close()
			t.Fatalf("run %d: sample not ok on a warm pool", r)
		}
		byID.Add(id)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	chi, err := byID.ChiSquareUniform(len(pop))
	if err != nil {
		t.Fatal(err)
	}
	return chi
}

// TestStrategyEnsembleUniformity checks every registered strategy emits
// uniform samples at the pool level. Population 16 with df = 15: the 99.99th
// percentile of chi2(15) is ~44.3, so 60 only trips on real bias.
func TestStrategyEnsembleUniformity(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble test")
	}
	pop := make([]uint64, 16)
	for i := range pop {
		pop[i] = uint64(i + 1)
	}
	for _, name := range core.Strategies() {
		name := name
		t.Run(name, func(t *testing.T) {
			chi := ensembleChi2(t, pop, 256, func(r int) *Pool {
				p, err := New(strategyConfig(t, name, 2, len(pop), 0x5eed+uint64(r)))
				if err != nil {
					t.Fatal(err)
				}
				feedUniform(t, p, pop, 8, 0xfeed+uint64(r))
				return p
			})
			if chi > 60 {
				t.Fatalf("strategy %s ensemble not uniform: chi2 = %v", name, chi)
			}
		})
	}
}

// TestStrategyEnsembleUniformityAcrossResize repeats the ensemble check
// with a live 2→4 re-partition mid-ingest, for every strategy: the resize
// hand-off (CloneEmpty + MergeState) must not bias the samples.
func TestStrategyEnsembleUniformityAcrossResize(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble test")
	}
	pop := make([]uint64, 16)
	for i := range pop {
		pop[i] = uint64(i + 1)
	}
	for _, name := range core.Strategies() {
		name := name
		t.Run(name, func(t *testing.T) {
			chi := ensembleChi2(t, pop, 192, func(r int) *Pool {
				p, err := New(strategyConfig(t, name, 2, len(pop), 0xabc+uint64(r)))
				if err != nil {
					t.Fatal(err)
				}
				feedUniform(t, p, pop, 4, 0xdef+uint64(r))
				if err := p.Resize(4); err != nil {
					t.Fatal(err)
				}
				feedUniform(t, p, pop, 4, 0x123+uint64(r))
				return p
			})
			if chi > 60 {
				t.Fatalf("strategy %s ensemble not uniform across resize: chi2 = %v", name, chi)
			}
		})
	}
}

// TestStrategyEnsembleUniformityPostRestore repeats the ensemble check
// through a snapshot/restore cycle, with the restore config naming no
// strategy at all — the blob governs.
func TestStrategyEnsembleUniformityPostRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble test")
	}
	pop := make([]uint64, 16)
	for i := range pop {
		pop[i] = uint64(i + 1)
	}
	for _, name := range core.Strategies() {
		name := name
		t.Run(name, func(t *testing.T) {
			chi := ensembleChi2(t, pop, 192, func(r int) *Pool {
				p, err := New(strategyConfig(t, name, 2, len(pop), 0x777+uint64(r)))
				if err != nil {
					t.Fatal(err)
				}
				feedUniform(t, p, pop, 8, 0x888+uint64(r))
				blob, err := p.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				restored, err := Restore(Config{Buffer: 16, Block: true, Seed: 0x999 + uint64(r)}, blob)
				if err != nil {
					t.Fatal(err)
				}
				return restored
			})
			if chi > 60 {
				t.Fatalf("strategy %s ensemble not uniform after restore: chi2 = %v", name, chi)
			}
		})
	}
}

// TestStrategySnapshotMismatchNamesBoth checks the satellite contract: a
// snapshot restored under a different configured strategy refuses with an
// error naming BOTH strategies, in either direction.
func TestStrategySnapshotMismatchNamesBoth(t *testing.T) {
	pop := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	cases := []struct{ wrote, configured string }{
		{"basalt", "knowledge-free"},
		{"knowledge-free", "basalt"},
	}
	for _, tc := range cases {
		p, err := New(strategyConfig(t, tc.wrote, 2, 8, 42))
		if err != nil {
			t.Fatal(err)
		}
		feedUniform(t, p, pop, 4, 43)
		blob, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = Restore(strategyConfig(t, tc.configured, 2, 8, 42), blob)
		if err == nil {
			t.Fatalf("%s snapshot restored under %s config", tc.wrote, tc.configured)
		}
		if !strings.Contains(err.Error(), tc.wrote) || !strings.Contains(err.Error(), tc.configured) {
			t.Fatalf("mismatch error %q does not name both %q and %q", err, tc.wrote, tc.configured)
		}
	}
}

// v1Blob rewrites a version-2 snapshot as the pre-strategy version-1
// layout: same magic and body, version 1, no strategy field. This is
// exactly what a pre-refactor daemon wrote, because the knowledge-free
// MarshalState emits raw sketch bytes.
func v1Blob(t testing.TB, v2 []byte) []byte {
	t.Helper()
	if len(v2) < 12 || string(v2[:4]) != snapshotMagic {
		t.Fatal("not a v2 snapshot blob")
	}
	if v := binary.BigEndian.Uint32(v2[4:8]); v != 2 {
		t.Fatalf("snapshot version %d, want 2", v)
	}
	strategyLen := int(binary.BigEndian.Uint32(v2[8:12]))
	blob := make([]byte, 0, len(v2))
	blob = append(blob, snapshotMagic...)
	blob = binary.BigEndian.AppendUint32(blob, 1)
	blob = append(blob, v2[12+strategyLen:]...)
	return blob
}

// TestStrategyV1SnapshotCompat is the acceptance check for old blobs: a
// hand-built version-1 snapshot (no strategy tag) restores bit-identical
// estimates under the default strategy, and refuses under any other with
// an error naming both strategies.
func TestStrategyV1SnapshotCompat(t *testing.T) {
	const hot = uint64(7)
	pop := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	p, err := New(strategyConfig(t, core.DefaultStrategy, 2, 12, 77))
	if err != nil {
		t.Fatal(err)
	}
	feedUniform(t, p, pop, 16, 78)
	// A hot id so the sketch state is distinctive.
	hotBatch := make([]uint64, 64)
	for i := range hotBatch {
		hotBatch[i] = hot
	}
	if err := p.PushBatch(hotBatch); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]uint64, len(pop))
	for _, id := range pop {
		want[id] = p.Estimate(id)
	}
	v2, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	v1 := v1Blob(t, v2)

	// Under the default strategy (or no strategy at all) the v1 blob
	// restores with bit-identical estimates.
	restored, err := Restore(strategyConfig(t, core.DefaultStrategy, 2, 12, 77), v1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range pop {
		if got := restored.Estimate(id); got != want[id] {
			t.Fatalf("v1-restored estimate of %d is %d, want %d", id, got, want[id])
		}
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}

	// Under basalt the pre-v2 blob refuses, naming the implied default and
	// the configured strategy.
	_, err = Restore(strategyConfig(t, "basalt", 2, 12, 77), v1)
	if err == nil {
		t.Fatal("v1 blob restored under basalt config")
	}
	if !strings.Contains(err.Error(), core.DefaultStrategy) || !strings.Contains(err.Error(), "basalt") {
		t.Fatalf("v1 mismatch error %q does not name both strategies", err)
	}
}
