package shard

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"nodesampling/internal/core"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
)

// strategyConfig builds a pool config with a 16×4 knowledge-free factory.
func strategyConfig(shards, c int, seed uint64) Config {
	return Config{
		Shards:   shards,
		Buffer:   16,
		Block:    true,
		Seed:     seed,
		Capacity: c,
		Sampler:  kfSampler(16, 4),
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
// non-uniform, but over random seeds the marginal of a single sample is
// uniform — the same exchangeability argument as the salted shard
// partition.
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

// TestStrategyEnsembleUniformity checks the knowledge-free sampler emits
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
	t.Run(core.DefaultStrategy, func(t *testing.T) {
		chi := ensembleChi2(t, pop, 256, func(r int) *Pool {
			p, err := New(strategyConfig(2, len(pop), 0x5eed+uint64(r)))
			if err != nil {
				t.Fatal(err)
			}
			feedUniform(t, p, pop, 8, 0xfeed+uint64(r))
			return p
		})
		if chi > 60 {
			t.Fatalf("ensemble not uniform: chi2 = %v", chi)
		}
	})
}

// TestStrategyEnsembleUniformityAcrossResize repeats the ensemble check
// with a live 2→4 re-partition mid-ingest: the resize hand-off (CloneEmpty
// + MergeState) must not bias the samples.
func TestStrategyEnsembleUniformityAcrossResize(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble test")
	}
	pop := make([]uint64, 16)
	for i := range pop {
		pop[i] = uint64(i + 1)
	}
	t.Run(core.DefaultStrategy, func(t *testing.T) {
		chi := ensembleChi2(t, pop, 192, func(r int) *Pool {
			p, err := New(strategyConfig(2, len(pop), 0xabc+uint64(r)))
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
			t.Fatalf("ensemble not uniform across resize: chi2 = %v", chi)
		}
	})
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
	t.Run(core.DefaultStrategy, func(t *testing.T) {
		chi := ensembleChi2(t, pop, 192, func(r int) *Pool {
			p, err := New(strategyConfig(2, len(pop), 0x777+uint64(r)))
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
			t.Fatalf("ensemble not uniform after restore: chi2 = %v", chi)
		}
	})
}

// TestStrategySnapshotMismatchNamesBoth checks a blob tagged with a strategy
// the pool does not run is refused by name: a knowledge-free snapshot
// re-tagged "basalt" (the retired strategy) fails to restore under a
// configured knowledge-free factory, naming both strategies, and with no
// factory at all, naming basalt.
func TestStrategySnapshotMismatchNamesBoth(t *testing.T) {
	p, err := New(strategyConfig(2, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	feedUniform(t, p, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 4, 43)
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	basalt := retagBlob(t, blob, "basalt")
	_, err = Restore(strategyConfig(2, 8, 42), basalt)
	if err == nil {
		t.Fatal("basalt snapshot restored under a knowledge-free config")
	}
	if !strings.Contains(err.Error(), "basalt") || !strings.Contains(err.Error(), core.DefaultStrategy) {
		t.Fatalf("mismatch error %q does not name both basalt and %q", err, core.DefaultStrategy)
	}
	if _, err = Restore(Config{Buffer: 16, Block: true}, basalt); err == nil {
		t.Fatal("basalt snapshot restored with no configured factory")
	} else if !strings.Contains(err.Error(), "basalt") {
		t.Fatalf("factoryless restore error %q does not name basalt", err)
	}
}

// retagBlob rewrites a version-2 snapshot's strategy tag to name.
func retagBlob(t testing.TB, v2 []byte, name string) []byte {
	t.Helper()
	body := v1Blob(t, v2)[8:]
	blob := append([]byte(snapshotMagic), 0, 0, 0, 2)
	blob = binary.BigEndian.AppendUint32(blob, uint32(len(name)))
	blob = append(blob, name...)
	return append(blob, body...)
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
// estimates under the default strategy, and snapshots again to exactly the
// version-2 blob it was derived from.
func TestStrategyV1SnapshotCompat(t *testing.T) {
	const hot = uint64(7)
	pop := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	p, err := New(strategyConfig(2, 12, 77))
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
	restored, err := Restore(strategyConfig(2, 12, 77), v1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range pop {
		if got := restored.Estimate(id); got != want[id] {
			t.Fatalf("v1-restored estimate of %d is %d, want %d", id, got, want[id])
		}
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, v2) {
		t.Fatal("v1-restored pool does not snapshot to the original v2 bytes")
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}
