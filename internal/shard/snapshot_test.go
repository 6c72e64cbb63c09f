package shard

import (
	"bytes"
	"testing"

	"nodesampling/internal/cursor"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
)

// restoreFrom rebuilds a pool from p's snapshot with the given config.
func restoreFrom(t *testing.T, p *Pool, cfg Config) *Pool {
	t.Helper()
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Restore(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })
	return q
}

// TestSnapshotRestoreRoundTrip is the round-trip property test: after a
// quiescent snapshot, the restored pool answers with identical Γ, identical
// frequency estimates for every id, the same shard map (epoch, count and
// routing) and the same aggregate counters — the daemon-restart guarantee
// at pool level, across several random workloads.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		seed := uint64(trial)*997 + 13
		src := rng.New(seed)
		shards := 1 + int(src.Uint64n(7))
		population := 50 + int(src.Uint64n(400))
		cfg := Config{
			Shards: shards, Buffer: 8, Block: true, Seed: seed,
			Capacity: 30, Sampler: kfSampler(64, 4),
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]uint64, 256)
		rounds := 4 + int(src.Uint64n(20))
		for r := 0; r < rounds; r++ {
			for i := range batch {
				batch[i] = src.Uint64n(uint64(population)) + 1
			}
			if err := p.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		// A resize before the snapshot makes the round trip cover a
		// non-zero epoch and retired counters too.
		if trial%2 == 1 {
			if err := p.Resize(shards + 2); err != nil {
				t.Fatal(err)
			}
		}
		q := restoreFrom(t, p, Config{
			Buffer: 8, Block: true, Seed: seed + 1,
			Sampler: kfSampler(64, 4),
		})
		if q.NumShards() != p.NumShards() || q.Epoch() != p.Epoch() {
			t.Fatalf("trial %d: restored shape %d/%d, want %d/%d",
				trial, q.NumShards(), q.Epoch(), p.NumShards(), p.Epoch())
		}
		if !sameIDSet(p.Memory(), q.Memory()) {
			t.Fatalf("trial %d: restored Γ differs", trial)
		}
		for id := uint64(0); id <= uint64(population)+10; id++ {
			if pe, qe := p.Estimate(id), q.Estimate(id); pe != qe {
				t.Fatalf("trial %d: id %d estimate %d restored as %d", trial, id, pe, qe)
			}
			if po, qo := p.ShardOf(id), q.ShardOf(id); po != qo {
				t.Fatalf("trial %d: id %d routed to %d, restored pool routes to %d", trial, id, po, qo)
			}
		}
		ps, qs := p.Stats(), q.Stats()
		if ps.Processed != qs.Processed || ps.Dropped != qs.Dropped {
			t.Fatalf("trial %d: counters (%d,%d) restored as (%d,%d)",
				trial, ps.Processed, ps.Dropped, qs.Processed, qs.Dropped)
		}
		for i := range ps.Shards {
			if ps.Shards[i].MemorySize != qs.Shards[i].MemorySize || ps.Shards[i].Halvings != qs.Shards[i].Halvings {
				t.Fatalf("trial %d shard %d: %+v restored as %+v", trial, i, ps.Shards[i], qs.Shards[i])
			}
		}
		// The restored pool is live: it ingests, samples and resizes.
		if err := q.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := q.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, ok := q.Sample(); !ok {
			t.Fatalf("trial %d: restored pool cannot sample", trial)
		}
		if err := q.Resize(q.NumShards() + 1); err != nil {
			t.Fatalf("trial %d: resize after restore: %v", trial, err)
		}
		_ = p.Close()
	}
}

// TestSnapshotRestoreWithDecay checks the decay clock survives: halvings
// and the global epoch resume where the snapshot left them.
func TestSnapshotRestoreWithDecay(t *testing.T) {
	cfg := Config{
		Shards: 4, Buffer: 8, Block: true, Seed: 21,
		Capacity: 10, Sampler: kfSampler(16, 4), DecayEvery: 500,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	src := rng.New(22)
	batch := make([]uint64, 250)
	for r := 0; r < 8; r++ { // 2000 ids = 4 epochs
		for i := range batch {
			batch[i] = src.Uint64n(1 << 40)
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	q := restoreFrom(t, p, Config{
		Buffer: 8, Block: true, Seed: 23,
		Sampler: kfSampler(16, 4), DecayEvery: 500,
	})
	st := q.Stats()
	for i, s := range st.Shards {
		if s.Halvings != 4 {
			t.Fatalf("restored shard %d at %d halvings, want 4", i, s.Halvings)
		}
	}
	// 500 more ids must tick exactly one more epoch (decayTotal restored,
	// not reset).
	for i := range batch {
		batch[i] = src.Uint64n(1 << 40)
	}
	if err := q.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := q.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, s := range q.Stats().Shards {
		if s.Halvings != 5 {
			t.Fatalf("shard %d at %d halvings after 500 more ids, want 5", i, s.Halvings)
		}
	}
}

// TestSnapshotRestoreUniformity: a restored pool must sample uniformly from
// its restored memories, without any new input.
func TestSnapshotRestoreUniformity(t *testing.T) {
	const popSize = 60
	p := newTestPool(t, 4, popSize, 10, 5, true, 16)
	pop := make([]uint64, popSize)
	for i := range pop {
		pop[i] = uint64(i + 1)
	}
	src := rng.New(31)
	batch := make([]uint64, 512)
	for r := 0; r < 120; r++ {
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
	q := restoreFrom(t, p, Config{Buffer: 16, Block: true, Seed: 77, Sampler: kfSampler(10, 5)})
	byID := metrics.NewHistogram()
	for i := 0; i < 120000; i++ {
		id, ok := q.Sample()
		if !ok {
			t.Fatal("restored pool cannot sample")
		}
		byID.Add(id)
	}
	// df = 59, 99.99th percentile ≈ 104.
	chi, err := byID.ChiSquareUniform(popSize)
	if err != nil {
		t.Fatal(err)
	}
	if chi > 110 {
		t.Fatalf("restored pool not uniform: chi2 = %v", chi)
	}
}

// TestRestoreRejectsBadBlobs: truncations, corruption and configuration
// mismatches must fail loudly, never construct a half-alive pool.
func TestRestoreRejectsBadBlobs(t *testing.T) {
	p := newTestPool(t, 3, 10, 16, 4, true, 8)
	if err := p.PushBatch([]uint64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buffer: 8, Block: true, Sampler: kfSampler(16, 4)}
	if _, err := Restore(cfg, nil); err == nil {
		t.Error("nil blob should fail")
	}
	if _, err := Restore(cfg, blob[:len(blob)/2]); err == nil {
		t.Error("truncated blob should fail")
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := Restore(cfg, bad); err == nil {
		t.Error("bad magic should fail")
	}
	long := append(append([]byte(nil), blob...), 0xaa)
	if _, err := Restore(cfg, long); err == nil {
		t.Error("trailing bytes should fail")
	}
	// A configured sketch shape that contradicts the snapshot is a
	// deployment error, not something to silently paper over.
	mismatch := Config{Buffer: 8, Block: true, Sampler: kfSampler(99, 2)}
	if _, err := Restore(mismatch, blob); err == nil {
		t.Error("sketch shape mismatch should fail")
	}
	// Without a sketch hook the snapshot simply governs.
	q, err := Restore(Config{Buffer: 8, Block: true}, blob)
	if err != nil {
		t.Fatalf("hookless restore: %v", err)
	}
	_ = q.Close()
}

// FuzzRestore throws hostile bytes at the snapshot decoder: it must fail
// with an error or return a pool that works — one that snapshots again, to
// a blob that restores again with the same shape. Seeds are real blobs of
// two pool shapes, whole and cut short, the pre-strategy version 1 layout,
// a blob re-tagged with the retired "basalt" strategy, and a sealed
// envelope.
func FuzzRestore(f *testing.F) {
	pop := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	var blob []byte
	for _, shape := range []struct{ shards, c int }{{2, 6}, {1, 3}} {
		p, err := New(strategyConfig(shape.shards, shape.c, 41))
		if err != nil {
			f.Fatal(err)
		}
		feedUniform(f, p, pop, 4, 42)
		blob, err = p.Snapshot()
		_ = p.Close()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
		f.Add(append(append([]byte(nil), blob...), 0))
	}
	f.Add(v1Blob(f, blob))
	f.Add(retagBlob(f, blob, "basalt"))
	sealed, err := SealSnapshot(blob, bytes.Repeat([]byte{7}, SnapshotKeyLen))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Restore sizes every shard's memory from the blob's capacity field,
		// which it bounds at 2^20 (and the shards at 256): legitimate, but an
		// input that says so would spend the run allocating gigabytes instead
		// of exploring the decoder.
		if c, n := declaredShape(data); c*n > 1<<12 {
			t.Skip()
		}
		p, err := Restore(Config{Buffer: 2}, data)
		if err != nil {
			return
		}
		again, err := p.Snapshot()
		shards, memory := p.NumShards(), p.MemoryTotal()
		_ = p.Close()
		if err != nil {
			t.Fatalf("restored pool does not snapshot: %v", err)
		}
		q, err := Restore(Config{Buffer: 2}, again)
		if err != nil {
			t.Fatalf("snapshot of a restored pool does not restore: %v", err)
		}
		defer q.Close()
		if q.NumShards() != shards || q.MemoryTotal() != memory {
			t.Fatalf("second restore has %d shards and |Γ| %d, the first had %d and %d",
				q.NumShards(), q.MemoryTotal(), shards, memory)
		}
	})
}

// declaredShape reads the memory capacity and shard count a snapshot blob
// claims (0, 0 when it is too short to say).
func declaredShape(data []byte) (capacity, shards int) {
	r := cursor.New("test: snapshot", data)
	if string(r.Bytes(4)) != snapshotMagic {
		return 0, 0
	}
	if r.U32() == 2 {
		_ = r.Bytes(int(r.U32()))
	}
	_ = r.Bytes(5 * 8)
	capacity, shards = int(r.U32()), int(r.U32())
	if r.Err() != nil {
		return 0, 0
	}
	return capacity, shards
}
