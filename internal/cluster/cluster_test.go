package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"nodesampling/internal/netgossip"
	"nodesampling/internal/shard"
)

func testCluster(t *testing.T, members []string, self string, fallback func([]uint64)) *Cluster {
	t.Helper()
	if fallback == nil {
		fallback = func([]uint64) {}
	}
	c, err := New(Config{Members: members, Self: self, Seed: 7, Fallback: fallback})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestTableDeterministicAcrossOrderings pins the cluster routing contract:
// every member must derive the identical slot table no matter what order
// its -members flag listed the addresses in, because the list is sorted
// before keys are derived. A single disagreeing slot would make two members
// claim (or disclaim) the same ids forever.
func TestTableDeterministicAcrossOrderings(t *testing.T) {
	members := []string{"10.0.0.1:7947", "10.0.0.2:7947", "10.0.0.3:7947"}
	shuffled := []string{"10.0.0.3:7947", "10.0.0.1:7947", "10.0.0.2:7947"}
	a := testCluster(t, members, members[0], nil)
	b := testCluster(t, shuffled, members[2], nil)
	if a.SelfIndex() != 0 || b.SelfIndex() != 2 {
		t.Fatalf("self indices %d, %d — sorting broke identity", a.SelfIndex(), b.SelfIndex())
	}
	for slot := 0; slot < shard.PlacementSlots; slot++ {
		if a.SlotOwner(slot) != b.SlotOwner(slot) {
			t.Fatalf("slot %d owned by %d on a, %d on b", slot, a.SlotOwner(slot), b.SlotOwner(slot))
		}
	}
	for id := uint64(1); id <= 4096; id++ {
		if a.OwnerOf(id) != b.OwnerOf(id) {
			t.Fatalf("id %d routed to %d on a, %d on b", id, a.OwnerOf(id), b.OwnerOf(id))
		}
		if a.SlotOwner(a.SlotOf(id)) != a.OwnerOf(id) {
			t.Fatalf("id %d: SlotOf/SlotOwner disagree with OwnerOf", id)
		}
	}
	// The salt depends on membership: a different member set must route
	// differently (otherwise an id's placement would leak across clusters
	// sharing a seed).
	c := testCluster(t, []string{"10.9.9.1:7947", "10.9.9.2:7947", "10.9.9.3:7947"}, "10.9.9.1:7947", nil)
	same := 0
	for id := uint64(1); id <= 4096; id++ {
		if a.SlotOf(id) == c.SlotOf(id) {
			same++
		}
	}
	if same == 4096 {
		t.Fatal("different member sets hash ids to identical slots — salt is not membership-bound")
	}
}

func TestNewRejects(t *testing.T) {
	fb := func([]uint64) {}
	cases := []Config{
		{Members: nil, Self: "a", Fallback: fb},
		{Members: []string{"a:1", "b:1"}, Self: "c:1", Fallback: fb},        // self missing
		{Members: []string{"a:1", "a:1", "b:1"}, Self: "a:1", Fallback: fb}, // duplicate
		{Members: []string{"a:1", "b:1"}, Self: "a:1"},                      // no fallback
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) succeeded, want error", i, cfg)
		}
	}
}

// TestApplyPlacement pins the override discipline: newer epochs install a
// whole-range ownership flip, older or equal epochs are rejected (a member
// that heard a broadcast late must not roll the table back), and the base
// table is never mutated in place.
func TestApplyPlacement(t *testing.T) {
	members := []string{"m0:1", "m1:1", "m2:1"}
	c := testCluster(t, members, "m0:1", nil)
	if c.Epoch() != 0 {
		t.Fatalf("fresh cluster epoch %d, want 0", c.Epoch())
	}
	before := make([]int, 128)
	for slot := range before {
		before[slot] = c.SlotOwner(slot)
	}
	if !c.ApplyPlacement(1, 0, 63, 2) {
		t.Fatal("epoch-1 override rejected")
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch %d after override, want 1", c.Epoch())
	}
	for slot := 0; slot < 64; slot++ {
		if c.SlotOwner(slot) != 2 {
			t.Fatalf("slot %d owner %d after override, want 2", slot, c.SlotOwner(slot))
		}
	}
	for slot := 64; slot < 128; slot++ {
		if c.SlotOwner(slot) != before[slot] {
			t.Fatalf("override leaked into slot %d", slot)
		}
	}
	if c.OwnsRange(0, 63) {
		t.Fatal("self (member 0) claims a range owned by member 2")
	}
	// Stale and equal epochs must be refused.
	if c.ApplyPlacement(1, 0, 63, 0) {
		t.Fatal("equal-epoch override accepted")
	}
	if c.ApplyPlacement(0, 0, 63, 0) {
		t.Fatal("older-epoch override accepted")
	}
	// Out-of-range slots and owners refuse without touching the table.
	if c.ApplyPlacement(2, -1, 5, 0) || c.ApplyPlacement(2, 0, shard.PlacementSlots, 0) ||
		c.ApplyPlacement(2, 5, 4, 0) || c.ApplyPlacement(2, 0, 5, 3) {
		t.Fatal("invalid override accepted")
	}
	if c.Epoch() != 1 {
		t.Fatalf("rejected overrides moved the epoch to %d", c.Epoch())
	}
	counts := c.SlotCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != shard.PlacementSlots {
		t.Fatalf("slot counts sum to %d, want %d", total, shard.PlacementSlots)
	}
}

// TestPartitionUnion checks the partition invariant ingest routing rests
// on: every input id lands in exactly one bucket, the bucket agrees with
// OwnerOf, and self's bucket is the local slice.
func TestPartitionUnion(t *testing.T) {
	members := []string{"m0:1", "m1:1", "m2:1"}
	c := testCluster(t, members, "m1:1", nil)
	ids := make([]uint64, 2000)
	for i := range ids {
		ids[i] = uint64(i * 2654435761)
	}
	local, remote := c.Partition(ids)
	seen := 0
	for _, id := range local {
		if c.OwnerOf(id) != c.SelfIndex() {
			t.Fatalf("local id %d owned by member %d", id, c.OwnerOf(id))
		}
		seen++
	}
	for member, batch := range remote {
		if member == c.SelfIndex() && len(batch) > 0 {
			t.Fatal("self bucket in the remote partition")
		}
		for _, id := range batch {
			if c.OwnerOf(id) != member {
				t.Fatalf("id %d in member %d's bucket, owned by %d", id, member, c.OwnerOf(id))
			}
			seen++
		}
	}
	if seen != len(ids) {
		t.Fatalf("partition covered %d of %d ids", seen, len(ids))
	}
}

// TestPartitionGroups pins what the one-allocation partition must keep of
// the append-from-nil one it replaced: every group holds its owner's ids in
// arrival order, and every group is capped at its own length, so a caller
// (or Forward, which keeps the slice) appending to one group cannot write
// into the next.
func TestPartitionGroups(t *testing.T) {
	c := testCluster(t, []string{"m0:1", "m1:1", "m2:1"}, "m1:1", nil)
	ids := make([]uint64, 1024)
	for i := range ids {
		ids[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	want := make([][]uint64, 3)
	for _, id := range ids {
		want[c.OwnerOf(id)] = append(want[c.OwnerOf(id)], id)
	}
	local, remote := c.Partition(ids)
	got := append([][]uint64(nil), remote...)
	got[c.SelfIndex()] = local
	for o := range want {
		if !reflect.DeepEqual(got[o], want[o]) {
			t.Fatalf("member %d: group differs from the ids it owns in arrival order", o)
		}
		if cap(got[o]) != len(got[o]) {
			t.Fatalf("member %d: group of %d ids has capacity %d", o, len(got[o]), cap(got[o]))
		}
	}
	if l, r := c.Partition(nil); len(l) != 0 || len(r) != 3 {
		t.Fatalf("empty batch: local %d ids, %d remote groups", len(l), len(r))
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Partition(ids) }); allocs > 2 {
		t.Fatalf("%v allocations per batch, want the id buffer and the group table", allocs)
	}
}

func BenchmarkPartition(b *testing.B) {
	c, err := New(Config{Members: []string{"m0:1", "m1:1", "m2:1"}, Self: "m0:1", Seed: 7, Fallback: func([]uint64) {}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ids := make([]uint64, 1024)
	for i := range ids {
		ids[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ids) {
		c.Partition(ids)
	}
}

// TestForwardToSelfFallsBack: handing Forward our own index is a caller
// bug, but the ids must still reach the fallback sink rather than vanish.
func TestForwardToSelfFallsBack(t *testing.T) {
	var got []uint64
	c := testCluster(t, []string{"m0:1", "m1:1"}, "m0:1", func(ids []uint64) {
		got = append(got, ids...)
	})
	c.Forward(c.SelfIndex(), []uint64{7, 8, 9})
	if len(got) != 3 {
		t.Fatalf("fallback received %d ids, want 3", len(got))
	}
}

// TestStatsShape: the snapshot covers every member, marks self, and the
// slot counts it reports match the live table.
func TestStatsShape(t *testing.T) {
	members := []string{"m0:1", "m1:1", "m2:1"}
	c := testCluster(t, members, "m2:1", nil)
	c.NoteStaleForward()
	c.NoteMigration(true)
	c.NoteMigration(false)
	st := c.Stats()
	if st.Self != "m2:1" || st.StaleForwards != 1 || st.MigrationsIn != 1 || st.MigrationsOut != 1 {
		t.Fatalf("stats header %+v", st)
	}
	if len(st.Members) != 3 {
		t.Fatalf("stats cover %d members", len(st.Members))
	}
	counts := c.SlotCounts()
	for i, m := range st.Members {
		if m.Self != (i == 2) {
			t.Fatalf("member %d self flag %v", i, m.Self)
		}
		if m.Slots != counts[i] {
			t.Fatalf("member %d slots %d, want %d", i, m.Slots, counts[i])
		}
	}
}

// TestMigrationBlobRoundTrip pins the transfer format: everything encoded
// comes back identical, including an empty Γ set (a migration of a range
// holding only sketch evidence).
func TestMigrationBlobRoundTrip(t *testing.T) {
	cases := []Migration{
		{Epoch: 3, FromSlot: 16, ToSlot: 31, Strategy: "knowledge-free",
			IDs: []uint64{1, 1 << 63, 42}, State: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Epoch: 1, FromSlot: 0, ToSlot: 0, Strategy: "basalt", IDs: nil, State: []byte{1}},
	}
	for _, m := range cases {
		blob, err := EncodeMigration(m)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		got, err := DecodeMigration(blob)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Epoch != m.Epoch || got.FromSlot != m.FromSlot || got.ToSlot != m.ToSlot ||
			got.Strategy != m.Strategy || len(got.IDs) != len(m.IDs) || !bytes.Equal(got.State, m.State) {
			t.Fatalf("round trip %+v -> %+v", m, got)
		}
		for i := range m.IDs {
			if got.IDs[i] != m.IDs[i] {
				t.Fatalf("id %d: %d != %d", i, got.IDs[i], m.IDs[i])
			}
		}
	}
}

// TestMigrationBlobDecodeIsCopied: the decoded State must not alias the
// input blob — the daemon retains it past the frame reader's buffer reuse.
func TestMigrationBlobDecodeIsCopied(t *testing.T) {
	blob, err := EncodeMigration(Migration{Epoch: 1, Strategy: "s", State: []byte{9, 9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMigration(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] = 0xff
	}
	if !bytes.Equal(got.State, []byte{9, 9, 9}) {
		t.Fatal("decoded State aliases the input blob")
	}
}

// TestMigrationBlobRejects drives the decoder with hostile bytes: every
// truncation of a valid blob, plus targeted corruptions, must fail cleanly.
func TestMigrationBlobRejects(t *testing.T) {
	m := Migration{Epoch: 2, FromSlot: 4, ToSlot: 8, Strategy: "knowledge-free",
		IDs: []uint64{5, 6}, State: []byte{1, 2, 3, 4}}
	blob, err := EncodeMigration(m)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeMigration(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", cut, len(blob))
		}
	}
	// Trailing bytes are a framing error, not padding.
	if _, err := DecodeMigration(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), blob...)
		mutate(b)
		return b
	}
	if _, err := DecodeMigration(corrupt(func(b []byte) { b[0] = 'X' })); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeMigration(corrupt(func(b []byte) { b[4], b[5], b[6], b[7] = 0, 0, 0, 99 })); err == nil {
		t.Fatal("bad version accepted")
	}
	// Inverted slot range (fromSlot bumped past toSlot in the wire bytes).
	inv, err := EncodeMigration(Migration{Epoch: 1, FromSlot: 8, ToSlot: 8, Strategy: "s", State: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	inv[19] = 9 // fromSlot's low byte: 8 -> 9, now fromSlot > toSlot
	if _, err := DecodeMigration(inv); err == nil {
		t.Fatal("inverted slot range accepted")
	}
	// An ids count that promises more than the blob holds must refuse
	// before allocating.
	huge := corrupt(func(b []byte) {
		off := 4 + 4 + 8 + 4 + 4 + 4 + len(m.Strategy) // start of idsLen
		b[off], b[off+1], b[off+2], b[off+3] = 0xff, 0xff, 0xff, 0xff
	})
	if _, err := DecodeMigration(huge); err == nil {
		t.Fatal("absurd ids count accepted")
	}
}

// FuzzDecodeMigration hammers the migration-blob decoder with hostile
// bytes: it must fail cleanly or decode a migration whose re-encoding is
// exactly the bytes it was given (the format has one encoding per value).
func FuzzDecodeMigration(f *testing.F) {
	for _, m := range []Migration{
		{Epoch: 3, FromSlot: 16, ToSlot: 31, Strategy: "knowledge-free",
			IDs: []uint64{1, 1 << 63, 42}, State: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Epoch: 1, Strategy: "basalt", State: []byte{1}},
		{Epoch: 1 << 40, FromSlot: 4095, ToSlot: 4095, Strategy: "s", IDs: make([]uint64, 64)},
	} {
		blob, err := EncodeMigration(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
		f.Add(append(append([]byte(nil), blob...), 0xff))
	}
	f.Add([]byte{})
	f.Add(blobMagic[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMigration(data)
		if err != nil {
			return
		}
		if len(m.IDs) > len(data)/8 {
			t.Fatalf("decoded %d ids from %d bytes", len(m.IDs), len(data))
		}
		re, err := EncodeMigration(m)
		if err != nil {
			t.Fatalf("re-encoding decoded migration %+v failed: %v", m, err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode mismatch for %x: re-encoded %x", data, re)
		}
	})
}

// TestMigrationBlobEncodeRejects: oversize and malformed migrations refuse
// on the sending side.
func TestMigrationBlobEncodeRejects(t *testing.T) {
	if _, err := EncodeMigration(Migration{Epoch: 1, FromSlot: 9, ToSlot: 8, Strategy: "s", State: []byte{1}}); err == nil {
		t.Fatal("inverted slot range encoded")
	}
	long := make([]byte, maxBlobStrategy+1)
	if _, err := EncodeMigration(Migration{Epoch: 1, Strategy: string(long), State: []byte{1}}); err == nil {
		t.Fatal("oversized strategy name encoded")
	}
	if _, err := EncodeMigration(Migration{Epoch: 1, Strategy: "s",
		State: make([]byte, netgossip.MaxMigratePayload)}); err == nil {
		t.Fatal("blob above the wire bound encoded")
	}
}
