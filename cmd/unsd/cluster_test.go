package main

// End-to-end tests for the clustered sampling plane: a real 3-daemon fleet
// over TCP — rendezvous routing of ingest to slot owners, the Γ-weighted
// cluster-wide sample rounds (chi-square-checked under disproportionate
// member memories), live slot-range migration through POST /migrate, client
// failover across members, rate-capped subscriptions and decimation-phase
// resume, all through the same wire surfaces production uses.

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"nodesampling"
	"nodesampling/client"
	"nodesampling/internal/cluster"
	"nodesampling/internal/metrics"
	"nodesampling/internal/netgossip"
	"nodesampling/internal/shard"
	"nodesampling/internal/subhub"
)

// testClusterDaemons boots an n-member fleet on pre-bound loopback
// listeners (the member list must be known before the daemons exist) and
// blocks until every member's persistent connections to its peers are up —
// pushing before that would exercise the fallback path, not routing.
func testClusterDaemons(t *testing.T, n int, tweak func(*options)) ([]*daemon, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ds := make([]*daemon, n)
	for i := range ds {
		o := defaultOptions()
		o.clusterMembers = addrs
		o.streamAddr = addrs[i]
		if tweak != nil {
			tweak(&o)
		}
		d := testDaemon(t, o)
		d.serveStream(lns[i])
		ds[i] = d
	}
	waitFor(t, "the cluster mesh to connect", func() bool {
		for _, d := range ds {
			for _, m := range d.cluster.Stats().Members {
				if !m.Self && !m.Connected {
					return false
				}
			}
		}
		return true
	})
	// The cluster sorts the member list lexicographically, so a daemon's
	// cluster-wide index need not match its boot order. Return both slices
	// in cluster-index order so tests can equate ds[i] with owner index i.
	ordered := make([]*daemon, n)
	orderedAddrs := make([]string, n)
	for i, d := range ds {
		idx := d.cluster.SelfIndex()
		ordered[idx] = d
		orderedAddrs[idx] = addrs[i]
	}
	return ordered, orderedAddrs
}

// ownedBy partitions ids by their owner member, per ds[0]'s routing table
// (every member computes the identical table).
func ownedBy(ds []*daemon, ids []uint64) map[int][]uint64 {
	out := make(map[int][]uint64)
	for _, id := range ids {
		owner := ds[0].cluster.OwnerOf(id)
		out[owner] = append(out[owner], id)
	}
	return out
}

// memorySet flushes the pool and returns its Γ as a sorted slice.
func memorySet(t *testing.T, d *daemon) []uint64 {
	t.Helper()
	if err := d.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	mem := d.pool.Memory()
	sort.Slice(mem, func(i, j int) bool { return mem[i] < mem[j] })
	return mem
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterRoutingConvergence is the tentpole's routing half: ids pushed
// at ANY member must land in exactly their owner's Γ. Three members, the
// population pushed through a different entry member per round, and every
// daemon's memory must converge to precisely its owned subset.
func TestClusterRoutingConvergence(t *testing.T) {
	ds, addrs := testClusterDaemons(t, 3, func(o *options) { o.c = 100 })

	const population = 240
	ids := make([]uint64, population)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	byOwner := ownedBy(ds, ids)
	for owner := 0; owner < 3; owner++ {
		if len(byOwner[owner]) == 0 {
			t.Fatalf("degenerate rendezvous split: member %d owns nothing of %d ids", owner, population)
		}
		sort.Slice(byOwner[owner], func(i, j int) bool { return byOwner[owner][i] < byOwner[owner][j] })
	}

	// Each member serves as the ingest entry for one round of the whole
	// population: every id therefore arrives at least once at a member that
	// does NOT own it and must be forwarded.
	batch := make([]nodesampling.NodeID, population)
	for i, id := range ids {
		batch[i] = nodesampling.NodeID(id)
	}
	for _, addr := range addrs {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}

	// Forwarding is asynchronous; converge means every daemon's Γ is
	// exactly its owned subset — nothing missing, nothing misplaced.
	waitFor(t, "every id to reach its owner and only its owner", func() bool {
		for i, d := range ds {
			if !equalU64(memorySet(t, d), byOwner[i]) {
				return false
			}
		}
		return true
	})

	// The fleet actually forwarded (this is not a single-node degenerate
	// case), and the stats surface says so.
	forwarded := uint64(0)
	for _, d := range ds {
		for _, m := range d.cluster.Stats().Members {
			forwarded += m.ForwardedIDs
		}
	}
	if forwarded == 0 {
		t.Fatal("no ids were forwarded between members")
	}
}

// TestClusterSampleUniformDisproportionate is the acceptance chi-square:
// cluster-wide Sample must be uniform over the union of member memories
// even when the members hold wildly different |Γ| — 384/96/32 here, so an
// unweighted merge would be visibly (and catastrophically) biased toward
// the small members' ids. df = 511; the 99.99th percentile of chi-square
// with 511 degrees of freedom is ≈ 639, so 650 keeps false failures out.
func TestClusterSampleUniformDisproportionate(t *testing.T) {
	ds, _ := testClusterDaemons(t, 3, func(o *options) { o.c = 120 })

	// Build the population by owner quota: ample capacity everywhere, the
	// disproportion entirely in how many ids each member owns.
	quota := map[int]int{0: 384, 1: 96, 2: 32}
	var population []uint64
	for id := uint64(1); len(population) < 512; id++ {
		owner := ds[0].cluster.OwnerOf(id)
		if quota[owner] > 0 {
			quota[owner]--
			population = append(population, id)
		}
	}
	byOwner := ownedBy(ds, population)
	if len(byOwner[0]) != 384 || len(byOwner[1]) != 96 || len(byOwner[2]) != 32 {
		t.Fatalf("quota fill broke: %d/%d/%d", len(byOwner[0]), len(byOwner[1]), len(byOwner[2]))
	}

	if err := ds[0].ingestRouted(population, "stream"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the skewed population to settle at its owners", func() bool {
		total := 0
		for _, d := range ds {
			total += len(memorySet(t, d))
		}
		return total == len(population)
	})

	// Draw through the fan-out at every member in turn: a sample must be
	// uniform no matter which member answers it.
	hist := metrics.NewHistogram()
	const rounds = 24
	for r := 0; r < rounds; r++ {
		draws := ds[r%3].sampleN(512)
		if len(draws) != 512 {
			t.Fatalf("round %d: fan-out returned %d draws, want 512", r, len(draws))
		}
		for _, id := range draws {
			hist.Add(id)
		}
	}
	chi, err := hist.ChiSquareUniform(len(population))
	if err != nil {
		t.Fatal(err)
	}
	if chi > 650 {
		t.Fatalf("cluster-wide sample not uniform over disproportionate members: chi2 = %v (df = 511)", chi)
	}
}

// skewedFleet boots the 384/96/32 fleet of
// TestClusterSampleUniformDisproportionate and returns it with each member's
// owned ids, settled in their owners' memories.
func skewedFleet(t *testing.T) ([]*daemon, map[int][]uint64) {
	t.Helper()
	ds, _ := testClusterDaemons(t, 3, func(o *options) { o.c = 120 })
	quota := map[int]int{0: 384, 1: 96, 2: 32}
	var population []uint64
	for id := uint64(1); len(population) < 512; id++ {
		if owner := ds[0].cluster.OwnerOf(id); quota[owner] > 0 {
			quota[owner]--
			population = append(population, id)
		}
	}
	if err := ds[0].ingestRouted(population, "stream"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the skewed population to settle at its owners", func() bool {
		total := 0
		for _, d := range ds {
			total += len(memorySet(t, d))
		}
		return total == len(population)
	})
	return ds, ownedBy(ds, population)
}

// TestClusterSampleLargeNUniform pins the draw at every n the surfaces
// admit: a member answers at most netgossip.MaxBatch draws per exchange, and
// the old merge retired a member whose draws ran out, so asking the smallest
// member (6.25 % of the union) for 16384 draws returned 50 % local ids and
// GET /sample?n=65536 returned 87.5 %. Each member's share must match
// |Γᵢ| / Σ|Γ| (6σ of the binomial at n = 16384 is 0.023 for the largest
// member) and the draws must stay chi-square uniform over the population
// (df = 511, threshold as in TestClusterSampleUniformDisproportionate).
func TestClusterSampleLargeNUniform(t *testing.T) {
	ds, byOwner := skewedFleet(t)
	smallest := ds[2]
	owner := make(map[uint64]int)
	for member, ids := range byOwner {
		for _, id := range ids {
			owner[id] = member
		}
	}
	check := func(what string, n int, draws []uint64) {
		t.Helper()
		if len(draws) != n {
			t.Fatalf("%s: %d draws, want %d", what, len(draws), n)
		}
		hist := metrics.NewHistogram()
		counts := make([]float64, 3)
		for _, id := range draws {
			hist.Add(id)
			counts[owner[id]]++
		}
		for member, c := range counts {
			got, want := c/float64(n), float64(len(byOwner[member]))/512
			if got < want-0.025 || got > want+0.025 {
				t.Errorf("%s: member %d supplied %.4f of the draws, its share of the union is %.4f", what, member, got, want)
			}
		}
		if chi, err := hist.ChiSquareUniform(512); err != nil || chi > 650 {
			t.Errorf("%s: not uniform over the union: chi2 = %v (df = 511), err %v", what, chi, err)
		}
	}
	check("sampleN(16384)", 16384, smallest.sampleN(16384))

	ts := httptest.NewServer(smallest.handler())
	defer ts.Close()
	var resp struct {
		Samples []jsonID `json:"samples"`
	}
	if code := getJSON(t, ts.URL+"/sample?n=65536", &resp); code != http.StatusOK {
		t.Fatalf("GET /sample?n=65536 → %d", code)
	}
	draws := make([]uint64, len(resp.Samples))
	for i, id := range resp.Samples {
		draws[i] = uint64(id)
	}
	check("GET /sample?n=65536", 65536, draws)
}

// TestClusterSampleMemberMissPerRound: a member that cannot answer is left
// out of each round's quotas — the answer is still n draws, uniform over the
// reachable members' ids — and counted once per round it missed.
func TestClusterSampleMemberMissPerRound(t *testing.T) {
	ds, byOwner := skewedFleet(t)
	ds[1].Close()
	waitFor(t, "member 1's connections to drop", func() bool {
		for _, m := range ds[0].cluster.Stats().Members {
			if m.Addr == ds[1].cluster.Members()[1] && m.Connected {
				return false
			}
		}
		return true
	})
	gone := make(map[uint64]bool)
	for _, id := range byOwner[1] {
		gone[id] = true
	}
	const n = 2*netgossip.MaxBatch + 10 // three rounds
	before := ds[0].clusterFanoutMissing.Load()
	draws := ds[0].sampleN(n)
	if len(draws) != n {
		t.Fatalf("fan-out with a member down returned %d draws, want %d", len(draws), n)
	}
	local := 0
	for _, id := range draws {
		if gone[id] {
			t.Fatalf("id %d lives only on the dead member", id)
		}
		if ds[0].cluster.OwnerOf(id) == 0 {
			local++
		}
	}
	if got, want := float64(local)/n, 384.0/(384+32); got < want-0.03 || got > want+0.03 {
		t.Fatalf("member 0 supplied %.4f of the draws, its share of the reachable union is %.4f", got, want)
	}
	if missed := ds[0].clusterFanoutMissing.Load() - before; missed != 3 {
		t.Fatalf("unsd_cluster_sample_member_misses_total moved by %d over three rounds, want 3", missed)
	}
}

// TestClusterSampleWarmReservoirMemberDeath: draws cached from a member do
// not outlive it. With member 1's reservoir at member 0 warm, member 1 dies;
// once the disconnect is noticed no Sample returns an id that lives only
// there, and the member is one counted miss per round like any dead one.
func TestClusterSampleWarmReservoirMemberDeath(t *testing.T) {
	ds, byOwner := skewedFleet(t)
	if got := len(ds[0].sampleN(512)); got != 512 {
		t.Fatalf("warm-up Sample returned %d draws, want 512", got)
	}
	dead := ds[1].cluster.Members()[1]
	ds[1].Close()
	waitFor(t, "member 1's connection to drop", func() bool {
		for _, m := range ds[0].cluster.Stats().Members {
			if m.Addr == dead && m.Connected {
				return false
			}
		}
		return true
	})
	gone := make(map[uint64]bool)
	for _, id := range byOwner[1] {
		gone[id] = true
	}
	before := ds[0].clusterFanoutMissing.Load()
	draws := ds[0].sampleN(512)
	if len(draws) != 512 {
		t.Fatalf("Sample with a member down returned %d draws, want 512", len(draws))
	}
	for _, id := range draws {
		if gone[id] {
			t.Fatalf("id %d lives only on the dead member: served from its reservoir", id)
		}
	}
	if missed := ds[0].clusterFanoutMissing.Load() - before; missed != 1 {
		t.Fatalf("unsd_cluster_sample_member_misses_total moved by %d over one round, want 1", missed)
	}
}

// TestClusterSampleReservoirUniform is the reservoirs' acceptance chi-square
// at the rate they exist for: 4096 Sample(16) calls at each member of the
// 384/96/32 fleet stay uniform over the union (df = 511, threshold as in
// TestClusterSampleUniformDisproportionate), every member supplies its share
// of them (4σ of the binomial at n = 65536 is under 0.008), and the asking
// member pays for them with at most a tenth of the 8192 exchanges a
// per-call fan-out would: the draws it needs in refills of 256, plus one
// refill per member per 10 ms.
func TestClusterSampleReservoirUniform(t *testing.T) {
	ds, byOwner := skewedFleet(t)
	owner := make(map[uint64]int)
	for member, ids := range byOwner {
		for _, id := range ids {
			owner[id] = member
		}
	}
	sampleRPCs := func(d *daemon) (n uint64) {
		for _, m := range d.cluster.Stats().Members {
			n += m.SampleRPCs
		}
		return n
	}
	const calls = 4096
	for asked, d := range ds {
		hist := metrics.NewHistogram()
		counts := make([]float64, 3)
		before := sampleRPCs(d)
		for i := 0; i < calls; i++ {
			draws := d.sampleN(16)
			if len(draws) != 16 {
				t.Fatalf("member %d, call %d: %d draws, want 16", asked, i, len(draws))
			}
			for _, id := range draws {
				hist.Add(id)
				counts[owner[id]]++
			}
		}
		rpcs := sampleRPCs(d) - before
		chi, err := hist.ChiSquareUniform(512)
		t.Logf("member %d asked: chi2 %.0f, %d member exchanges for %d calls", asked, chi, rpcs, calls)
		if rpcs > calls/4 {
			t.Errorf("member %d: %d Sample(16) calls cost %d member exchanges, want at most %d", asked, calls, rpcs, calls/4)
		}
		for member, c := range counts {
			got, want := c/(16*calls), float64(len(byOwner[member]))/512
			if got < want-0.02 || got > want+0.02 {
				t.Errorf("member %d asked: member %d supplied %.4f of the draws, its share of the union is %.4f", asked, member, got, want)
			}
		}
		if err != nil || chi > 650 {
			t.Errorf("member %d asked: not uniform over the union: chi2 = %v (df = 511), err %v", asked, chi, err)
		}
	}
}

// TestNewDaemonFailureLeavesNoMemberDialling: a boot that fails after its
// cluster plane was configured (autoscale bounds inverted, the last thing
// newDaemon validates) must return with nothing left running — the other
// member's pre-bound listener accepts no connection once the error is back.
// The parent closed the pool and left the member connection dialling.
func TestNewDaemonFailureLeavesNoMemberDialling(t *testing.T) {
	lns := make([]*net.TCPListener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[i], addrs[i] = ln.(*net.TCPListener), ln.Addr().String()
	}
	o := defaultOptions()
	o.clusterMembers, o.streamAddr = addrs, addrs[0]
	o.minShards, o.maxShards = 8, 2
	if _, err := newDaemon(o); err == nil {
		t.Fatal("inverted autoscale bounds accepted")
	}
	if err := lns[1].SetDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if conn, err := lns[1].Accept(); err == nil {
		conn.Close()
		t.Fatal("a failed boot left its member connection dialling")
	}
}

// TestClusterLiveMigration is the acceptance migration scenario: a hot id's
// slot is handed from member 0 to member 1 through POST /migrate while the
// fleet runs. The frequency estimate must survive the move, the Γ ids must
// change hands, the placement epoch must propagate to the third member, and
// new ingest for the moved range must route to its new owner.
func TestClusterLiveMigration(t *testing.T) {
	ds, addrs := testClusterDaemons(t, 3, func(o *options) { o.c = 120 })
	ts := httptest.NewServer(ds[0].handler())
	defer ts.Close()

	// Warm a mixed-ownership population through member 0.
	var population []uint64
	for id := uint64(1); id <= 200; id++ {
		population = append(population, id)
	}
	if err := ds[0].ingestRouted(population, "stream"); err != nil {
		t.Fatal(err)
	}
	// A hot id owned by member 0, hammered so its sketch count towers over
	// the rest — the estimate the migration must not lose.
	var hot uint64
	for id := uint64(1000); ; id++ {
		if ds[0].cluster.OwnerOf(id) == 0 {
			hot = id
			break
		}
	}
	hotBatch := make([]uint64, 100)
	for i := range hotBatch {
		hotBatch[i] = hot
	}
	for r := 0; r < 5; r++ {
		if err := ds[0].ingestRouted(hotBatch, "stream"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the population and hot id to settle", func() bool {
		for _, d := range ds {
			if err := d.pool.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		return ds[0].pool.Estimate(hot) >= 500
	})
	pre := ds[0].pool.Estimate(hot)
	slot := ds[0].cluster.SlotOf(hot)
	if ds[0].cluster.SlotOwner(slot) != 0 {
		t.Fatalf("slot %d not owned by member 0", slot)
	}

	// The live hand-off: one slot, member 0 -> member 1.
	body, _ := json.Marshal(map[string]any{"from_slot": slot, "to_slot": slot, "target": addrs[1]})
	resp, err := http.Post(ts.URL+"/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var result struct {
		Target   string `json:"target"`
		FromSlot int    `json:"from_slot"`
		ToSlot   int    `json:"to_slot"`
		MovedIDs int    `json:"moved_ids"`
		Epoch    uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /migrate = %d (%+v)", resp.StatusCode, result)
	}
	if result.MovedIDs < 1 || result.Epoch != 1 || result.Target != addrs[1] {
		t.Fatalf("migration result %+v, want >= 1 moved id at epoch 1", result)
	}

	// No lost Γ state: the hot id now lives on member 1 with its frequency
	// evidence intact (the merged sketch never undercounts), and member 0
	// dropped its copy.
	if got := ds[1].pool.Estimate(hot); got < pre {
		t.Fatalf("hot id estimate %d on the target, want >= %d (pre-migration)", got, pre)
	}
	inMem := func(d *daemon, id uint64) bool {
		for _, m := range memorySet(t, d) {
			if m == id {
				return true
			}
		}
		return false
	}
	if !inMem(ds[1], hot) {
		t.Fatal("hot id missing from the target's Γ after migration")
	}
	if inMem(ds[0], hot) {
		t.Fatal("hot id still in the source's Γ after migration")
	}

	// The epoch bump reaches the uninvolved member via the placement
	// broadcast, flipping its routing for the moved slot.
	waitFor(t, "the placement broadcast to reach member 2", func() bool {
		return ds[2].cluster.Epoch() == 1 && ds[2].cluster.SlotOwner(slot) == 1
	})
	for i, d := range ds {
		if d.cluster.SlotOwner(slot) != 1 {
			t.Fatalf("member %d still routes slot %d to owner %d", i, slot, d.cluster.SlotOwner(slot))
		}
	}

	// New ingest for the moved range — entering at the OLD owner — lands on
	// the new one.
	var fresh uint64
	for id := hot + 1; ; id++ {
		if ds[0].cluster.SlotOf(id) == slot {
			fresh = id
			break
		}
	}
	if err := ds[0].ingestRouted([]uint64{fresh}, "stream"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-migration ingest to land on the new owner", func() bool {
		return inMem(ds[1], fresh)
	})
	if inMem(ds[0], fresh) {
		t.Fatal("post-migration ingest stuck on the old owner")
	}

	// Uniformity survives the topology change: cluster-wide draws after the
	// hand-off stay chi-square-uniform over the (now re-homed) union — the
	// moved ids are neither over-weighted on their new member nor shadowed
	// by the transfer. The union is the 200-id warmup + hot + fresh = 202
	// cells; the 99.99th percentile of chi-square with df = 201 is ≈ 285.
	union := append(append([]uint64(nil), population...), hot, fresh)
	hist := metrics.NewHistogram()
	for r := 0; r < 24; r++ {
		draws := ds[r%3].sampleN(512)
		if len(draws) != 512 {
			t.Fatalf("post-migration round %d: fan-out returned %d draws, want 512", r, len(draws))
		}
		for _, id := range draws {
			hist.Add(id)
		}
	}
	chi, err := hist.ChiSquareUniform(len(union))
	if err != nil {
		t.Fatal(err)
	}
	if chi > 300 {
		t.Fatalf("cluster-wide sample not uniform after migration: chi2 = %v (df = %d)", chi, len(union)-1)
	}
}

// TestMigrateRequiresCluster: the admin surface refuses /migrate on a
// standalone daemon instead of pretending.
func TestMigrateRequiresCluster(t *testing.T) {
	d := testDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	body := []byte(`{"from_slot": 0, "to_slot": 1, "target": "127.0.0.1:1"}`)
	resp, err := http.Post(ts.URL+"/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /migrate on a standalone daemon = %d, want 400", resp.StatusCode)
	}
}

// TestClusterStatsSurface: /stats on a clustered daemon carries the cluster
// block (membership, epoch, slots); standalone daemons serve null there.
func TestClusterStatsSurface(t *testing.T) {
	ds, addrs := testClusterDaemons(t, 3, nil)
	ts := httptest.NewServer(ds[0].handler())
	defer ts.Close()
	var stats struct {
		Cluster *struct {
			Self    string `json:"self"`
			Epoch   uint64 `json:"epoch"`
			Members []struct {
				Addr      string `json:"addr"`
				Self      bool   `json:"self"`
				Connected bool   `json:"connected"`
				Slots     int    `json:"slots"`
			} `json:"members"`
		} `json:"cluster"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Cluster == nil {
		t.Fatal("no cluster block in a clustered daemon's /stats")
	}
	if stats.Cluster.Self != addrs[0] || len(stats.Cluster.Members) != 3 {
		t.Fatalf("cluster stats %+v", stats.Cluster)
	}
	slots := 0
	for _, m := range stats.Cluster.Members {
		slots += m.Slots
	}
	if slots != 4096 {
		t.Fatalf("member slot counts sum to %d, want the full table", slots)
	}
}

// TestClusterRunFlagValidation pins run()'s -cluster contract: the flag
// demands -stream, an explicit -seed and -members, and -members without
// -cluster is called out rather than ignored.
func TestClusterRunFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"missing stream":  {"-cluster", "-members", "a:1,b:2", "-seed", "3"},
		"missing seed":    {"-cluster", "-stream", "127.0.0.1:0", "-members", "a:1,b:2"},
		"missing members": {"-cluster", "-stream", "127.0.0.1:0", "-seed", "3"},
		"members alone":   {"-members", "a:1,b:2"},
	}
	for name, args := range cases {
		var sb safeBuilder
		if err := run(context.Background(), append(args, "-http", "127.0.0.1:0"), &sb); err == nil {
			t.Errorf("%s: run accepted %v", name, args)
		}
	}
}

// TestClusterClientFailover: DialCluster rides out a member death by
// rotating to the next address — pushes resume against the survivor without
// the caller re-dialling.
func TestClusterClientFailover(t *testing.T) {
	d0, ln0 := testStreamDaemon(t, defaultOptions())
	d1, ln1 := testStreamDaemon(t, defaultOptions())

	c, err := client.DialCluster([]string{ln0.Addr().String(), ln1.Addr().String()}, client.DialOptions{
		Reconnect:  true,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PushBatch([]nodesampling.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first member to hold the pushed ids", func() bool {
		if err := d0.pool.Flush(); err != nil {
			t.Fatal(err)
		}
		return d0.pool.MemoryTotal() == 3
	})

	// Kill member 0's stream plane: the live connection dies and the
	// address stops accepting, so the client must rotate to member 1.
	d0.stream.Close()
	const marker = nodesampling.NodeID(777777)
	waitFor(t, "pushes to resume against the surviving member", func() bool {
		if err := c.PushBatch([]nodesampling.NodeID{marker}); err != nil {
			return false
		}
		if err := d1.pool.Flush(); err != nil {
			t.Fatal(err)
		}
		return d1.pool.Estimate(uint64(marker)) > 0
	})
	if c.Reconnects() == 0 {
		t.Fatal("client claims it never reconnected")
	}
}

// TestStreamSubscribeRateCap drives the token-bucket satellite end to end:
// a rate-capped subscription over the wire shows its cap and a growing
// capped count in /stats while σ′ runs much faster than the budget.
func TestStreamSubscribeRateCap(t *testing.T) {
	d, ln := testStreamDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const rate = 5
	out, err := c.SubscribeRate(256, 1, rate)
	if err != nil {
		t.Fatal(err)
	}
	// Drain so ring drops never mask the cap accounting.
	go func() {
		for range out {
		}
	}()
	ids := make([]nodesampling.NodeID, 600)
	for i := range ids {
		ids[i] = nodesampling.NodeID(i + 1)
	}
	if err := c.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Subscribers []struct {
			Offered uint64 `json:"offered"`
			Capped  uint64 `json:"capped"`
			Rate    uint32 `json:"rate"`
		} `json:"subscribers"`
	}
	waitFor(t, "the rate cap to surface in /stats", func() bool {
		getJSON(t, ts.URL+"/stats", &stats)
		return len(stats.Subscribers) == 1 && stats.Subscribers[0].Capped > 0
	})
	if got := stats.Subscribers[0].Rate; got != rate {
		t.Fatalf("stats report rate=%d, want %d", got, rate)
	}
	// The cap actually bit: far more σ′ was offered than a 5/s budget
	// delivers over a few seconds.
	if s := stats.Subscribers[0]; s.Offered-s.Capped > s.Offered/2 {
		t.Fatalf("cap admitted %d of %d offered — not a cap", s.Offered-s.Capped, s.Offered)
	}

	// A scrape alone must be able to check the subscription's ledger, the
	// capped term included: every snapshot of a live subscription satisfies
	// offered == delivered + dropped + filtered + capped + buffered.
	scr := scrapeMetrics(t, ts)
	term := func(name string) uint64 {
		fam := scr.Family("unsd_subscriber_" + name)
		if fam == nil || len(fam.Samples) != 1 {
			t.Fatalf("unsd_subscriber_%s: want one sample, got %+v", name, fam)
		}
		return uint64(fam.Samples[0].Value)
	}
	offered, capped := term("offered_ids_total"), term("capped_ids_total")
	if capped == 0 {
		t.Fatal("unsd_subscriber_capped_ids_total is 0 for a subscription /stats shows capped")
	}
	if sum := term("delivered_ids_total") + term("dropped_ids_total") + term("filtered_ids_total") +
		capped + term("queue_depth_ids"); sum != offered {
		t.Fatalf("scraped ledger: delivered + dropped + filtered + capped %d + buffered = %d, offered %d", capped, sum, offered)
	}

	// Wire-form validation: SubscribeRate rejects a zero rate locally.
	if _, err := c.SubscribeRate(16, 1, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// TestStreamResumeTokenLifecycle pins the decimation-continuity satellite
// at the server: a subscribed connection's phase is parked under its
// SubAck token on disconnect, redeemed (single-use) by a reconnect
// presenting the token, and an unknown token still yields a working fresh
// subscription; and a decimated client.SubscribeEvery subscriber — no rate
// cap — whose connection drops reconnects with the token it was acked and
// keeps its 1-in-k spacing across the gap. The InitialSeen arithmetic
// itself is pinned in the subhub unit tests; this is the wire plumbing
// around it.
func TestStreamResumeTokenLifecycle(t *testing.T) {
	d, ln := testStreamDaemon(t, defaultOptions())

	parked := func() int {
		d.stream.resumeMu.Lock()
		defer d.stream.resumeMu.Unlock()
		return len(d.stream.resumes)
	}
	subscribe := func(token uint64) (net.Conn, uint64) {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := netgossip.WriteFrame(conn, netgossip.Frame{
			Type: netgossip.FrameSubscribe, N: 64, Every: 4, Rate: 1 << 20, Token: token,
		}); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		f, err := netgossip.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != netgossip.FrameSubAck || f.Token == 0 {
			t.Fatalf("frame %+v, want a SubAck with a nonzero token", f)
		}
		return conn, f.Token
	}

	conn1, token1 := subscribe(0)
	conn1.Close()
	waitFor(t, "the phase to park under the token", func() bool { return parked() == 1 })

	// Redeeming the token consumes the parked entry; the resumed
	// subscription streams like any other.
	conn2, token2 := subscribe(token1)
	if token2 == token1 {
		t.Fatal("SubAck reissued the presented token")
	}
	waitFor(t, "the parked phase to be redeemed", func() bool { return parked() == 0 })

	// σ′ flows on the resumed subscription.
	pusher, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pusher.Close()
	ids := make([]nodesampling.NodeID, 400)
	for i := range ids {
		ids[i] = nodesampling.NodeID(i + 1)
	}
	if err := pusher.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	_ = conn2.SetReadDeadline(time.Now().Add(10 * time.Second))
	waitFor(t, "stream data on the resumed subscription", func() bool {
		f, err := netgossip.ReadFrame(conn2)
		if err != nil {
			t.Fatal(err)
		}
		return f.Type == netgossip.FrameStreamData
	})
	conn2.Close()
	waitFor(t, "the second phase to park", func() bool { return parked() == 1 })

	// The consumed token is gone: presenting it again starts a fresh
	// window (no error, no redemption) and leaves the second entry parked.
	conn3, _ := subscribe(token1)
	if got := parked(); got != 1 {
		t.Fatalf("stale token redeemed something: %d parked entries, want 1", got)
	}

	conn3.Close()
	waitFor(t, "the third phase to park", func() bool { return parked() == 2 })

	// The public client, decimated only: 4 of every 5 offers are counted
	// toward the next delivery when the connection is cut.
	const every = 5
	c, err := client.DialWithOptions(ln.Addr().String(), client.DialOptions{
		Reconnect: true, MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.SubscribeEvery(64, every)
	if err != nil {
		t.Fatal(err)
	}
	row := func() (subhub.SubStats, bool) {
		for _, sub := range d.pool.Stats().Subscribers {
			if sub.Every == every {
				return sub, true
			}
		}
		return subhub.SubStats{}, false
	}
	waitFor(t, "the decimated subscription", func() bool { _, ok := row(); return ok })
	if err := c.PushBatch(ids[:every-1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the pre-cut offers to be accounted", func() bool {
		r, _ := row()
		return r.Offered == every-1 && r.Filtered == every-1
	})
	// Cut every connection from the server side. Holding the accept lock
	// until the phase is parked keeps the client's immediate redial from
	// racing the old connection's teardown: in the wild that race costs one
	// stretched window, here it would make the assertion below a coin toss.
	d.stream.mu.Lock()
	for conn := range d.stream.conns {
		conn.Close()
	}
	waitFor(t, "the cut subscription's phase to park", func() bool { return parked() == 3 })
	d.stream.mu.Unlock()
	waitFor(t, "the reconnect to redeem its token", func() bool {
		r, ok := row()
		return ok && r.Offered == 0 && parked() == 2 && c.Reconnects() == 1
	})
	// One more offer completes the stitched window: were the window
	// restarted, its draw would be filtered like the first four.
	if err := c.PushBatch(ids[every-1 : every]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-out:
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery on the offer completing the stitched window")
	}
	if r, _ := row(); r.Offered != 1 || r.Filtered != 0 {
		t.Fatalf("resumed subscription accounting %+v, want its one offer delivered", r)
	}
}

// inClusterMem reports whether id is in d's Γ (after a flush).
func inClusterMem(t *testing.T, d *daemon, id uint64) bool {
	t.Helper()
	for _, m := range memorySet(t, d) {
		if m == id {
			return true
		}
	}
	return false
}

// TestClusterMigrationTransferWindow pins the hand-off's no-loss invariant
// under live ingest: an id entering the migrated slot range AFTER the
// export but BEFORE the ownership flip was never part of the transferred
// blob, so the source must keep it — transiently misplaced, still sampled
// — rather than dropping the whole range and erasing it from the
// cluster-wide Γ.
func TestClusterMigrationTransferWindow(t *testing.T) {
	ds, addrs := testClusterDaemons(t, 2, nil)
	ts := httptest.NewServer(ds[0].handler())
	defer ts.Close()

	// Two ids sharing one member-0-owned slot: early is ingested before
	// the migration, late arrives inside the transfer window.
	var early, late uint64
	for id := uint64(1); ; id++ {
		if ds[0].cluster.OwnerOf(id) == 0 {
			early = id
			break
		}
	}
	slot := ds[0].cluster.SlotOf(early)
	for id := early + 1; ; id++ {
		if ds[0].cluster.SlotOf(id) == slot {
			late = id
			break
		}
	}
	if err := ds[0].ingestRouted([]uint64{early}, "stream"); err != nil {
		t.Fatal(err)
	}
	if err := ds[0].pool.Flush(); err != nil {
		t.Fatal(err)
	}
	ds[0].migrateHook = func() {
		// Ingest continues while the blob is in flight; the routing table
		// still points the slot at the source.
		if err := ds[0].ingestRouted([]uint64{late}, "stream"); err != nil {
			t.Error(err)
		}
		if err := ds[0].pool.Flush(); err != nil {
			t.Error(err)
		}
	}
	body, _ := json.Marshal(map[string]any{"from_slot": slot, "to_slot": slot, "target": addrs[1]})
	resp, err := http.Post(ts.URL+"/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /migrate = %d, want 200", resp.StatusCode)
	}
	if !inClusterMem(t, ds[1], early) {
		t.Fatal("exported id missing from the target after migration")
	}
	if inClusterMem(t, ds[0], early) {
		t.Fatal("exported id still on the source after migration")
	}
	// The transfer-window id was never in the blob: it survives on the
	// source instead of vanishing with a whole-range drop.
	if !inClusterMem(t, ds[0], late) {
		t.Fatal("id ingested during the transfer window vanished from the cluster-wide Γ")
	}
	if inClusterMem(t, ds[1], late) {
		t.Fatal("untransferred transfer-window id appeared on the target")
	}
}

// TestClusterMigrationEpochConflict pins the uncoordinated-epoch defence:
// when a rival migration installs the epoch this source proposed while its
// blob is in flight, the ownership flip is rejected fleet-wide — so the
// handler must surface the conflict and keep the source's Γ copy (the
// target's duplicate is merely over-remembered, which is safe) instead of
// reporting success against a routing table that never flipped.
func TestClusterMigrationEpochConflict(t *testing.T) {
	ds, addrs := testClusterDaemons(t, 3, nil)
	ts := httptest.NewServer(ds[0].handler())
	defer ts.Close()

	var id uint64
	for i := uint64(1); ; i++ {
		if ds[0].cluster.OwnerOf(i) == 0 {
			id = i
			break
		}
	}
	slot := ds[0].cluster.SlotOf(id)
	if err := ds[0].ingestRouted([]uint64{id}, "stream"); err != nil {
		t.Fatal(err)
	}
	other := (slot + 1) % shard.PlacementSlots
	ds[0].migrateHook = func() {
		// A rival migration's broadcast lands mid-transfer, installing the
		// same epoch this migration proposed for a different range.
		if !ds[0].cluster.ApplyPlacement(ds[0].cluster.Epoch()+1, other, other, 2) {
			t.Error("rival placement update did not apply")
		}
	}
	body, _ := json.Marshal(map[string]any{"from_slot": slot, "to_slot": slot, "target": addrs[1]})
	resp, err := http.Post(ts.URL+"/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /migrate with a stolen epoch = %d, want 409", resp.StatusCode)
	}
	// Nothing was dropped: the id still lives on the source, which still
	// routes the slot to itself everywhere the flip never happened.
	if !inClusterMem(t, ds[0], id) {
		t.Fatal("source dropped its Γ copy although the ownership flip failed")
	}
	if ds[0].cluster.SlotOwner(slot) != 0 || ds[2].cluster.SlotOwner(slot) != 0 {
		t.Fatal("failed migration still flipped slot ownership")
	}

	// The import side's own guard: a proposal whose epoch is not newer than
	// the target's table is refused outright — acking it would let the
	// source drop ids behind a flip the fleet will never install.
	if _, err := ds[1].importMigration(cluster.Migration{
		Epoch:    ds[1].cluster.Epoch(),
		FromSlot: uint32(slot),
		ToSlot:   uint32(slot),
		Strategy: ds[1].pool.Strategy(),
	}); err == nil {
		t.Fatal("import side accepted a stale-epoch migration")
	}
}
