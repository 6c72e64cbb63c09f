package main

// The daemon's cluster plane: ingest partitioning and forwarding, the
// cluster-wide weighted sample rounds, the live-migration admin endpoint
// (POST /migrate) and the cluster metric families. Everything here is
// inert when -cluster is off: d.cluster stays nil, ingest and Sample take
// their standalone paths, and /migrate answers 400.

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"nodesampling/internal/cluster"
	"nodesampling/internal/netgossip"
	"nodesampling/internal/shard"
	"nodesampling/internal/telemetry"
)

// clusterSampleTimeout bounds a reservoir refill, the remote half of a sample
// round; a member that cannot answer within it is out of it (and counted).
const clusterSampleTimeout = 10 * time.Second

// clusterMigrateTimeout bounds a migration transfer end to end: blob write,
// target-side import, ack.
const clusterMigrateTimeout = 60 * time.Second

// ingestRouted is the cluster-aware front of the ingest funnel: batches are
// partitioned against the routing table, the locally-owned ids ingested
// here, and the rest forwarded to their owner members. Forward arrivals
// (surface "forward") are ingested locally unconditionally — a receiver
// never re-forwards, so no routing disagreement can loop a batch.
func (d *daemon) ingestRouted(ids []uint64, surface string) error {
	if d.cluster == nil || surface == "forward" {
		return d.ingest(ids, surface)
	}
	local, remote := d.cluster.Partition(ids)
	for member, batch := range remote {
		if len(batch) > 0 {
			d.cluster.Forward(member, batch)
		}
	}
	if len(local) == 0 {
		return nil
	}
	return d.ingest(local, surface)
}

// sampleN answers a sample request cluster-wide, quota first: per round, the
// members' |Γ| (cached with their reservoirs of draws, at most 10 ms old)
// and the live local one are dealt the round's draws by rng.Quotas — the
// same estimate-the-union draw the pool plays across its shards, so the
// output stays uniform over the union of member memories however unevenly
// the ids are distributed — and each source serves exactly its quota: the
// pool draws it, a member's reservoir gives it up, each draw once. A round
// is at most netgossip.MaxBatch draws, what one FrameSampleLocalResp can
// carry, so a quota is within one refill and every n the surfaces admit is
// drawn the same way. Standalone daemons take the pool path untouched.
func (d *daemon) sampleN(n int) []uint64 {
	if d.cluster == nil {
		return d.pool.SampleN(n)
	}
	d.clusterFanouts.Add(1)
	self := d.cluster.SelfIndex()
	out := make([]uint64, 0, n)
	for len(out) < n {
		before, owed := len(out), false
		round := min(n-before, netgossip.MaxBatch)
		// A member that is down or timed out (counted) has weight zero,
		// which Quotas never draws: it is out of this round only.
		gammas, misses := d.cluster.SampleMembers(clusterSampleTimeout)
		gammas[self] = uint64(d.pool.MemoryTotal())
		d.mergeMu.Lock()
		quotas := d.mergeRNG.Quotas(gammas, round)
		d.mergeMu.Unlock()
		for i, quota := range quotas {
			if quota == 0 {
				continue
			}
			if i == self {
				out = append(out, d.pool.SampleN(quota)...)
				continue
			}
			// A member short of its quota, or whose refill fails (a miss,
			// like a failed weight), leaves the rest to the next round.
			var err error
			if out, err = d.cluster.TakeDraws(i, out, quota, clusterSampleTimeout); err != nil {
				misses, owed = misses+1, true
			}
		}
		d.clusterFanoutMissing.Add(uint64(misses))
		if len(out) == before && !owed {
			break // every reachable Γ is empty
		}
	}
	return out
}

// handleMigrate serves POST /migrate: a live hand-off of one slot range —
// the Γ ids living in it and the pool's merged frequency state — to another
// member, installed cluster-wide under a bumped placement epoch.
//
//	{"from_slot": 0, "to_slot": 1023, "target": "10.0.0.2:7947"}
//
// The transfer is flush-barriered (in-queue ids reach the samplers before
// export) and loses no Γ state: the ids and the sketch evidence travel
// together, and the target merges both before the ownership flip routes new
// arrivals its way. Ids ingested at the source between export and the flip
// stay where they are — transiently misplaced, still sampled correctly,
// since cluster sampling weights members by realised |Γ|.
func (d *daemon) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if d.cluster == nil {
		httpError(w, http.StatusBadRequest, "daemon is not clustered (-cluster)")
		return
	}
	var req struct {
		FromSlot *int   `json:"from_slot"`
		ToSlot   *int   `json:"to_slot"`
		Target   string `json:"target"`
	}
	if err := decodeAdminJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	if req.FromSlot == nil || req.ToSlot == nil || req.Target == "" {
		httpError(w, http.StatusBadRequest, `missing "from_slot", "to_slot" or "target"`)
		return
	}
	from, to := *req.FromSlot, *req.ToSlot
	if from < 0 || to >= shard.PlacementSlots || from > to {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("slot range [%d, %d] outside [0, %d]", from, to, shard.PlacementSlots-1))
		return
	}
	target := d.cluster.IndexOf(req.Target)
	if target < 0 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("target %q is not a cluster member", req.Target))
		return
	}
	if target == d.cluster.SelfIndex() {
		httpError(w, http.StatusBadRequest, "target is this member")
		return
	}
	err := d.admin(false, func() error {
		d.migrate(w, req.Target, from, to, target)
		return nil
	})
	if err != nil {
		conflict(w, "another migration, resize or snapshot is in progress")
	}
}

// migrate is handleMigrate past validation, holding the admin gate: flush,
// export, transfer, ownership flip, drop — answering w itself at every exit.
func (d *daemon) migrate(w http.ResponseWriter, targetAddr string, from, to, target int) {
	if !d.cluster.OwnsRange(from, to) {
		httpError(w, http.StatusConflict, fmt.Sprintf("this member does not own all of slots [%d, %d]", from, to))
		return
	}
	began := time.Now()
	// Barrier: ids already acknowledged into shard queues reach the
	// samplers (and therefore the export) before the range is read.
	if err := d.pool.Flush(); err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	inRange := func(id uint64) bool {
		slot := d.cluster.SlotOf(id)
		return slot >= from && slot <= to
	}
	ids, state, err := d.pool.ExportState(inRange)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	epoch := d.cluster.Epoch() + 1
	blob, err := cluster.EncodeMigration(cluster.Migration{
		Epoch:    epoch,
		FromSlot: uint32(from),
		ToSlot:   uint32(to),
		Strategy: d.pool.Strategy(),
		IDs:      ids,
		State:    state,
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if d.migrateHook != nil {
		d.migrateHook()
	}
	ackEpoch, err := d.cluster.MigrateTo(target, blob, clusterMigrateTimeout)
	if err != nil {
		d.logger.Error("migration failed", "target", targetAddr,
			"from_slot", from, "to_slot", to, "error", err)
		httpError(w, http.StatusBadGateway, fmt.Sprintf("transfer to %s: %v", targetAddr, err))
		return
	}
	// The target holds the range's state now. Flip ownership before
	// dropping anything: epochs are allocated without fleet-wide
	// coordination (each source proposes Epoch()+1 under its own opMu), so
	// a concurrent migration elsewhere can have installed this epoch first.
	// When that race is lost, keep our copy — the target's duplicate is
	// merely over-remembered, which is safe — and surface the conflict
	// instead of silently reporting success against a routing table that
	// never flipped.
	if !d.cluster.ApplyPlacement(ackEpoch, from, to, target) {
		cur := d.cluster.Epoch()
		d.logger.Error("migration epoch conflict", "target", targetAddr,
			"from_slot", from, "to_slot", to, "epoch", ackEpoch, "current_epoch", cur)
		httpError(w, http.StatusConflict, fmt.Sprintf(
			"placement epoch %d was superseded by a concurrent migration (current epoch %d); nothing dropped, state duplicated on %s — retry",
			ackEpoch, cur, targetAddr))
		return
	}
	d.cluster.BroadcastPlacement(ackEpoch, from, to, target)
	// Drop exactly the exported Γ ids, not the whole slot range: ingest
	// continued throughout the transfer, and in-range ids that arrived
	// after the export were never sent to the target — they stay here,
	// transiently misplaced but still sampled (cluster sampling weights
	// members by realised |Γ|), rather than vanishing from the cluster-wide
	// Γ. The frequency sketches stay merged on both sides —
	// over-remembering an attacker is safe, forgetting is not.
	exported := make(map[uint64]struct{}, len(ids))
	for _, id := range ids {
		exported[id] = struct{}{}
	}
	dropped, err := d.pool.DropMemory(func(id uint64) bool {
		_, ok := exported[id]
		return ok
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	d.cluster.NoteMigration(false)
	d.logger.Info("migration complete", "target", targetAddr,
		"from_slot", from, "to_slot", to, "moved_ids", len(ids),
		"dropped", dropped, "epoch", ackEpoch, "duration", time.Since(began))
	writeJSON(w, map[string]any{
		"target":    targetAddr,
		"from_slot": from,
		"to_slot":   to,
		"moved_ids": len(ids),
		"epoch":     ackEpoch,
	})
}

// importMigration is the target side of a hand-off: merge the range's
// frequency state and Γ ids into the local pool, then take ownership. A
// proposal whose epoch is not newer than the current table is rejected —
// acking it would let the source drop ids behind a routing flip that the
// fleet will never install (sources allocate epochs uncoordinated, so two
// concurrent migrations can propose the same one).
func (d *daemon) importMigration(m cluster.Migration) (uint64, error) {
	if d.cluster == nil {
		return 0, errors.New("daemon is not clustered")
	}
	if m.Strategy != d.pool.Strategy() {
		return 0, fmt.Errorf("migration carries strategy %q, this member runs %q", m.Strategy, d.pool.Strategy())
	}
	if cur := d.cluster.Epoch(); m.Epoch <= cur {
		return 0, fmt.Errorf("migration epoch %d is stale (placement epoch is already %d) — concurrent migration won the race, retry", m.Epoch, cur)
	}
	if err := d.pool.ImportState(m.IDs, m.State); err != nil {
		return 0, err
	}
	if !d.cluster.ApplyPlacement(m.Epoch, int(m.FromSlot), int(m.ToSlot), d.cluster.SelfIndex()) {
		// A concurrent placement bump landed between the staleness check
		// and the install. The imported ids stay in our Γ (misplaced,
		// never lost); erroring out keeps the source from dropping its
		// copy or flipping ownership under a dead epoch.
		return 0, fmt.Errorf("placement epoch %d was superseded during import (now %d) — imported state retained, source must retry", m.Epoch, d.cluster.Epoch())
	}
	d.cluster.NoteMigration(true)
	d.logger.Info("migration imported", "from_slot", m.FromSlot, "to_slot", m.ToSlot,
		"ids", len(m.IDs), "epoch", m.Epoch)
	return m.Epoch, nil
}

// collectCluster exports the cluster plane's metric families: epoch,
// membership health, per-member forwarding accounting and the sample
// plane's counters. Registered only when -cluster is on.
func (d *daemon) collectCluster() []telemetry.Family {
	st := d.cluster.Stats()
	fams := []telemetry.Family{
		telemetry.G("unsd_cluster_members",
			"Configured cluster member count.",
			float64(len(st.Members))),
		telemetry.G("unsd_cluster_epoch",
			"Current cluster placement epoch (bumped by each migration).",
			float64(st.Epoch)),
		telemetry.C("unsd_cluster_stale_forwards_total",
			"Forward batches that arrived tagged with an older placement epoch (ingested locally).",
			float64(st.StaleForwards)),
		telemetry.C("unsd_cluster_migrations_in_total",
			"Slot-range migrations imported by this member.",
			float64(st.MigrationsIn)),
		telemetry.C("unsd_cluster_migrations_out_total",
			"Slot-range migrations exported by this member.",
			float64(st.MigrationsOut)),
		telemetry.C("unsd_cluster_sample_fanouts_total",
			"Cluster-wide sample requests answered by this member.",
			float64(d.clusterFanouts.Load())),
		telemetry.C("unsd_cluster_sample_member_misses_total",
			"Members left out of a sample round because they were down or timed out.",
			float64(d.clusterFanoutMissing.Load())),
	}
	// One sample per member, valued in the order of the loop below; self
	// has the first two only.
	perMember := []telemetry.Family{
		{Name: "unsd_cluster_member_connected", Type: telemetry.Gauge,
			Help: "Whether the persistent connection to each member is up (self is always 1)."},
		{Name: "unsd_cluster_member_slots", Type: telemetry.Gauge,
			Help: "Hash-space slots owned by each member under the current placement."},
		{Name: "unsd_cluster_forwarded_ids_total", Type: telemetry.Counter,
			Help: "Ids forwarded to each member over the cluster plane."},
		{Name: "unsd_cluster_fallback_ids_total", Type: telemetry.Counter,
			Help: "Ids ingested locally because their owner member was unreachable or its queue full."},
		{Name: "unsd_cluster_sample_rpcs_total", Type: telemetry.Counter,
			Help: "Sample exchanges attempted with each member, one per refill of its draw reservoir (over unsd_cluster_sample_fanouts_total: exchanges per Sample)."},
		{Name: "unsd_cluster_sample_draws_discarded_total", Type: telemetry.Counter,
			Help: "Draws fetched from each member and never served: aged out of its reservoir, or dropped with the connection they arrived on."},
	}
	for _, m := range st.Members {
		label := []telemetry.Label{{Name: "member", Value: m.Addr}}
		values := []float64{telemetry.B(m.Connected), float64(m.Slots), float64(m.ForwardedIDs),
			float64(m.FallbackIDs), float64(m.SampleRPCs), float64(m.DrawsDiscarded)}
		if m.Self {
			values = values[:2]
		}
		for i, v := range values {
			perMember[i].Samples = append(perMember[i].Samples, telemetry.Sample{Labels: label, Value: v})
		}
	}
	return append(fams, perMember...)
}
