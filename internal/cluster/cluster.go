// Package cluster turns N unsd daemons into one logical sampling plane.
// It is the placement abstraction of internal/shard lifted one level: the
// same salted rendezvous computation (shard.NewPlacement) that assigns
// hash-space slots to in-process shard workers here assigns them to member
// daemons, so an id's route is decided by identical arithmetic at both
// levels — first to a member, then (inside that member's pool) to a shard.
//
// Membership is a static list: every member is started with the same
// -members set and the same cluster seed, sorts the list lexicographically
// so the member indices agree everywhere, and derives the shared routing
// salt from the seed and the member set. Ingest arriving at any member is
// partitioned against the routing table; batches owned elsewhere travel to
// their owner over a persistent framed connection (FrameForward), and an
// undeliverable batch falls back to local ingest — misplaced, never lost,
// and harmless to uniformity because cluster-wide sampling weights members
// by their actual |Γ| regardless of where an id landed.
//
// The routing table is the base placement plus per-slot ownership
// overrides installed by live migrations: POST /migrate on the source
// member exports a slot range's Γ and merged frequency state, transfers it
// as one versioned blob (FrameMigrateState), and on acknowledgement the
// override — slots [from, to] now belong to the target — is installed
// under a bumped placement epoch and broadcast to every member
// (FramePlacementUpdate).
//
// The package deliberately knows nothing about samplers: state blobs are
// opaque bytes produced and consumed by the pool's Export/Import surface.
package cluster

import (
	"crypto/tls"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nodesampling/internal/rng"
	"nodesampling/internal/shard"
)

// MaxMembers bounds the member count: the routing table stores member
// indices as bytes, like the pool's shard map.
const MaxMembers = 256

// Config parameterises a Cluster.
type Config struct {
	// Members lists every member's framed stream address, including this
	// process's own. All members must be started with an identical set
	// (order-insensitive: the list is sorted internally) — and, because
	// migrated frequency state must merge into the receiving pool, with
	// the same -seed and sampler flags.
	Members []string
	// Self is this member's own stream address, as it appears in Members.
	Self string
	// Seed drives the shared routing salt. Every member must use the same
	// value or ids route differently on different members.
	Seed uint64
	// TLS, when non-nil, is the client-side config used to dial other
	// members' stream listeners (RootCAs verifying their certificates,
	// plus a client certificate under mutual TLS).
	TLS *tls.Config
	// Fallback receives batches that could not reach their owner (queue
	// overflow, member down): the caller ingests them locally so no id is
	// ever lost to the cluster layer. Required.
	Fallback func(ids []uint64)
	// Logger receives connection lifecycle events; nil discards them.
	Logger *slog.Logger
	// ForwardQueue is each member connection's forward queue capacity in
	// batches; 0 means 256.
	ForwardQueue int
	// DialTimeout bounds each dial attempt (0 = 5s); WriteTimeout bounds
	// each frame write (0 = 10s).
	DialTimeout  time.Duration
	WriteTimeout time.Duration
}

// Table is one immutable epoch of cluster routing: the per-slot owner
// member index. It starts as the materialised base placement and evolves
// by whole-slot-range overrides installed by migrations.
type Table struct {
	epoch uint64
	owner []uint8
}

// Epoch returns the table's placement epoch.
func (t *Table) Epoch() uint64 { return t.epoch }

// SlotOwner returns the member index owning one slot.
func (t *Table) SlotOwner(slot int) int { return int(t.owner[slot]) }

// Cluster is one member's view of the fleet: the shared routing table, a
// persistent connection per remote member, and the forwarding/sampling/
// migration machinery over them. All methods are safe for concurrent use.
type Cluster struct {
	members  []string // sorted; indices are the cluster-wide member ids
	self     int
	salt     uint64
	fallback func([]uint64)
	logger   *slog.Logger

	tmu   sync.Mutex // serialises table writers (migrations are rare)
	table atomic.Pointer[Table]

	conns []*memberConn // index-aligned with members; conns[self] is nil

	staleForwards atomic.Uint64
	migrationsIn  atomic.Uint64
	migrationsOut atomic.Uint64

	closeOnce sync.Once
	closing   chan struct{}
	wg        sync.WaitGroup

	now func() time.Time // the reservoirs' clock: time.Now outside tests
}

// New validates cfg and builds the cluster view: sorted membership, the
// derived routing salt, the base placement table and one (not yet dialled)
// connection per remote member. Call Start to begin dialling.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Members) < 1 || len(cfg.Members) > MaxMembers {
		return nil, fmt.Errorf("cluster: member count must be in [1, %d], got %d", MaxMembers, len(cfg.Members))
	}
	if cfg.Fallback == nil {
		return nil, fmt.Errorf("cluster: no fallback ingest sink configured")
	}
	members := append([]string(nil), cfg.Members...)
	sort.Strings(members)
	for i := 1; i < len(members); i++ {
		if members[i] == members[i-1] {
			return nil, fmt.Errorf("cluster: duplicate member %s", members[i])
		}
	}
	self := -1
	for i, m := range members {
		if m == cfg.Self {
			self = i
			break
		}
	}
	if self < 0 {
		return nil, fmt.Errorf("cluster: self address %q not in member list %v", cfg.Self, members)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	queue := cfg.ForwardQueue
	if queue <= 0 {
		queue = 256
	}
	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	writeTimeout := cfg.WriteTimeout
	if writeTimeout <= 0 {
		writeTimeout = 10 * time.Second
	}

	keys := make([]uint64, len(members))
	for i, m := range members {
		keys[i] = memberKey(m)
	}
	base := shard.NewPlacement(0, keys)
	owner := make([]uint8, shard.PlacementSlots)
	for slot := range owner {
		owner[slot] = uint8(base.SlotOwner(slot))
	}

	c := &Cluster{
		members:  members,
		self:     self,
		salt:     deriveSalt(cfg.Seed, members),
		fallback: cfg.Fallback,
		logger:   logger,
		closing:  make(chan struct{}),
		now:      time.Now,
	}
	c.table.Store(&Table{epoch: 0, owner: owner})
	c.conns = make([]*memberConn, len(members))
	for i, m := range members {
		if i == self {
			continue
		}
		c.conns[i] = newMemberConn(c, i, m, cfg.TLS, queue, dialTimeout, writeTimeout)
	}
	return c, nil
}

// memberKey derives a member's rendezvous key from its address — stable
// across processes, so every member computes the same base placement.
func memberKey(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return rng.Mix64(h.Sum64())
}

// deriveSalt mixes the shared seed with the member set, so two clusters
// with the same seed but different membership still route differently.
func deriveSalt(seed uint64, members []string) uint64 {
	h := fnv.New64a()
	for _, m := range members {
		h.Write([]byte(m))
		h.Write([]byte{0})
	}
	return rng.Mix64(seed ^ h.Sum64())
}

// Start launches the per-member connection managers (dial, reconnect,
// forward, read). Safe to call once; a cluster used only for routing
// decisions (tests) may skip it.
func (c *Cluster) Start() {
	for _, mc := range c.conns {
		if mc == nil {
			continue
		}
		c.wg.Add(1)
		go mc.run()
	}
}

// Close tears the member connections down and waits for their goroutines.
// Queued forward batches are handed to the fallback sink, so nothing in
// flight is lost.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		close(c.closing)
		for _, mc := range c.conns {
			if mc != nil {
				mc.shutdown()
			}
		}
	})
	c.wg.Wait()
}

// Members returns the sorted member addresses; the slice is shared, do not
// modify.
func (c *Cluster) Members() []string { return c.members }

// SelfIndex returns this member's index in Members.
func (c *Cluster) SelfIndex() int { return c.self }

// IndexOf returns the member index for an address, or -1.
func (c *Cluster) IndexOf(addr string) int {
	for i, m := range c.members {
		if m == addr {
			return i
		}
	}
	return -1
}

// Epoch returns the current placement epoch.
func (c *Cluster) Epoch() uint64 { return c.table.Load().epoch }

// SlotOf returns the cluster slot id hashes to — the granularity at which
// ownership moves between members.
func (c *Cluster) SlotOf(id uint64) int {
	return shard.PlacementSlot(rng.Mix64(id ^ c.salt))
}

// OwnerOf returns the member index owning id under the current table.
func (c *Cluster) OwnerOf(id uint64) int {
	return int(c.table.Load().owner[c.SlotOf(id)])
}

// SlotOwner returns the member index owning one slot.
func (c *Cluster) SlotOwner(slot int) int { return c.table.Load().SlotOwner(slot) }

// OwnsRange reports whether this member owns every slot in [from, to].
func (c *Cluster) OwnsRange(from, to int) bool {
	t := c.table.Load()
	for slot := from; slot <= to; slot++ {
		if int(t.owner[slot]) != c.self {
			return false
		}
	}
	return true
}

// SlotCounts returns how many slots each member currently owns.
func (c *Cluster) SlotCounts() []int {
	t := c.table.Load()
	counts := make([]int, len(c.members))
	for _, o := range t.owner {
		counts[o]++
	}
	return counts
}

// ApplyPlacement installs an ownership override — slots [from, to] belong
// to member owner as of epoch — if epoch is newer than the current table's.
// Reports whether the table changed. Used by both ends of a migration and
// by members receiving the broadcast.
func (c *Cluster) ApplyPlacement(epoch uint64, from, to, owner int) bool {
	if from < 0 || to >= shard.PlacementSlots || from > to || owner < 0 || owner >= len(c.members) {
		return false
	}
	c.tmu.Lock()
	defer c.tmu.Unlock()
	cur := c.table.Load()
	if epoch <= cur.epoch {
		return false
	}
	next := &Table{epoch: epoch, owner: append([]uint8(nil), cur.owner...)}
	for slot := from; slot <= to; slot++ {
		next.owner[slot] = uint8(owner)
	}
	c.table.Store(next)
	return true
}

// Partition splits a batch by owner under the current table: ids this
// member owns come back in local, the rest grouped per owner member. The
// caller owns the returned slices (the forward path hands its slices to
// Forward, which keeps them): cuts of one fresh len(ids) allocation, each
// capped at its group's count, so nothing grows while the ids are placed
// and a later append never reaches into the neighbouring group.
func (c *Cluster) Partition(ids []uint64) (local []uint64, remote [][]uint64) {
	t := c.table.Load()
	var count [MaxMembers]int
	for _, id := range ids {
		count[t.owner[c.SlotOf(id)]]++
	}
	buf := make([]uint64, len(ids))
	remote = make([][]uint64, len(c.members))
	for o := range remote {
		remote[o], buf = buf[:0:count[o]], buf[count[o]:]
	}
	for _, id := range ids {
		o := t.owner[c.SlotOf(id)]
		remote[o] = append(remote[o], id)
	}
	local, remote[c.self] = remote[c.self], nil
	return local, remote
}

// Forward enqueues a batch for delivery to member (taking ownership of the
// slice). A full queue or closed cluster falls back to local ingest —
// misplaced, never lost.
func (c *Cluster) Forward(member int, ids []uint64) {
	if len(ids) == 0 {
		return
	}
	mc := c.conns[member]
	if mc == nil { // self: caller bug, but never lose ids
		c.fallback(ids)
		return
	}
	mc.forward(ids)
}

// NoteStaleForward counts a forward that arrived tagged with an older
// placement epoch than ours — expected transiently around a migration; the
// ids are ingested where they arrived.
func (c *Cluster) NoteStaleForward() { c.staleForwards.Add(1) }

// NoteMigration counts a completed migration on this member (in = import
// side, out = export side).
func (c *Cluster) NoteMigration(in bool) {
	if in {
		c.migrationsIn.Add(1)
	} else {
		c.migrationsOut.Add(1)
	}
}

// SampleMembers opens a cluster-wide sample round: every remote member's
// |Γ| by member index (this member's own left zero for the caller), read
// from its reservoir of draws — which costs an exchange (inline; concurrent
// rounds share it) only when that is older than 10 ms or from an earlier
// connection. Members down or timed out keep weight zero and count as misses.
func (c *Cluster) SampleMembers(timeout time.Duration) (gammas []uint64, misses int) {
	gammas = make([]uint64, len(c.members))
	for i, mc := range c.conns {
		if mc == nil {
			continue
		}
		var err error
		if _, gammas[i], err = mc.take(nil, 0, timeout); err != nil {
			misses++
		}
	}
	return gammas, misses
}

// TakeDraws appends n of a remote member's draws — each uniform over its Γ,
// at most 10 ms old, never served before and never outliving the connection
// it arrived on — to dst, after one refill exchange when the reservoir holds
// fewer. It falls short of n when the member's Γ is empty or concurrent
// rounds drained the refill; the caller's next round covers it.
func (c *Cluster) TakeDraws(member int, dst []uint64, n int, timeout time.Duration) ([]uint64, error) {
	dst, _, err := c.conns[member].take(dst, n, timeout)
	return dst, err
}

// MigrateTo transfers a migration blob to member and waits for its
// acknowledgement, returning the placement epoch the target installed.
func (c *Cluster) MigrateTo(member int, blob []byte, timeout time.Duration) (uint64, error) {
	if member < 0 || member >= len(c.members) || c.conns[member] == nil {
		return 0, fmt.Errorf("cluster: invalid migration target %d", member)
	}
	return c.conns[member].migrate(blob, timeout)
}

// BroadcastPlacement announces an ownership change to every remote member,
// best-effort: a member that is down learns the epoch from the next stale
// forward it routes (and its ingest stays correct meanwhile — only
// transiently misplaced).
func (c *Cluster) BroadcastPlacement(epoch uint64, from, to, owner int) {
	for _, mc := range c.conns {
		if mc != nil {
			mc.sendPlacement(epoch, from, to, owner)
		}
	}
}

// MemberStats is one member's health and forwarding accounting as seen
// from this process.
type MemberStats struct {
	Addr             string `json:"addr"`
	Self             bool   `json:"self"`
	Connected        bool   `json:"connected"`
	Slots            int    `json:"slots"`
	QueueDepth       int    `json:"queue_depth"`
	ForwardedBatches uint64 `json:"forwarded_batches"`
	ForwardedIDs     uint64 `json:"forwarded_ids"`
	ForwardErrors    uint64 `json:"forward_errors"`
	FallbackIDs      uint64 `json:"fallback_ids"`
	DialFailures     uint64 `json:"dial_failures"`
	SampleRPCs       uint64 `json:"sample_rpcs"`
	SampleErrors     uint64 `json:"sample_errors"`
	DrawsDiscarded   uint64 `json:"draws_discarded"`
}

// Stats is a whole-cluster health snapshot from this member's view.
type Stats struct {
	Self          string        `json:"self"`
	Epoch         uint64        `json:"epoch"`
	StaleForwards uint64        `json:"stale_forwards"`
	MigrationsIn  uint64        `json:"migrations_in"`
	MigrationsOut uint64        `json:"migrations_out"`
	Members       []MemberStats `json:"members"`
}

// Stats snapshots membership health, slot ownership and per-member
// forwarding counters.
func (c *Cluster) Stats() Stats {
	counts := c.SlotCounts()
	st := Stats{
		Self:          c.members[c.self],
		Epoch:         c.Epoch(),
		StaleForwards: c.staleForwards.Load(),
		MigrationsIn:  c.migrationsIn.Load(),
		MigrationsOut: c.migrationsOut.Load(),
		Members:       make([]MemberStats, len(c.members)),
	}
	for i, m := range c.members {
		ms := MemberStats{Addr: m, Self: i == c.self, Slots: counts[i], Connected: i == c.self}
		if mc := c.conns[i]; mc != nil {
			ms.Connected = mc.connected.Load()
			ms.QueueDepth = len(mc.q)
			ms.ForwardedBatches = mc.forwardedBatches.Load()
			ms.ForwardedIDs = mc.forwardedIDs.Load()
			ms.ForwardErrors = mc.forwardErrors.Load()
			ms.FallbackIDs = mc.fallbackIDs.Load()
			ms.DialFailures = mc.dialFailures.Load()
			ms.SampleRPCs = mc.sampleRPCs.Load()
			ms.SampleErrors = mc.sampleErrors.Load()
			ms.DrawsDiscarded = mc.drawsDiscarded.Load()
		}
		st.Members[i] = ms
	}
	return st
}
