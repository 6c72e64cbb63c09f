package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nodesampling/internal/cursor"
	"nodesampling/internal/rng"
)

// BasaltSampler is a BASALT-style pseudo-random ranking sampler: each of the
// c memory slots carries a seeded ranking function rank_i(id) = h(seed_i, id)
// and retains the observed id that minimises it, together with a hit counter
// for the resident. Because the seeds are drawn independently of the stream,
// an adversary flooding the stream with its own ids gains no advantage per
// arrival — only the hash values of the ids it controls matter — which makes
// the slot contents a uniform-ish draw over the *distinct* observed ids.
//
// The decay analogue is a slot-seed refresh: each Decay call re-seeds one
// slot round-robin, so over time every slot forgets its frozen minimum and
// re-opens the competition to newly observed ids. Unlike the knowledge-free
// strategy there is no frequency sketch at all, which makes this backend the
// interface's sketch-free stress test.
type BasaltSampler struct {
	slots      []basaltSlot
	familySeed uint64 // shared by all clones; defines the ranking family
	epoch      uint64 // decay steps applied; slot seeds derive from it
	filled     int    // occupied slots
	r          *rng.Xoshiro
	halveEvery uint64 // standalone decay period (pool decay is external)
	processed  uint64
	stats      Stats
}

type basaltSlot struct {
	seed     uint64
	id       uint64
	rank     uint64
	hits     uint64
	occupied bool
}

var _ PoolSampler = (*BasaltSampler)(nil)

// basaltSlotSeed derives slot i's ranking seed after `refreshes` decay
// refreshes, deterministically from the family seed. Determinism here is
// what lets CloneEmpty/MergeState align clones and snapshots reconstruct
// seeds without persisting them.
func basaltSlotSeed(family uint64, slot int, refreshes uint64) uint64 {
	return rng.Mix64(family ^ rng.Mix64(uint64(slot)+1) ^ rng.Mix64(refreshes*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d))
}

// basaltRefreshes returns how many times slot i has been re-seeded after
// `epoch` round-robin decay steps over c slots (step e refreshes slot
// (e-1) mod c).
func basaltRefreshes(epoch uint64, slot, c int) uint64 {
	full := epoch / uint64(c)
	if uint64(slot) < epoch%uint64(c) {
		return full + 1
	}
	return full
}

// NewBasalt builds a BASALT-style sampler with c slots. The ranking family
// seed is drawn from r, so samplers built from independent rngs rank ids
// independently. WithPeriodicHalving sets the standalone decay period (one
// slot-seed refresh every `every` ids); eviction and conservative-update
// options do not apply to this strategy and are ignored.
func NewBasalt(c int, r *rng.Xoshiro, opts ...Option) (*BasaltSampler, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: memory size must be >= 1, got %d", c)
	}
	if r == nil {
		return nil, errors.New("core: rng must not be nil")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	b := &BasaltSampler{
		slots:      make([]basaltSlot, c),
		familySeed: r.Uint64(),
		r:          r,
		halveEvery: cfg.halveEvery,
	}
	b.initSeeds()
	return b, nil
}

// initSeeds recomputes every slot seed (and resident rank) from the family
// seed and the current epoch.
func (b *BasaltSampler) initSeeds() {
	c := len(b.slots)
	for i := range b.slots {
		s := &b.slots[i]
		s.seed = basaltSlotSeed(b.familySeed, i, basaltRefreshes(b.epoch, i, c))
		if s.occupied {
			s.rank = rng.Mix64(s.seed ^ s.id)
		}
	}
}

// Process observes one id and returns the sampler's current output sample
// (uniform over the occupied slots).
func (b *BasaltSampler) Process(id uint64) uint64 {
	b.processOne(id)
	out, _ := b.Sample()
	return out
}

func (b *BasaltSampler) processOne(id uint64) {
	b.stats.Processed++
	b.processed++
	won, resident := false, false
	for i := range b.slots {
		s := &b.slots[i]
		switch {
		case !s.occupied:
			s.id, s.rank, s.hits, s.occupied = id, rng.Mix64(s.seed^id), 1, true
			b.filled++
			won = true
		case s.id == id:
			s.hits++
			resident = true
		default:
			if rk := rng.Mix64(s.seed ^ id); rk < s.rank {
				s.id, s.rank, s.hits = id, rk, 1
				b.stats.Evicted++
				won = true
			}
		}
	}
	if won {
		b.stats.Admitted++
	} else if resident {
		b.stats.Duplicates++
	}
	if b.halveEvery > 0 && b.processed%b.halveEvery == 0 {
		b.Decay()
	}
}

// ProcessBatch consumes ids without collecting the emitted samples.
func (b *BasaltSampler) ProcessBatch(ids []uint64) {
	for _, id := range ids {
		b.processOne(id)
	}
}

// ProcessBatchEmit consumes ids and appends one emitted sample per id.
func (b *BasaltSampler) ProcessBatchEmit(ids []uint64, out []uint64) []uint64 {
	for _, id := range ids {
		b.processOne(id)
		if s, ok := b.Sample(); ok {
			out = append(out, s)
		}
	}
	return out
}

// Sample draws uniformly over the occupied slots. Slots holding the same
// resident are counted with multiplicity, matching BASALT's view sampling.
func (b *BasaltSampler) Sample() (uint64, bool) {
	if b.filled == 0 {
		return 0, false
	}
	if b.filled == len(b.slots) {
		return b.slots[b.r.Intn(len(b.slots))].id, true
	}
	j := b.r.Intn(b.filled)
	for i := range b.slots {
		if !b.slots[i].occupied {
			continue
		}
		if j == 0 {
			return b.slots[i].id, true
		}
		j--
	}
	return 0, false
}

// SampleN appends up to n independent draws to out.
func (b *BasaltSampler) SampleN(n int, out []uint64) []uint64 {
	for i := 0; i < n; i++ {
		id, ok := b.Sample()
		if !ok {
			break
		}
		out = append(out, id)
	}
	return out
}

// Memory returns the distinct resident ids.
func (b *BasaltSampler) Memory() []uint64 {
	seen := make(map[uint64]struct{}, len(b.slots))
	out := make([]uint64, 0, len(b.slots))
	for i := range b.slots {
		s := &b.slots[i]
		if !s.occupied {
			continue
		}
		if _, dup := seen[s.id]; dup {
			continue
		}
		seen[s.id] = struct{}{}
		out = append(out, s.id)
	}
	return out
}

// MemorySize reports the number of occupied slots.
func (b *BasaltSampler) MemorySize() int { return b.filled }

// MemoryCap reports the slot count c.
func (b *BasaltSampler) MemoryCap() int { return len(b.slots) }

// RestoreMemory re-populates the slots from a snapshot's distinct resident
// set: each slot takes the rank-minimal id of the set under its current
// seed. Because every slot's previous resident was rank-minimal over all
// observed ids — a superset relation the snapshot preserves by storing every
// resident — the reconstruction is exact. Hit counters cannot be carried
// through the id list and restart at 1 (the snapshot layer restores them via
// MarshalState instead).
func (b *BasaltSampler) RestoreMemory(ids []uint64) error {
	distinct := make([]uint64, 0, len(ids))
	seen := make(map[uint64]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		distinct = append(distinct, id)
	}
	if len(distinct) > len(b.slots) {
		return fmt.Errorf("core: %d ids exceed memory size %d", len(distinct), len(b.slots))
	}
	prevHits := make(map[uint64]uint64, len(b.slots))
	for i := range b.slots {
		if s := &b.slots[i]; s.occupied && s.hits > prevHits[s.id] {
			prevHits[s.id] = s.hits
		}
	}
	b.filled = 0
	for i := range b.slots {
		s := &b.slots[i]
		s.occupied = false
		s.id, s.rank, s.hits = 0, 0, 0
		for _, id := range distinct {
			rk := rng.Mix64(s.seed ^ id)
			if !s.occupied || rk < s.rank {
				s.id, s.rank, s.occupied = id, rk, true
			}
		}
		if s.occupied {
			b.filled++
			s.hits = 1
			if h, ok := prevHits[s.id]; ok {
				s.hits = h
			}
		}
	}
	return nil
}

// Estimate reports the sampler's frequency knowledge for id: the largest
// hit counter among slots where id is resident, 0 if it is not resident.
func (b *BasaltSampler) Estimate(id uint64) uint64 {
	var best uint64
	for i := range b.slots {
		if s := &b.slots[i]; s.occupied && s.id == id && s.hits > best {
			best = s.hits
		}
	}
	return best
}

// Decay re-seeds one slot round-robin. The resident keeps its place but its
// rank is recomputed under the new seed, so the next arrival with a smaller
// rank takes the slot — the forgetting mechanism that plays the role of the
// knowledge-free strategy's sketch halving.
func (b *BasaltSampler) Decay() {
	c := len(b.slots)
	b.epoch++
	i := int((b.epoch - 1) % uint64(c))
	s := &b.slots[i]
	s.seed = basaltSlotSeed(b.familySeed, i, basaltRefreshes(b.epoch, i, c))
	if s.occupied {
		s.rank = rng.Mix64(s.seed ^ s.id)
	}
}

// Stats returns processing counters.
func (b *BasaltSampler) Stats() Stats { return b.stats }

// CloneEmpty derives an empty sampler in the same ranking family at the same
// decay epoch, driven by r. Clones are state-mergeable with the original.
func (b *BasaltSampler) CloneEmpty(r *rng.Xoshiro) (PoolSampler, error) {
	if r == nil {
		return nil, errors.New("core: rng must not be nil")
	}
	nb := &BasaltSampler{
		slots:      make([]basaltSlot, len(b.slots)),
		familySeed: b.familySeed,
		epoch:      b.epoch,
		r:          r,
		halveEvery: b.halveEvery,
	}
	nb.initSeeds()
	return nb, nil
}

// MergeState folds other's slot residents into this sampler: per slot, the
// rank-minimal resident wins; equal residents sum their hit counters. Both
// samplers must share the ranking family and decay epoch (the pool's resize
// path aligns epochs before merging).
func (b *BasaltSampler) MergeState(other PoolSampler) error {
	o, ok := other.(*BasaltSampler)
	if !ok {
		return fmt.Errorf("core: cannot merge %s state into basalt", other.StrategyName())
	}
	if o.familySeed != b.familySeed {
		return errors.New("core: basalt samplers use different ranking families")
	}
	if len(o.slots) != len(b.slots) {
		return fmt.Errorf("core: basalt slot counts differ (%d vs %d)", len(b.slots), len(o.slots))
	}
	if o.epoch != b.epoch {
		return fmt.Errorf("core: basalt decay epochs differ (%d vs %d)", b.epoch, o.epoch)
	}
	for i := range b.slots {
		s, os := &b.slots[i], &o.slots[i]
		if !os.occupied {
			continue
		}
		switch {
		case !s.occupied:
			*s = *os
			b.filled++
		case s.id == os.id:
			s.hits += os.hits
		case os.rank < s.rank:
			s.id, s.rank, s.hits = os.id, os.rank, os.hits
		}
	}
	return nil
}

// basaltStateVersion versions the MarshalState encoding.
const basaltStateVersion = 1

// MarshalState serialises the ranking family, decay epoch, and slot
// contents. Slot seeds and ranks are not persisted — they re-derive from
// the family seed and epoch.
func (b *BasaltSampler) MarshalState() ([]byte, error) {
	buf := make([]byte, 0, 4+8+8+4+len(b.slots)*17)
	buf = binary.BigEndian.AppendUint32(buf, basaltStateVersion)
	buf = binary.BigEndian.AppendUint64(buf, b.familySeed)
	buf = binary.BigEndian.AppendUint64(buf, b.epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.slots)))
	for i := range b.slots {
		s := &b.slots[i]
		if s.occupied {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.BigEndian.AppendUint64(buf, s.id)
		buf = binary.BigEndian.AppendUint64(buf, s.hits)
	}
	return buf, nil
}

// RestoreBasalt rebuilds a sampler from MarshalState bytes. The slot count
// in the blob must match the configured capacity c.
func RestoreBasalt(c int, state []byte, r *rng.Xoshiro, opts ...Option) (*BasaltSampler, error) {
	if r == nil {
		return nil, errors.New("core: rng must not be nil")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	st := cursor.New("core: basalt state", state)
	version, family, epoch, slots := st.U32(), st.U64(), st.U64(), int(st.U32())
	if err := st.Err(); err != nil {
		return nil, err
	}
	if version != basaltStateVersion {
		return nil, fmt.Errorf("core: unsupported basalt state version %d", version)
	}
	if slots != c {
		return nil, fmt.Errorf("core: basalt state has %d slots, configured capacity is %d", slots, c)
	}
	if st.Len() != slots*17 {
		return nil, fmt.Errorf("core: basalt state length %d does not match %d slots", len(state), slots)
	}
	b := &BasaltSampler{
		slots:      make([]basaltSlot, slots),
		familySeed: family,
		epoch:      epoch,
		r:          r,
		halveEvery: cfg.halveEvery,
	}
	for i := range b.slots {
		s := &b.slots[i]
		switch occupied := st.U8(); occupied {
		case 0:
		case 1:
			s.occupied = true
			b.filled++
		default:
			return nil, fmt.Errorf("core: basalt state slot %d has invalid occupancy byte %d", i, occupied)
		}
		s.id, s.hits = st.U64(), st.U64()
	}
	if err := st.End(); err != nil {
		return nil, err
	}
	b.initSeeds()
	return b, nil
}

// StateDesc describes the slot shape for snapshot-mismatch errors.
func (b *BasaltSampler) StateDesc() string { return fmt.Sprintf("basalt %d slots", len(b.slots)) }

// SharesFamily reports whether other is a basalt sampler over the same
// ranking family and slot count.
func (b *BasaltSampler) SharesFamily(other PoolSampler) bool {
	o, ok := other.(*BasaltSampler)
	return ok && o.familySeed == b.familySeed && len(o.slots) == len(b.slots)
}

// StrategyName returns this strategy's registry name.
func (b *BasaltSampler) StrategyName() string { return "basalt" }
