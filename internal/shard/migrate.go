package shard

import (
	"fmt"

	"nodesampling/internal/core"
	"nodesampling/internal/rng"
)

// This file is the pool's state hand-off surface for cluster shard
// migration: exporting the Γ ids of a slot range together with the pool's
// merged frequency state, removing them after the target has acknowledged,
// and importing a remote pool's exported state on the receiving side. All
// operations work on a live pool (per-shard locks, ingest continues on
// other shards) and reach samplers only through the core.PoolSampler
// interface.

// MemoryTotal returns the pool-wide |Γ| — the sum of every shard's current
// memory size, from per-worker atomics. It is the weight a cluster-level
// Sample merge assigns this member, exactly as the pool's own Sample
// weights shards by their sizes.
func (p *Pool) MemoryTotal() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var total int64
	for _, w := range p.workers {
		total += w.memSize.Load()
	}
	return int(total)
}

// MemoryFiltered returns the Γ ids for which match returns true, across all
// shards. The slice is a copy.
func (p *Pool) MemoryFiltered(match func(id uint64) bool) []uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []uint64
	for _, w := range p.workers {
		w.mu.Lock()
		for _, id := range w.sampler.Memory() {
			if match(id) {
				out = append(out, id)
			}
		}
		w.mu.Unlock()
	}
	return out
}

// ExportState captures the hand-off material for a shard migration: the Γ
// ids for which match returns true, plus the pool's merged frequency state
// — an empty clone of shard 0's sampler with every shard's state merged in,
// marshalled. Shards share one hash family and every id is counted by
// exactly one shard, so the merge equals the single global estimator over
// the whole stream (the Resize hand-off argument); a migrated id's
// frequency estimate therefore survives on the importing side within
// estimator error. Call Flush first when the export must cover everything
// pushed before a point in time. The source pool is not modified — pair
// with DropMemory after the target acknowledges.
func (p *Pool) ExportState(match func(id uint64) bool) (ids []uint64, state []byte, err error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, nil, ErrPoolClosed
	}
	p.rmu.Lock()
	r := p.r.Split()
	p.rmu.Unlock()
	w0 := p.workers[0]
	w0.mu.Lock()
	merged, err := w0.sampler.CloneEmpty(r)
	if err == nil {
		err = merged.MergeState(w0.sampler)
	}
	w0.mu.Unlock()
	if err != nil {
		return nil, nil, fmt.Errorf("shard: export state: %w", err)
	}
	for _, w := range p.workers[1:] {
		w.mu.Lock()
		err = merged.MergeState(w.sampler)
		w.mu.Unlock()
		if err != nil {
			return nil, nil, fmt.Errorf("shard: export state: %w", err)
		}
	}
	for _, w := range p.workers {
		w.mu.Lock()
		for _, id := range w.sampler.Memory() {
			if match(id) {
				ids = append(ids, id)
			}
		}
		w.mu.Unlock()
	}
	if state, err = merged.MarshalState(); err != nil {
		return nil, nil, fmt.Errorf("shard: export state: %w", err)
	}
	return ids, state, nil
}

// DropMemory removes every Γ id for which match returns true and reports
// how many were removed. Frequency state is untouched: the sketch keeps
// what it learned (estimates are per-strategy knowledge, not membership),
// only the sampling memory gives the ids up — the source half of a
// migration, after the target has acknowledged the import.
func (p *Pool) DropMemory(match func(id uint64) bool) (int, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return 0, ErrPoolClosed
	}
	removed := 0
	for i, w := range p.workers {
		w.mu.Lock()
		mem := w.sampler.Memory()
		kept := mem[:0]
		for _, id := range mem {
			if !match(id) {
				kept = append(kept, id)
			}
		}
		var err error
		if len(kept) != len(mem) {
			removed += len(mem) - len(kept)
			err = w.sampler.RestoreMemory(kept)
			w.memSize.Store(int64(w.sampler.MemorySize()))
		}
		w.mu.Unlock()
		if err != nil {
			return removed, fmt.Errorf("shard %d: drop memory: %w", i, err)
		}
	}
	return removed, nil
}

// ImportState is the receiving half of a migration: it folds a remote
// pool's exported frequency state into every local shard (the shrink-path
// argument — the survivors inherit the retired plane's ids, so each gets
// the global estimator merged in) and re-homes the exported Γ ids onto
// their owning local shards, shedding uniformly (partial Fisher-Yates)
// where a shard would exceed its capacity.
//
// The remote state must be state-mergeable with the local samplers: same
// strategy and same hash/seed family, which in practice means the two
// daemons were started with the same -seed and sampler flags. A mismatch
// returns an error naming the requirement and imports nothing.
func (p *Pool) ImportState(ids []uint64, state []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	// The incoming sampler only lends its state to the merge below, and
	// the marshalled state carries its own shape: no parameters to bind.
	factory, err := core.NewFactory(p.strategy, core.StrategyParams{})
	if err != nil {
		return fmt.Errorf("shard: import state: %w", err)
	}
	p.rmu.Lock()
	r := p.r.Split()
	p.rmu.Unlock()
	incoming, err := factory.Restore(p.cfg.Capacity, state, r)
	if err != nil {
		return fmt.Errorf("shard: import state: %w", err)
	}
	w0 := p.workers[0]
	w0.mu.Lock()
	shares := w0.sampler.SharesFamily(incoming)
	w0.mu.Unlock()
	if !shares {
		return fmt.Errorf("shard: imported %s state is not mergeable with this pool's %s samplers: different hash/seed family — cluster members must run the same -seed and sampler flags",
			incoming.StrategyName(), p.strategy)
	}
	// Merge the frequency state into every shard before touching memories:
	// if a merge fails nothing has moved.
	for i, w := range p.workers {
		w.mu.Lock()
		err = w.sampler.MergeState(incoming)
		w.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: import state: %w", i, err)
		}
	}
	m := p.smap.Load()
	parts := make([][]uint64, len(p.workers))
	for _, id := range ids {
		s := m.Owner(rng.Mix64(id ^ p.salt))
		parts[s] = append(parts[s], id)
	}
	for i, w := range p.workers {
		if len(parts[i]) == 0 {
			continue
		}
		w.mu.Lock()
		mem := append(w.sampler.Memory(), parts[i]...)
		if len(mem) > p.cfg.Capacity {
			// Shed overflow uniformly so the survivor set is a uniform
			// subset — the Resize shed discipline.
			for j := 0; j < p.cfg.Capacity; j++ {
				k := j + r.Intn(len(mem)-j)
				mem[j], mem[k] = mem[k], mem[j]
			}
			mem = mem[:p.cfg.Capacity]
		}
		err = w.sampler.RestoreMemory(mem)
		if err == nil {
			w.memSize.Store(int64(w.sampler.MemorySize()))
		}
		w.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: import memory: %w", i, err)
		}
	}
	return nil
}
