package shard

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nodesampling/internal/core"
	"nodesampling/internal/cursor"
	"nodesampling/internal/rng"
)

// Snapshot blob layout, version 2 (all integers big-endian):
//
//	magic "UNSS" | version (uint32)
//	strategyLen (uint32) | strategy name (UTF-8)
//	salt | epoch | decayTotal | retiredProcessed | retiredDropped (uint64 each)
//	capacity (uint32) | shards (uint32)
//	shards × shard records:
//	    key | halvings | processed | dropped   (uint64 each)
//	    gammaLen (uint32) | gammaLen × id (uint64)
//	    stateLen (uint32) | sampler state (core.PoolSampler.MarshalState)
//
// Version 1 blobs (written before the strategy layer) lack the strategy
// field and are read as the default knowledge-free strategy; their shard
// records carry raw cms.Sketch bytes, which is exactly what the
// knowledge-free MarshalState emits, so v1 bodies parse unchanged.
//
// The blob is self-contained: it carries the strategy name, the shard map
// (keys + epoch), the private partition salt, every shard's Γ and
// serialised sampler state, and the global decay clock, so Restore rebuilds
// the exact partition — every id keeps routing to the shard whose sampler
// counted it, and frequency estimates resume bit-identical. The salt is a
// secret (it hides the partition from adversaries), so treat snapshot files
// like key material.
const (
	snapshotMagic   = "UNSS"
	snapshotVersion = 2
	// maxStrategyLen bounds the strategy-name field so a corrupt blob
	// cannot demand an absurd allocation.
	maxStrategyLen = 64
)

// Snapshot serialises the pool — strategy name, shard map, per-shard
// sampler state and Γ, decay epoch and aggregate counters — into one
// versioned blob for Restore. Each shard is captured under its own lock, so
// a snapshot taken during live ingest is internally consistent per shard
// but may split a cross-shard batch; quiesce with Flush first when an exact
// cut matters. Snapshot works on a closed pool too (a daemon's final
// snapshot).
func (p *Pool) Snapshot() ([]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	m := p.smap.Load()
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, snapshotMagic...)
	buf = binary.BigEndian.AppendUint32(buf, snapshotVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.strategy)))
	buf = append(buf, p.strategy...)
	buf = binary.BigEndian.AppendUint64(buf, p.salt)
	buf = binary.BigEndian.AppendUint64(buf, m.epoch)
	buf = binary.BigEndian.AppendUint64(buf, p.decayTotal.Load())
	buf = binary.BigEndian.AppendUint64(buf, p.retiredProcessed.Load())
	buf = binary.BigEndian.AppendUint64(buf, p.retiredDropped.Load())
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.cfg.Capacity))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.workers)))
	for i, w := range p.workers {
		w.mu.Lock()
		mem := w.sampler.Memory()
		state, err := w.sampler.MarshalState()
		// Counters are captured under the same lock as the state: halvings
		// in particular must describe exactly this sampler state, or a decay
		// epoch crossed between the two reads would be skipped after
		// Restore, leaving the shard's estimates ~2× its peers forever.
		halvings := w.halvings.Load()
		processed := w.processed.Load()
		dropped := w.dropped.Load()
		w.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("shard %d: marshal sampler state: %w", i, err)
		}
		buf = binary.BigEndian.AppendUint64(buf, m.keys[i])
		buf = binary.BigEndian.AppendUint64(buf, halvings)
		buf = binary.BigEndian.AppendUint64(buf, processed)
		buf = binary.BigEndian.AppendUint64(buf, dropped)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(mem)))
		for _, id := range mem {
			buf = binary.BigEndian.AppendUint64(buf, id)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(state)))
		buf = append(buf, state...)
	}
	return buf, nil
}

// Restore rebuilds a live pool from a Snapshot blob. The snapshot governs
// the shard count, memory capacity, shard map and sampler state (cfg.Shards
// and cfg.Capacity are ignored); cfg supplies everything a snapshot does
// not persist — queueing, backpressure, decay period, per-sampler options
// (inside cfg.Sampler) and fresh randomness.
//
// The strategy recorded in the blob must match the configured factory's
// name, and must be one core.NewFactory accepts: a blob tagged with the
// retired "basalt" strategy is refused by name, with or without a factory.
// A pre-v2 blob implies the default knowledge-free strategy. When the config
// names no strategy at all (no Sampler factory), the snapshot governs the
// strategy too. When a factory is configured it also validates that the
// configured state shape matches the snapshot, so a daemon restarted with
// different flags fails loudly instead of serving surprising estimates.
func Restore(cfg Config, data []byte) (*Pool, error) {
	if err := cfg.validateCommon(); err != nil {
		return nil, err
	}
	r := cursor.New("shard: snapshot", data)
	magic, version := r.Bytes(4), r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if string(magic) != snapshotMagic {
		if SnapshotSealed(data) {
			// The caller was handed an encrypted envelope (seal.go) and must
			// open it first; silently parsing ciphertext would be worse than
			// any error message.
			return nil, errors.New("shard: snapshot is sealed (UNSE envelope); open it with the snapshot key first")
		}
		return nil, errors.New("shard: bad magic, not a pool snapshot")
	}
	strategy := core.DefaultStrategy
	switch version {
	case 1:
		// Pre-strategy blob: implies the default strategy, no tag to read.
	case 2:
		strategyLen := r.U32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if strategyLen == 0 || strategyLen > maxStrategyLen {
			return nil, fmt.Errorf("shard: snapshot strategy name length %d outside [1, %d]", strategyLen, maxStrategyLen)
		}
		strategy = string(r.Bytes(int(strategyLen)))
	default:
		return nil, fmt.Errorf("shard: unsupported snapshot version %d", version)
	}
	factory, configured := cfg.Sampler, cfg.Sampler.New != nil
	if configured && factory.Name != strategy {
		return nil, fmt.Errorf("shard: snapshot was written by strategy %q, but the pool is configured for strategy %q",
			strategy, factory.Name)
	}
	var err error
	if !configured {
		// The snapshot governs the strategy, and the marshalled state
		// carries its own shape: no parameters to bind.
		if factory, err = core.NewFactory(strategy, core.StrategyParams{}); err != nil {
			return nil, fmt.Errorf("shard: snapshot strategy: %w", err)
		}
	}
	salt, epoch, decayTotal, retProcessed, retDropped := r.U64(), r.U64(), r.U64(), r.U64(), r.U64()
	capacity, shards := int(r.U32()), int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Sanity bounds before any capacity- or length-derived allocation: a
	// corrupt (or hostile) blob must fail with a clean error, not an OOM —
	// the same discipline as the wire decoders.
	const maxSnapshotCapacity = 1 << 20
	if capacity < 1 || capacity > maxSnapshotCapacity {
		return nil, fmt.Errorf("shard: snapshot memory capacity %d outside [1, %d]", capacity, maxSnapshotCapacity)
	}
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("shard: snapshot shard count %d outside [1, %d]", shards, MaxShards)
	}

	root := rng.New(cfg.Seed)
	var template core.PoolSampler
	if configured {
		if template, err = factory.New(capacity, root.Split()); err != nil {
			return nil, fmt.Errorf("shard: sampler template: %w", err)
		}
	}

	keys := make([]uint64, shards)
	workers := make([]*worker, shards)
	var family core.PoolSampler
	for i := 0; i < shards; i++ {
		keys[i] = r.U64()
		counters := [3]uint64{r.U64(), r.U64(), r.U64()}
		gammaLen := r.U32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if int(gammaLen) > capacity {
			return nil, fmt.Errorf("shard %d: snapshot Γ of %d exceeds capacity %d", i, gammaLen, capacity)
		}
		mem := r.U64s(int(gammaLen))
		state := r.Bytes(int(r.U32()))
		if err := r.Err(); err != nil {
			return nil, err
		}
		sampler, err := factory.Restore(capacity, state, root.Split())
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if family == nil {
			family = sampler
			if template != nil && template.StateDesc() != sampler.StateDesc() {
				return nil, fmt.Errorf("shard: configured sampler state %q does not match snapshot %q",
					template.StateDesc(), sampler.StateDesc())
			}
		} else if !family.SharesFamily(sampler) {
			// Mixed families would make every later Resize merge garbage.
			return nil, fmt.Errorf("shard %d: snapshot sampler family differs from shard 0", i)
		}
		if err := sampler.RestoreMemory(mem); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		w := newWorker(sampler, cfg.Buffer)
		w.halvings.Store(counters[0])
		w.processed.Store(counters[1])
		w.dropped.Store(counters[2])
		workers[i] = w
	}
	if err := r.End(); err != nil {
		return nil, err
	}

	cfg.Shards = shards // sizes the default emit buffer
	cfg.Capacity = capacity
	p := newPoolShell(cfg, root)
	p.strategy = factory.Name
	p.salt = salt
	p.workers = workers
	p.smap.Store(NewPlacement(epoch, keys))
	p.decayTotal.Store(decayTotal)
	p.retiredProcessed.Store(retProcessed)
	p.retiredDropped.Store(retDropped)
	p.start()
	return p, nil
}
