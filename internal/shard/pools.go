package shard

import (
	"sync"
	"sync/atomic"
)

// The ingest hot path recycles every buffer it needs through sync.Pools, so
// a steady-state PushBatch performs zero heap allocations: the partitioned
// id payload with its σ′ draw buffer, and the partition scratch (shard tags
// and counting-sort cursors) come from and return to these pools. The
// payload is the delicate one — its sub-slices are aliased by up to one
// in-flight ring item per shard — so it carries a reference count and only
// re-enters the pool once every shard has consumed (or dropped) its share
// and, for a batch that draws, once the emitter has published its draws.

// payload is one PushBatch's partitioned id storage. refs is the number of
// outstanding sub-batches aliasing buf; it is set once, before any
// sub-batch is sent (a fast shard could otherwise process and release its
// share — hitting zero — while later sends are still being enqueued).
//
// A batch pushed while a subscription is live also draws its σ′ in place:
// draws mirrors buf's layout, and parts[k] is part k's window of it (zero
// length, capacity the part's id count), which only part k's worker
// appends to. Both are empty for a batch that does not draw.
type payload struct {
	buf   []uint64
	draws []uint64
	parts [][]uint64
	refs  atomic.Int32
}

var payloadPool = sync.Pool{New: func() any { return new(payload) }}

// getPayload returns a payload with buf sized to exactly n ids, and with a
// draw buffer of n when the batch draws σ′.
func getPayload(n int, draw bool) *payload {
	pl := payloadPool.Get().(*payload)
	pl.buf = resize(pl.buf, n)
	pl.draws = pl.draws[:0]
	if draw {
		pl.draws = resize(pl.draws, n)
	}
	return pl
}

// resize returns b with length n, reusing its capacity when it suffices.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// settle runs once the last part has released pl: it closes the gaps a part
// that drew short (or was dropped) left between the windows and returns
// how many draws the batch holds, in shard order at the front of draws.
// When every id drew once each copy has the same source and destination,
// which copy skips.
func (pl *payload) settle() int {
	n := 0
	for _, d := range pl.parts {
		n += copy(pl.draws[n:], d)
	}
	pl.draws = pl.draws[:n]
	return n
}

// partScratch is PushBatch's partition workspace: one shard tag per id and
// the counting-sort cursor/start table. Unlike the payload it is never
// aliased by ring items, so it goes back to the pool as soon as the sends
// are enqueued.
type partScratch struct {
	shards []uint8
	counts []int
}

var scratchPool = sync.Pool{New: func() any { return new(partScratch) }}

// grow sizes the scratch for nids ids across n shards and returns the two
// working slices, with the cursor table zeroed (the counting sort relies on
// starting from zero, a property fresh allocations used to provide for
// free).
func (sc *partScratch) grow(nids, n int) ([]uint8, []int) {
	sc.shards = resize(sc.shards, nids)
	sc.counts = resize(sc.counts, 2*n)
	clear(sc.counts)
	return sc.shards, sc.counts
}
