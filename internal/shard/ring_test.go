package shard

import (
	"runtime"
	"sync"
	"testing"
)

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ want, cap int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {64, 64},
	} {
		if got := newRing(tc.want).Cap(); got != tc.cap {
			t.Errorf("newRing(%d).Cap() = %d, want %d", tc.want, got, tc.cap)
		}
	}
}

func TestRingFIFOAndFullEmpty(t *testing.T) {
	r := newRing(4)
	if _, ok := r.tryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.tryPush(ringItem{ids: []uint64{uint64(i)}}) {
			t.Fatalf("push %d into non-full ring failed", i)
		}
	}
	if r.tryPush(ringItem{ids: []uint64{99}}) {
		t.Fatal("push into full ring succeeded")
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		it, ok := r.tryPop()
		if !ok || it.ids[0] != uint64(i) {
			t.Fatalf("pop %d: got %v ok=%v, want FIFO order", i, it.ids, ok)
		}
	}
	if _, ok := r.tryPop(); ok {
		t.Fatal("pop from drained ring succeeded")
	}
	// Wrap around several laps: slots must recycle cleanly.
	for lap := 0; lap < 10; lap++ {
		for i := 0; i < 3; i++ {
			if !r.tryPush(ringItem{ids: []uint64{uint64(lap*3 + i)}}) {
				t.Fatalf("lap %d push %d failed", lap, i)
			}
		}
		for i := 0; i < 3; i++ {
			it, ok := r.tryPop()
			if !ok || it.ids[0] != uint64(lap*3+i) {
				t.Fatalf("lap %d pop %d: got %v ok=%v", lap, i, it.ids, ok)
			}
		}
	}
}

// TestRingSingleSlotProtocolFloor pins the reason the capacity floor is 2:
// a capacity-2 ring with one queued item must refuse the producer that
// would otherwise lap onto the unconsumed slot.
func TestRingSingleSlotProtocolFloor(t *testing.T) {
	r := newRing(0) // rounds to 2
	if !r.tryPush(ringItem{ids: []uint64{1}}) || !r.tryPush(ringItem{ids: []uint64{2}}) {
		t.Fatal("pushes into empty minimal ring failed")
	}
	if r.tryPush(ringItem{ids: []uint64{3}}) {
		t.Fatal("full minimal ring accepted a third item")
	}
	it, ok := r.tryPop()
	if !ok || it.ids[0] != 1 {
		t.Fatalf("got %v ok=%v, want first item", it.ids, ok)
	}
}

// TestRingMPSC hammers the ring with many producers and one consumer and
// checks that every item arrives exactly once. Run under -race this is the
// memory-ordering proof for the claim/publish and drain/recycle pairs.
func TestRingMPSC(t *testing.T) {
	const producers = 8
	const perProducer = 5000
	r := newRing(16)
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := uint64(pr)<<32 | uint64(i)
				for !r.tryPush(ringItem{ids: []uint64{id}}) {
					runtime.Gosched()
				}
			}
		}(pr)
	}
	seen := make(map[uint64]bool, producers*perProducer)
	lastPerProducer := make(map[uint64]int64)
	for n := 0; n < producers*perProducer; {
		it, ok := r.tryPop()
		if !ok {
			runtime.Gosched()
			continue
		}
		id := it.ids[0]
		if seen[id] {
			t.Fatalf("item %#x delivered twice", id)
		}
		seen[id] = true
		// Per-producer FIFO: a single producer's items arrive in push order.
		pr, seq := id>>32, int64(id&0xffffffff)
		if last, ok := lastPerProducer[pr]; ok && seq <= last {
			t.Fatalf("producer %d: seq %d arrived after %d", pr, seq, last)
		}
		lastPerProducer[pr] = seq
		n++
	}
	wg.Wait()
	if _, ok := r.tryPop(); ok {
		t.Fatal("ring not empty after all items consumed")
	}
}

// TestPooledBuffersNoAliasing floods a blocking multi-shard pool from many
// goroutines with unique, recognisably-tagged ids while a sampler reads
// concurrently. If payload recycling ever let two in-flight batches alias
// the same ids or the same shared draw buffer, a worker would observe (and
// the memory would retain) ids that were never pushed, σ′ would carry them,
// or the processed count and the draws offered would diverge. Run under
// -race this is the recycling suite's aliasing proof.
func TestPooledBuffersNoAliasing(t *testing.T) {
	p := newTestPool(t, 4, 64, 100, 2, true, 0)
	sub, err := p.Subscribe(256)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unsubscribe(sub)
	const producers = 6
	const batches = 200
	const batchLen = 97 // odd size: sub-batches land unevenly across shards
	valid := func(id uint64) bool {
		pr, seq := id>>32, id&0xffffffff
		return pr < producers && seq < batches*batchLen
	}
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			ids := make([]uint64, batchLen)
			for b := 0; b < batches; b++ {
				for i := range ids {
					ids[i] = uint64(pr)<<32 | uint64(b*batchLen+i)
				}
				if err := p.PushBatch(ids); err != nil {
					t.Error(err)
					return
				}
			}
		}(pr)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			ids := p.SampleN(16)
			for _, id := range ids {
				if !valid(id) {
					t.Errorf("sampled id %#x was never pushed (buffer aliasing?)", id)
					return
				}
			}
			select {
			case draw, ok := <-sub.C():
				if ok && !valid(draw) {
					t.Errorf("σ′ draw %#x was never pushed (draw buffer aliasing?)", draw)
					return
				}
			default:
			}
			if st := p.Stats(); st.Processed >= producers*batches*batchLen {
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	<-done
	st := p.Stats()
	if want := uint64(producers * batches * batchLen); st.Processed != want {
		t.Fatalf("processed %d, want %d (blocking pool must not lose ids)", st.Processed, want)
	}
	for _, id := range p.Memory() {
		if !valid(id) {
			t.Fatalf("memory retains id %#x that was never pushed", id)
		}
	}
	// A payload published twice, or recycled before its draws were, would
	// break the one-draw-per-processed-id ledger.
	waitSettled(t, p, sub)
}
