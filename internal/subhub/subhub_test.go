package subhub

import (
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"nodesampling/internal/netgossip"
)

func TestSubscribeValidation(t *testing.T) {
	h := New()
	defer h.Close()
	if _, err := h.Subscribe(0); err == nil {
		t.Error("capacity 0 should fail")
	}
	if _, err := h.Subscribe(-1); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := h.Subscribe(MaxSubscriptionBuffer + 1); err == nil {
		t.Error("oversized capacity should fail")
	}
}

func TestPublishDeliversInOrder(t *testing.T) {
	h := New()
	defer h.Close()
	if h.Active() {
		t.Fatal("hub active before any subscription")
	}
	s, err := h.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Active() || h.NumSubscribers() != 1 {
		t.Fatal("hub not active after subscribe")
	}
	h.Publish([]uint64{1, 2, 3})
	h.Publish([]uint64{4, 5})
	for want := uint64(1); want <= 5; want++ {
		select {
		case got := <-s.C():
			if got != want {
				t.Fatalf("got %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for id %d", want)
		}
	}
	if s.Offered() != 5 || s.Delivered() != 5 || s.Dropped() != 0 {
		t.Fatalf("counters offered/delivered/dropped = %d/%d/%d",
			s.Offered(), s.Delivered(), s.Dropped())
	}
}

// TestDropOldest overfills a tiny subscription that nobody reads and checks
// that the oldest elements are the ones lost: the ring (and channel) must
// hold the newest ids.
func TestDropOldest(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.Subscribe(2) // ring 2 + channel buffer 2
	if err != nil {
		t.Fatal(err)
	}
	s.C() // a channel consumer: the feed goroutine runs from here on
	ids := []uint64{10, 11, 12, 13, 14, 15, 16, 17}
	h.Publish(ids)
	// Wait until accounting settles: everything offered is either delivered
	// (in the channel buffer) or dropped.
	deadline := time.Now().Add(5 * time.Second)
	for s.Delivered()+s.Dropped() < uint64(len(ids)) {
		if time.Now().After(deadline) {
			t.Fatalf("accounting never settled: delivered %d dropped %d",
				s.Delivered(), s.Dropped())
		}
		time.Sleep(time.Millisecond)
	}
	if s.Dropped() == 0 {
		t.Fatal("overfilled subscription dropped nothing")
	}
	// Drain what survived; it must be a suffix-ordered subset ending near the
	// newest id (drop-oldest keeps the most recent elements flowing).
	var got []uint64
	s.Cancel()
	for id := range s.C() {
		got = append(got, id)
	}
	if len(got) == 0 {
		t.Fatal("nothing delivered")
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out-of-order delivery %v", got)
		}
	}
	if got[0] == 10 && s.Dropped() > 0 {
		t.Fatalf("oldest id survived despite drops: %v", got)
	}
}

// TestAccountingExact pins the invariant the streaming plane is built on:
// after cancellation, every offered id is accounted as delivered or dropped.
func TestAccountingExact(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.Subscribe(8)
	if err != nil {
		t.Fatal(err)
	}
	var consumed uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range s.C() {
			consumed++
			if consumed%3 == 0 {
				time.Sleep(50 * time.Microsecond) // a deliberately slow reader
			}
		}
	}()
	batch := make([]uint64, 17)
	for round := 0; round < 300; round++ {
		for i := range batch {
			batch[i] = uint64(round*len(batch) + i)
		}
		h.Publish(batch)
	}
	s.Cancel()
	wg.Wait()
	offered, delivered, dropped := s.Offered(), s.Delivered(), s.Dropped()
	if offered != uint64(300*len(batch)) {
		t.Fatalf("offered %d, want %d", offered, 300*len(batch))
	}
	if delivered+dropped != offered {
		t.Fatalf("accounting leak: offered %d != delivered %d + dropped %d",
			offered, delivered, dropped)
	}
	if consumed > delivered {
		t.Fatalf("consumed %d more than delivered %d", consumed, delivered)
	}
}

// TestDecimation pins SubscribeEvery: exactly one in k offered ids reaches
// the subscriber, the rest are counted as filtered, and the cancellation
// accounting identity gains the filtered term.
func TestDecimation(t *testing.T) {
	h := New()
	defer h.Close()
	if _, err := h.SubscribeEvery(8, 0); err == nil {
		t.Error("every=0 should fail")
	}
	if _, err := h.SubscribeEvery(8, netgossip.MaxDecimation+1); err == nil {
		t.Error("every beyond MaxDecimation should fail")
	}
	const every = 5
	s, err := h.SubscribeEvery(1024, every)
	if err != nil {
		t.Fatal(err)
	}
	if s.Every() != every {
		t.Fatalf("Every() = %d", s.Every())
	}
	const total = 1000
	batch := make([]uint64, 20)
	for round := 0; round < total/len(batch); round++ {
		for i := range batch {
			batch[i] = uint64(round*len(batch) + i + 1)
		}
		h.Publish(batch)
	}
	// The retained ids are exactly every 5th of the offered sequence.
	var got []uint64
	deadline := time.After(5 * time.Second)
	for len(got) < total/every {
		select {
		case id := <-s.C():
			got = append(got, id)
		case <-deadline:
			t.Fatalf("received %d decimated ids, want %d", len(got), total/every)
		}
	}
	for i, id := range got {
		if want := uint64((i + 1) * every); id != want {
			t.Fatalf("decimated element %d = %d, want %d", i, id, want)
		}
	}
	s.Cancel()
	if s.Offered() != total {
		t.Fatalf("offered %d, want %d", s.Offered(), total)
	}
	if s.Filtered() != total-total/every {
		t.Fatalf("filtered %d, want %d", s.Filtered(), total-total/every)
	}
	if sum := s.Delivered() + s.Dropped() + s.Filtered(); sum != s.Offered() {
		t.Fatalf("accounting leak: delivered %d + dropped %d + filtered %d != offered %d",
			s.Delivered(), s.Dropped(), s.Filtered(), s.Offered())
	}
}

// TestCancelFlushesBuffered pins the shutdown hand-off: ids buffered when
// Cancel lands are flushed into the delivery channel as far as it has
// room, so a consumer that kept up loses nothing to a close.
func TestCancelFlushesBuffered(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	s.C() // a channel consumer: Cancel flushes into the channel
	ids := make([]uint64, 32)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	h.Publish(ids)
	s.Cancel()
	var got int
	for range s.C() {
		got++
	}
	if uint64(got) != s.Delivered() {
		t.Fatalf("read %d, delivered %d", got, s.Delivered())
	}
	if s.Delivered()+s.Dropped() != s.Offered() {
		t.Fatalf("accounting leak after cancel flush: %d + %d != %d",
			s.Delivered(), s.Dropped(), s.Offered())
	}
	if got == 0 {
		t.Fatal("cancel flushed nothing despite ample channel capacity")
	}
}

// TestPublishNeverBlocks attaches a subscriber that never reads and checks
// that Publish returns promptly regardless.
func TestPublishNeverBlocks(t *testing.T) {
	h := New()
	defer h.Close()
	if _, err := h.Subscribe(1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := make([]uint64, 256)
		for i := 0; i < 2000; i++ {
			h.Publish(batch)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked on a stalled subscriber")
	}
}

func TestCancelIdempotentAndUnsubscribe(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel()
	s.Cancel()
	h.Unsubscribe(s)
	h.Unsubscribe(nil)
	if h.NumSubscribers() != 0 {
		t.Fatalf("subscribers after cancel: %d", h.NumSubscribers())
	}
	select {
	case <-s.done:
	default:
		t.Fatal("done not closed after Cancel")
	}
	if _, ok := <-s.C(); ok {
		t.Fatal("delivery channel not closed after Cancel")
	}
	// Publishing to a hub with no subscribers is a no-op.
	h.Publish([]uint64{1})
	if s.Offered() != 0 {
		t.Fatal("cancelled subscription still offered ids")
	}
}

func TestHubClose(t *testing.T) {
	h := New()
	a, err := h.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	h.Close() // idempotent
	for _, s := range []*Subscription{a, b} {
		if _, ok := <-s.C(); ok {
			t.Fatal("channel open after hub close")
		}
	}
	if _, err := h.Subscribe(4); err != ErrHubClosed {
		t.Fatalf("Subscribe after Close = %v, want ErrHubClosed", err)
	}
	if h.NumSubscribers() != 0 {
		t.Fatalf("subscribers after close: %d", h.NumSubscribers())
	}
}

// TestConcurrentChurn races Publish against Subscribe/Cancel churn and
// consumer reads; the race detector is the assertion.
func TestConcurrentChurn(t *testing.T) {
	h := New()
	defer h.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := []uint64{uint64(g), uint64(g) + 1}
			for {
				select {
				case <-stop:
					return
				default:
					h.Publish(batch)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s, err := h.Subscribe(8)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < 10; j++ {
					select {
					case <-s.C():
					case <-time.After(time.Millisecond):
					}
				}
				s.Cancel()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if _, err := h.Subscribe(4); err != nil {
		t.Fatalf("hub unusable after churn: %v", err)
	}
	h.Stats()
}

func TestStatsSnapshot(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.Subscribe(16)
	if err != nil {
		t.Fatal(err)
	}
	h.Publish([]uint64{1, 2, 3})
	st := h.Stats()
	if len(st) != 1 {
		t.Fatalf("stats rows = %d", len(st))
	}
	if st[0].ID != s.ID() || st[0].Capacity != 16 || st[0].Offered != 3 {
		t.Fatalf("stats = %+v", st[0])
	}
}

// TestSubscribeEveryFreshPhase pins the decimation window of a fresh
// subscription: the first delivery happens on exactly the every-th offered
// draw, never earlier. The daemon's reconnect path relies on this — a
// re-issued subscription restarting its window can only stretch the
// spacing between deliveries, never compress it below every offers.
func TestSubscribeEveryFreshPhase(t *testing.T) {
	h := New()
	defer h.Close()
	const every = 4
	s, err := h.SubscribeEvery(16, every)
	if err != nil {
		t.Fatal(err)
	}
	h.Publish([]uint64{1, 2, 3}) // every-1 offers: all filtered
	select {
	case id := <-s.C():
		t.Fatalf("delivery of %d before the %d-th offer", id, every)
	case <-time.After(50 * time.Millisecond):
	}
	h.Publish([]uint64{4})
	select {
	case id := <-s.C():
		if id != 4 {
			t.Fatalf("first delivery %d, want the %d-th offer (4)", id, every)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery on the every-th offer")
	}
	if f, d := s.Filtered(), s.Delivered(); f != every-1 || d != 1 {
		t.Fatalf("filtered %d delivered %d, want %d and 1", f, d, every-1)
	}
}

// TestRateCapTokenBucket drives the delivery rate cap on a fake clock: a
// rate-R subscription passes at most R ids per publish burst, refills R
// tokens per elapsed second, never banks more than one second of burst, and
// keeps the accounting identity exact with capped in the ledger.
func TestRateCapTokenBucket(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.SubscribeWith(SubOptions{Capacity: 256, RatePerSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.C() // a channel consumer: what the cap admits is drained below
	var clock int64 = 5e9
	s.mu.Lock()
	s.now = func() int64 { return clock }
	s.lastRefill = clock
	s.tokens = 10 // full bucket, as at birth
	s.mu.Unlock()

	batch := func(n int, base uint64) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = base + uint64(i)
		}
		return ids
	}
	// Burst one: the full bucket admits exactly rate ids.
	h.Publish(batch(25, 100))
	if got := s.Capped(); got != 15 {
		t.Fatalf("capped %d after first burst, want 15", got)
	}
	// Same instant: the bucket is empty, everything is capped.
	h.Publish(batch(5, 200))
	if got := s.Capped(); got != 20 {
		t.Fatalf("capped %d after empty-bucket burst, want 20", got)
	}
	// One second later: exactly one second's refill.
	clock += 1e9
	h.Publish(batch(25, 300))
	if got := s.Capped(); got != 35 {
		t.Fatalf("capped %d after refilled burst, want 35", got)
	}
	// A long idle stretch banks only one second of burst.
	clock += 60e9
	h.Publish(batch(25, 400))
	if got := s.Capped(); got != 50 {
		t.Fatalf("capped %d after idle stretch, want 50", got)
	}
	// Half a second buys half a bucket.
	clock += 5e8
	h.Publish(batch(25, 500))
	if got := s.Capped(); got != 70 {
		t.Fatalf("capped %d after half-second refill, want 70", got)
	}

	if got := s.Rate(); got != 10 {
		t.Fatalf("Rate() = %d, want 10", got)
	}
	s.Cancel()
	drained := 0
	for range s.C() {
		drained++
	}
	offered, delivered, dropped := s.Offered(), s.Delivered(), s.Dropped()
	if offered != 105 {
		t.Fatalf("offered %d, want 105", offered)
	}
	if delivered != uint64(drained) {
		t.Fatalf("delivered %d but drained %d", delivered, drained)
	}
	if offered != delivered+dropped+s.Filtered()+s.Capped() {
		t.Fatalf("accounting leak: offered %d != delivered %d + dropped %d + filtered %d + capped %d",
			offered, delivered, dropped, s.Filtered(), s.Capped())
	}
	if want := offered - s.Capped(); delivered+dropped != want {
		t.Fatalf("delivered+dropped = %d, want %d (everything the cap admitted)", delivered+dropped, want)
	}
}

// TestRateCapComposesWithDecimation: decimation thins first, then the
// bucket meters what survives — so a 1-in-5 subscription at rate 10 passes
// 10 of 50 offered in one instant, filtering 40 and capping nothing until
// the thinned stream itself exceeds the rate.
func TestRateCapComposesWithDecimation(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.SubscribeWith(SubOptions{Capacity: 64, Every: 5, RatePerSec: 4})
	if err != nil {
		t.Fatal(err)
	}
	var clock int64 = 9e9
	s.mu.Lock()
	s.now = func() int64 { return clock }
	s.lastRefill = clock
	s.tokens = 4
	s.mu.Unlock()
	ids := make([]uint64, 50)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	h.Publish(ids)
	if got := s.Filtered(); got != 40 {
		t.Fatalf("filtered %d, want 40", got)
	}
	// 10 survived the thinning; the bucket admitted 4 and capped 6.
	if got := s.Capped(); got != 6 {
		t.Fatalf("capped %d, want 6", got)
	}
}

// TestInitialSeenPhase pins the reconnect contract: a subscription seeded
// with the previous incarnation's Seen() continues the thinning window
// instead of restarting it, so the stitched stream never stretches the
// delivery spacing beyond Every.
func TestInitialSeenPhase(t *testing.T) {
	h := New()
	defer h.Close()
	// A fresh 1-in-4 subscription, offered 6 ids, delivers draws 4 and has
	// seen 2 of the next window.
	first, err := h.SubscribeWith(SubOptions{Capacity: 16, Every: 4})
	if err != nil {
		t.Fatal(err)
	}
	h.Publish([]uint64{1, 2, 3, 4, 5, 6})
	if got := first.Seen(); got != 2 {
		t.Fatalf("Seen() = %d after 6 offers at every=4, want 2", got)
	}
	first.Cancel()

	// The successor picks up mid-window: two more offers complete it.
	second, err := h.SubscribeWith(SubOptions{Capacity: 16, Every: 4, InitialSeen: first.Seen()})
	if err != nil {
		t.Fatal(err)
	}
	h.Publish([]uint64{7})
	if got := second.Filtered(); got != 1 {
		t.Fatalf("filtered %d after one offer mid-window, want 1", got)
	}
	h.Publish([]uint64{8})
	select {
	case id := <-second.C():
		if id != 8 {
			t.Fatalf("delivered %d, want 8 (the 4th of the stitched window)", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery on the offer completing the stitched window")
	}
	second.Cancel()

	// InitialSeen is taken modulo Every, so a stale larger count behaves
	// like its remainder; phase every-1 delivers on the very first offer.
	third, err := h.SubscribeWith(SubOptions{Capacity: 16, Every: 4, InitialSeen: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := third.Seen(); got != 3 {
		t.Fatalf("Seen() = %d for InitialSeen 7 at every=4, want 3", got)
	}
	h.Publish([]uint64{9})
	select {
	case id := <-third.C():
		if id != 9 {
			t.Fatalf("delivered %d, want 9", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery for a phase seeded one short of the interval")
	}
}

// seq returns n consecutive ids starting at from.
func seq(from uint64, n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = from + uint64(i)
	}
	return ids
}

// checkIdentity asserts the accounting identity of a cancelled subscription.
func checkIdentity(t *testing.T, s *Subscription) {
	t.Helper()
	if sum := s.Delivered() + s.Dropped() + s.Filtered() + s.Capped(); sum != s.Offered() {
		t.Fatalf("accounting leak: delivered %d + dropped %d + filtered %d + capped %d = %d, offered %d",
			s.Delivered(), s.Dropped(), s.Filtered(), s.Capped(), sum, s.Offered())
	}
}

// TestNextWrapAround drains a small ring in batches whose sizes are coprime
// to its capacity, so the two copies in Next meet the wrap at every offset:
// the consumer must see exactly the published sequence.
func TestNextWrapAround(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.Subscribe(8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint64, 5)
	next := uint64(1) // next id to publish
	want := uint64(1) // next id the consumer must see
	for round := 0; round < 40; round++ {
		n := 1 + round%7
		h.Publish(seq(next, n))
		next += uint64(n)
		for want < next {
			ids, ok := s.Next(buf)
			if !ok || len(ids) == 0 || len(ids) > cap(buf) {
				t.Fatalf("Next = (%v, %v) with ids %d..%d buffered", ids, ok, want, next-1)
			}
			for _, id := range ids {
				if id != want {
					t.Fatalf("round %d: got id %d, want %d", round, id, want)
				}
				want++
			}
		}
	}
	if st := h.Stats()[0]; st.Delivered != next-1 || st.Depth != 0 || st.Dropped != 0 {
		t.Fatalf("stats after draining %d ids: %+v", next-1, st)
	}
	s.Cancel()
	if ids, ok := s.Next(buf); ok || len(ids) != 0 {
		t.Fatalf("Next after Cancel = (%v, %v)", ids, ok)
	}
	checkIdentity(t, s)
}

// TestNextDropOldestNoConsumer overfills a ring nobody drains: Next then
// hands out the newest ids in order, the overwritten ones are dropped, and
// what is still buffered when Cancel lands is dropped too.
func TestNextDropOldestNoConsumer(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	h.Publish(seq(1, 3))
	h.Publish(seq(4, 7)) // 10 offered to a ring of 4
	if st := h.Stats()[0]; st.Depth != 4 || st.Dropped != 6 || st.Delivered != 0 {
		t.Fatalf("stats with no consumer: %+v", st)
	}
	ids, ok := s.Next(make([]uint64, 3))
	if !ok || !slices.Equal(ids, []uint64{7, 8, 9}) {
		t.Fatalf("Next = (%v, %v), want the oldest three survivors 7 8 9", ids, ok)
	}
	h.Publish(seq(11, 2))
	s.Cancel() // 10, 11, 12 never taken
	if s.Delivered() != 3 || s.Dropped() != 9 {
		t.Fatalf("delivered %d dropped %d, want 3 and 9", s.Delivered(), s.Dropped())
	}
	checkIdentity(t, s)
}

// TestNextDecimationAndRateCap: the batch consumer sees what decimation and
// the token bucket let through, in order, and all four ways an id can end
// are in the ledger.
func TestNextDecimationAndRateCap(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.SubscribeWith(SubOptions{Capacity: 64, Every: 5, RatePerSec: 4})
	if err != nil {
		t.Fatal(err)
	}
	var clock int64 = 9e9
	s.mu.Lock()
	s.now = func() int64 { return clock }
	s.lastRefill = clock
	s.tokens = 4
	s.mu.Unlock()
	h.Publish(seq(1, 50)) // 10 survive the thinning, the bucket admits 4
	buf := make([]uint64, 3)
	ids, _ := s.Next(buf)
	if !slices.Equal(ids, []uint64{5, 10, 15}) {
		t.Fatalf("first batch %v, want 5 10 15", ids)
	}
	clock += 1e9
	h.Publish(seq(51, 10)) // two more survive, both admitted
	s.Cancel()             // 20, 55, 60 still buffered
	if f, c, d, dr := s.Filtered(), s.Capped(), s.Delivered(), s.Dropped(); f != 48 || c != 6 || d != 3 || dr != 3 {
		t.Fatalf("filtered %d capped %d delivered %d dropped %d, want 48 6 3 3", f, c, d, dr)
	}
	checkIdentity(t, s)
}

// TestNextBlocksUntilPublishOrCancel: an empty ring parks the consumer;
// Publish wakes it with the ids, Cancel wakes it with false.
func TestNextBlocksUntilPublishOrCancel(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.Subscribe(16)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		ids []uint64
		ok  bool
	}
	results := make(chan result)
	go func() {
		buf := make([]uint64, 16)
		for {
			ids, ok := s.Next(buf)
			results <- result{append([]uint64(nil), ids...), ok}
			if !ok {
				return
			}
		}
	}()
	select {
	case r := <-results:
		t.Fatalf("Next returned %+v from an empty ring", r)
	case <-time.After(20 * time.Millisecond):
	}
	h.Publish([]uint64{42, 43})
	if r := <-results; !r.ok || !slices.Equal(r.ids, []uint64{42, 43}) {
		t.Fatalf("Next after Publish = %+v", r)
	}
	go s.Cancel()
	if r := <-results; r.ok || len(r.ids) != 0 {
		t.Fatalf("Next after Cancel = %+v", r)
	}
}

// TestNextCancelRacesPublish cancels a subscription while publishers and a
// batch consumer are running flat out. Afterwards the identity must hold
// exactly, Delivered must be what the consumer was handed, and what it was
// handed must be an increasing subsequence of each publisher's ids.
func TestNextCancelRacesPublish(t *testing.T) {
	for round := 0; round < 20; round++ {
		h := New()
		s, err := h.Subscribe(64)
		if err != nil {
			t.Fatal(err)
		}
		const publishers = 3
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				// Publisher p's ids are p<<32 | 1, 2, 3, ...
				next := uint64(p)<<32 | 1
				for {
					select {
					case <-stop:
						return
					default:
					}
					h.Publish(seq(next, 17))
					next += 17
				}
			}(p)
		}
		var got uint64
		consumed := make(chan struct{})
		go func() {
			defer close(consumed)
			var last [publishers]uint64
			buf := make([]uint64, 32)
			for {
				ids, ok := s.Next(buf)
				if !ok {
					return
				}
				got += uint64(len(ids))
				for _, id := range ids {
					if p := id >> 32; id <= last[p] {
						t.Errorf("publisher %d: id %#x after %#x", p, id, last[p])
					} else {
						last[p] = id
					}
				}
			}
		}()
		time.Sleep(time.Duration(round%5) * time.Millisecond)
		s.Cancel()
		offered := s.Offered() // final: a cancelled subscription takes no offers
		checkIdentity(t, s)
		<-consumed
		close(stop)
		wg.Wait()
		if s.Offered() != offered {
			t.Fatalf("offered moved after Cancel: %d then %d", offered, s.Offered())
		}
		if got != s.Delivered() {
			t.Fatalf("consumer was handed %d ids, delivered %d", got, s.Delivered())
		}
		checkIdentity(t, s)
		h.Close()
	}
}

// BenchmarkSubscriptionNext is the consumer side of the hub, which the
// publish-side probes never time: one 1024-id Publish, then every
// subscription drained with Next into a reused buffer, per iteration.
func BenchmarkSubscriptionNext(b *testing.B) {
	for _, consumers := range []int{1, 2} {
		b.Run("consumers="+strconv.Itoa(consumers), func(b *testing.B) {
			h := New()
			defer h.Close()
			subs := make([]*Subscription, consumers)
			for i := range subs {
				var err error
				if subs[i], err = h.Subscribe(4096); err != nil {
					b.Fatal(err)
				}
			}
			batch := seq(1, 1024)
			buf := make([]uint64, 1024)
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(batch) * consumers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Publish(batch)
				for _, s := range subs {
					if ids, _ := s.Next(buf); len(ids) != len(batch) {
						b.Fatalf("Next handed out %d ids, want %d", len(ids), len(batch))
					}
				}
			}
		})
	}
}

// TestOfferBlockCopyMatchesPerID checks the plain subscription's block-copy
// placement against a per-id drop-oldest model: random batch sizes, from
// empty to several times the capacity and starting at every ring offset,
// interleaved with partial drains. After every step the raw ring, head and
// size, Next's output and all five counters must match the model's.
func TestOfferBlockCopyMatchesPerID(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 34))
	for _, capacity := range []int{1, 2, 3, 8, 13} {
		h := New()
		s, err := h.Subscribe(capacity)
		if err != nil {
			t.Fatal(err)
		}
		// The model: the pre-block-copy offer loop, one id at a time.
		ring := make([]uint64, capacity)
		head, size := 0, 0
		var offered, delivered, dropped uint64
		next := uint64(1)
		for step := 0; step < 400; step++ {
			ids := seq(next, r.IntN(3*capacity+2))
			next += uint64(len(ids))
			h.Publish(ids)
			offered += uint64(len(ids))
			for _, id := range ids {
				if size == capacity {
					ring[head] = id
					head = (head + 1) % capacity
					dropped++
				} else {
					ring[(head+size)%capacity] = id
					size++
				}
			}
			s.mu.Lock()
			same := slices.Equal(s.ring, ring) && s.head == head && s.size == size
			s.mu.Unlock()
			if !same {
				t.Fatalf("cap %d step %d: ring %v head %d size %d, model %v head %d size %d",
					capacity, step, s.ring, s.head, s.size, ring, head, size)
			}
			if size > 0 && r.IntN(2) == 0 {
				got, ok := s.Next(make([]uint64, 1+r.IntN(capacity)))
				var want []uint64
				for i := 0; i < len(got) && ok; i++ {
					want = append(want, ring[head])
					head = (head + 1) % capacity
					size--
				}
				delivered += uint64(len(want))
				if !ok || len(got) == 0 || !slices.Equal(got, want) {
					t.Fatalf("cap %d step %d: Next = (%v, %v), model %v", capacity, step, got, ok, want)
				}
			}
			if s.Offered() != offered || s.Delivered() != delivered || s.Dropped() != dropped ||
				s.Filtered() != 0 || s.Capped() != 0 {
				t.Fatalf("cap %d step %d: offered %d delivered %d dropped %d filtered %d capped %d, model %d %d %d 0 0",
					capacity, step, s.Offered(), s.Delivered(), s.Dropped(), s.Filtered(), s.Capped(),
					offered, delivered, dropped)
			}
		}
		s.Cancel()
		checkIdentity(t, s)
		h.Close()
	}
}
