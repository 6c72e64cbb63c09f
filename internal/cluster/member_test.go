package cluster

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodesampling/internal/netgossip"
)

// fakeMember is a loopback member: it answers every FrameSampleLocal with
// the next consecutive integers (so a draw served twice, or served from a
// connection that is gone, is recognisable by value) and a fixed |Γ|, and
// never acknowledges a migration.
type fakeMember struct {
	ln        net.Listener
	next      atomic.Uint64 // last integer handed out
	exchanges atomic.Int64  // FrameSampleLocal frames answered
	migrating chan struct{} // one token per FrameMigrateState swallowed
	onSample  func()        // runs before each sample answer

	mu    sync.Mutex
	conns []net.Conn
}

const fakeGamma = 1000

func newFakeMember(t *testing.T, onSample func()) *fakeMember {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeMember{ln: ln, migrating: make(chan struct{}, 1), onSample: onSample}
	t.Cleanup(f.stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns = append(f.conns, conn)
			f.mu.Unlock()
			go f.serve(conn)
		}
	}()
	return f
}

func (f *fakeMember) serve(conn net.Conn) {
	fr := netgossip.NewFrameReader(conn)
	for {
		req, err := fr.Read()
		if err != nil {
			return
		}
		switch req.Type {
		case netgossip.FrameSampleLocal:
			ids := make([]uint64, req.N)
			last := f.next.Add(uint64(req.N))
			for i := range ids {
				ids[i] = last - uint64(len(ids)) + uint64(i) + 1
			}
			f.exchanges.Add(1)
			f.onSample()
			if netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FrameSampleLocalResp, Token: fakeGamma, IDs: ids}) != nil {
				return
			}
		case netgossip.FrameMigrateState:
			f.migrating <- struct{}{}
		}
	}
}

// hangUp closes every connection accepted so far; the listener stays.
func (f *fakeMember) hangUp() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, conn := range f.conns {
		conn.Close()
	}
	f.conns = nil
}

func (f *fakeMember) stop() {
	f.ln.Close()
	f.hangUp()
}

// testClock is a settable time source for Cluster.now.
type testClock struct{ ns atomic.Int64 }

func (c *testClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// reservoirFixture connects a started two-member cluster to a fake member,
// its reservoirs aged by the returned clock (frozen until advanced).
func reservoirFixture(t *testing.T) (*Cluster, *memberConn, *fakeMember, *testClock) {
	return slowReservoirFixture(t, 0)
}

// slowReservoirFixture is reservoirFixture with a member whose every sample
// answer takes lag on the clock.
func slowReservoirFixture(t *testing.T, lag time.Duration) (*Cluster, *memberConn, *fakeMember, *testClock) {
	t.Helper()
	clk := &testClock{}
	clk.advance(time.Hour)
	f := newFakeMember(t, func() { clk.advance(lag) })
	const self = "127.0.0.1:1" // never dialled
	c := testCluster(t, []string{self, f.ln.Addr().String()}, self, nil)
	c.now = clk.now
	c.Start()
	mc := c.conns[c.IndexOf(f.ln.Addr().String())]
	waitUntil(t, "the member connection", mc.connected.Load)
	return c, mc, f, clk
}

func waitUntil(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// takeFrom runs one round's remote half against the only remote member, mc:
// its weight through SampleMembers, then n draws through TakeDraws.
func takeFrom(t *testing.T, c *Cluster, mc *memberConn, n int) []uint64 {
	t.Helper()
	gammas, misses := c.SampleMembers(10 * time.Second)
	if misses != 0 || gammas[mc.idx] != fakeGamma || gammas[c.self] != 0 {
		t.Fatalf("SampleMembers = %v, %d misses, want weight %d for member %d only", gammas, misses, fakeGamma, mc.idx)
	}
	ids, err := c.TakeDraws(mc.idx, nil, n, 10*time.Second)
	if err != nil || len(ids) != n {
		t.Fatalf("TakeDraws(%d) = %d draws, err %v", n, len(ids), err)
	}
	return ids
}

// TestReservoirServesEachDrawOnce: under a frozen clock D draws cost at most
// ⌈D/256⌉ exchanges, whatever the sizes they are taken in, and no draw is
// returned twice.
func TestReservoirServesEachDrawOnce(t *testing.T) {
	c, mc, f, _ := reservoirFixture(t)
	seen := make(map[uint64]bool)
	total := 0
	for i := 0; i < 200; i++ {
		n := []int{16, 1, 100, 5}[i%4]
		for _, id := range takeFrom(t, c, mc, n) {
			if seen[id] {
				t.Fatalf("draw %d served twice", id)
			}
			seen[id] = true
		}
		total += n
		if got, most := f.exchanges.Load(), int64((total+reservoirRefill-1)/reservoirRefill); got > most {
			t.Fatalf("%d draws cost %d exchanges, want at most %d", total, got, most)
		}
	}
	// One take larger than a refill asks its whole shortfall at once.
	before := f.exchanges.Load()
	for _, id := range takeFrom(t, c, mc, 1000) {
		if seen[id] {
			t.Fatalf("draw %d served twice", id)
		}
	}
	if got := f.exchanges.Load() - before; got != 1 {
		t.Fatalf("a 1000-draw take cost %d exchanges, want 1", got)
	}
}

// TestReservoirAgesOut: past the maximum age the next take costs exactly one
// exchange, serves only new draws, and the old ones are counted discarded.
func TestReservoirAgesOut(t *testing.T) {
	c, mc, f, clk := reservoirFixture(t)
	takeFrom(t, c, mc, 16)
	clk.advance(reservoirMaxAge)
	takeFrom(t, c, mc, 16) // exactly at the maximum age: still served
	if got := f.exchanges.Load(); got != 1 {
		t.Fatalf("%d exchanges within the maximum age, want 1", got)
	}
	boundary := f.next.Load()
	clk.advance(time.Nanosecond)
	for _, id := range takeFrom(t, c, mc, 16) {
		if id <= boundary {
			t.Fatalf("draw %d served past its maximum age", id)
		}
	}
	if got := f.exchanges.Load(); got != 2 {
		t.Fatalf("%d exchanges after ageing out, want 2", got)
	}
	if got, want := mc.drawsDiscarded.Load(), uint64(reservoirRefill-32); got != want {
		t.Fatalf("discarded %d draws, want the %d left when the reservoir aged out", got, want)
	}
	if st := c.Stats().Members[mc.idx]; st.SampleRPCs != 2 || st.DrawsDiscarded != reservoirRefill-32 {
		t.Fatalf("stats %+v, want 2 sample rpcs and %d discarded draws", st, reservoirRefill-32)
	}
}

// TestReservoirSlowExchange: what a refill brings is served to the taker that
// paid for it however long the exchange took — an answer slower than the
// maximum age must not read as a dead reservoir, which the caller would count
// as a member miss.
func TestReservoirSlowExchange(t *testing.T) {
	c, mc, f, clk := slowReservoirFixture(t, 5*reservoirMaxAge)
	for i := 1; i <= 3; i++ {
		takeFrom(t, c, mc, 16)
		clk.advance(2 * reservoirMaxAge)
		if got := f.exchanges.Load(); got != int64(i) {
			t.Fatalf("%d exchanges after %d takes a maximum age apart, want one each", got, i)
		}
	}
}

// TestReservoirDiesWithItsConnection: a reconnect and a disconnect both
// empty the reservoir — once the member's end is closed and that noticed, no
// take returns a draw fetched before.
func TestReservoirDiesWithItsConnection(t *testing.T) {
	c, mc, f, _ := reservoirFixture(t)
	takeFrom(t, c, mc, 16)
	boundary, gen := f.next.Load(), mc.gen.Load()
	f.hangUp()
	waitUntil(t, "the reconnect", func() bool { return mc.gen.Load() > gen && mc.connected.Load() })
	for _, id := range takeFrom(t, c, mc, 16) {
		if id <= boundary {
			t.Fatalf("draw %d outlived the connection it arrived on", id)
		}
	}
	if got, want := mc.drawsDiscarded.Load(), uint64(reservoirRefill-16); got != want {
		t.Fatalf("discarded %d draws at the reconnect, want %d", got, want)
	}

	f.stop()
	waitUntil(t, "the disconnect", func() bool { return !mc.connected.Load() })
	if gammas, misses := c.SampleMembers(time.Second); misses != 1 || gammas[mc.idx] != 0 {
		t.Fatalf("a disconnected member: weights %v, %d misses, want weight 0 and one miss", gammas, misses)
	}
	if ids, err := c.TakeDraws(mc.idx, nil, 16, time.Second); len(ids) != 0 || !errors.Is(err, ErrNotConnected) {
		t.Fatalf("TakeDraws from a disconnected member = %v, %v", ids, err)
	}
	if got, want := mc.drawsDiscarded.Load(), uint64(2*(reservoirRefill-16)); got != want {
		t.Fatalf("discarded %d draws after the disconnect, want %d", got, want)
	}
}

// TestReservoirSharesRefill: goroutines taking concurrently from a dry
// reservoir cause one exchange between them, not one each.
func TestReservoirSharesRefill(t *testing.T) {
	c, mc, f, _ := reservoirFixture(t)
	const takers, each = 16, 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([][]uint64, takers)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, misses := c.SampleMembers(10 * time.Second)
			var err error
			if got[i], err = c.TakeDraws(mc.idx, nil, each, 10*time.Second); err != nil || misses != 0 {
				t.Error(misses, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, ids := range got {
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("draw %d served twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != takers*each {
		t.Fatalf("%d distinct draws served, want %d", len(seen), takers*each)
	}
	if n := f.exchanges.Load(); n != 1 {
		t.Fatalf("%d concurrent takers caused %d exchanges, want 1", takers, n)
	}
}

// TestSlotWaitCountsAgainstTimeout: a refill queued behind a migration that
// is never acknowledged gives up when its own timeout expires — the parent
// armed the timer only once the slot was won, 5 s later here — and leaves
// the connection, which is healthy and carrying someone else's exchange,
// alone.
func TestSlotWaitCountsAgainstTimeout(t *testing.T) {
	c, mc, f, _ := reservoirFixture(t)
	migrated := make(chan error, 1)
	go func() {
		_, err := mc.migrate([]byte("blob"), 5*time.Second)
		migrated <- err
	}()
	<-f.migrating
	gen := mc.gen.Load()
	began := time.Now()
	_, _, err := mc.take(nil, 16, 50*time.Millisecond)
	if took := time.Since(began); !errors.Is(err, ErrRPCTimeout) || took > 2*time.Second {
		t.Fatalf("take behind a pending migration: %v after %v, want ErrRPCTimeout after ~50ms", err, took)
	}
	if mc.gen.Load() != gen || !mc.connected.Load() {
		t.Fatal("a timed-out wait for the slot recycled the connection")
	}
	c.Close()
	if err := <-migrated; !errors.Is(err, ErrNotConnected) {
		t.Fatalf("migration interrupted by Close: %v, want ErrNotConnected", err)
	}
}
