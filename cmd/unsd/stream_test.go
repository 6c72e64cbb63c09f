package main

import (
	"context"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nodesampling"
	"nodesampling/client"
	"nodesampling/internal/netgossip"
	"nodesampling/internal/subhub"
	"nodesampling/internal/telemetry"
)

func testContext(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx, cancel
}

// waitForListener scans run()'s output for "<prefix><addr>\n" and returns
// the address.
func waitForListener(t *testing.T, sb *safeBuilder, prefix string) string {
	t.Helper()
	var addr string
	waitFor(t, "the line "+strings.TrimSpace(prefix), func() bool {
		out := sb.String()
		i := strings.Index(out, prefix)
		if i < 0 {
			return false
		}
		rest := out[i+len(prefix):]
		j := strings.IndexByte(rest, '\n')
		if j < 0 {
			return false
		}
		addr = rest[:j]
		return true
	})
	return addr
}

func testStreamDaemon(t *testing.T, o options) (*daemon, net.Listener) {
	t.Helper()
	d := testDaemon(t, o)
	ln, err := d.listenStream("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return d, ln
}

// TestStreamEndToEnd is the acceptance scenario: one framed TCP connection
// pushes id batches, subscribes, and receives σ′ stream frames whose ids
// are drawn from the pushed population; /stats reports the subscription's
// delivery accounting.
func TestStreamEndToEnd(t *testing.T) {
	d, ln := testStreamDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Sampling before any push answers an empty (not failed) response.
	if ids, err := c.Sample(3); err != nil || len(ids) != 0 {
		t.Fatalf("Sample on empty pool = (%v, %v)", ids, err)
	}

	out, err := c.Subscribe(4096)
	if err != nil {
		t.Fatal(err)
	}
	const population = 600
	ids := make([]nodesampling.NodeID, population)
	for i := range ids {
		ids[i] = nodesampling.NodeID(i + 1)
	}
	// Push in several batches, like a gossiping overlay would.
	for lo := 0; lo < population; lo += 200 {
		if err := c.PushBatch(ids[lo : lo+200]); err != nil {
			t.Fatal(err)
		}
	}

	seen := 0
	deadline := time.After(10 * time.Second)
	for seen < 300 {
		select {
		case id := <-out:
			if id < 1 || id > population {
				t.Fatalf("σ′ draw %d outside the pushed population", id)
			}
			seen++
		case <-deadline:
			t.Fatalf("received only %d σ′ draws", seen)
		}
	}

	// The request/response plane keeps working on the same connection while
	// the stream flows.
	samples, err := c.Sample(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("got %d samples, want 10", len(samples))
	}
	for _, id := range samples {
		if id < 1 || id > population {
			t.Fatalf("sample %d outside the pushed population", id)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// /stats must expose the subscription's delivery accounting.
	var stats struct {
		StreamConns int `json:"stream_connections"`
		Subscribers []struct {
			ID        uint64 `json:"id"`
			Offered   uint64 `json:"offered"`
			Delivered uint64 `json:"delivered"`
			Dropped   uint64 `json:"dropped"`
			Capacity  int    `json:"capacity"`
		} `json:"subscribers"`
	}
	waitFor(t, "subscriber stats to surface", func() bool {
		getJSON(t, ts.URL+"/stats", &stats)
		return len(stats.Subscribers) == 1 && stats.Subscribers[0].Delivered > 0
	})
	if stats.StreamConns != 1 {
		t.Fatalf("stream_connections = %d, want 1", stats.StreamConns)
	}
	if s := stats.Subscribers[0]; s.Offered < s.Delivered {
		t.Fatalf("inconsistent subscriber accounting: %+v", s)
	}
}

// TestStreamStalledSubscriber pins the slow-subscriber guarantee end to
// end: a raw framed connection subscribes and then never reads a byte,
// while a well-behaved client keeps pushing. Ingestion must proceed (the
// pool blocks producers, so a stalled emit path would wedge PushBatch), and
// /stats must eventually report drops for the stalled subscription.
func TestStreamStalledSubscriber(t *testing.T) {
	o := defaultOptions()
	d, ln := testStreamDaemon(t, o)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// The stalled subscriber: speaks just enough protocol to subscribe with
	// a tiny buffer, then goes silent without ever reading.
	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := netgossip.WriteFrame(stalled, netgossip.Frame{Type: netgossip.FrameSubscribe, N: 1, Every: 1}); err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Subscribers []struct {
			Dropped   uint64 `json:"dropped"`
			Delivered uint64 `json:"delivered"`
		} `json:"subscribers"`
	}
	waitFor(t, "the stalled subscription to register", func() bool {
		getJSON(t, ts.URL+"/stats", &stats)
		return len(stats.Subscribers) == 1
	})

	// The pusher: a normal client shoving batches through the same daemon.
	pusher, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pusher.Close()
	batch := make([]nodesampling.NodeID, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < 200; r++ {
			for i := range batch {
				batch[i] = nodesampling.NodeID(r*len(batch) + i)
			}
			if err := pusher.PushBatch(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pushes stalled behind a dead subscriber")
	}
	if err := d.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drops to surface for the stalled subscriber", func() bool {
		getJSON(t, ts.URL+"/stats", &stats)
		return len(stats.Subscribers) == 1 && stats.Subscribers[0].Dropped > 0
	})
}

// TestStreamProtocolErrors checks the failure surfaces: garbage bytes earn
// an Error frame and a hang-up; a second Subscribe earns an Error frame
// with the connection kept alive.
func TestStreamProtocolErrors(t *testing.T) {
	_, ln := testStreamDaemon(t, defaultOptions())

	// Garbage: the server must answer with an Error frame and close.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := netgossip.ReadFrame(raw)
	if err != nil {
		t.Fatalf("expected an Error frame, read failed: %v", err)
	}
	if f.Type != netgossip.FrameError {
		t.Fatalf("frame type %d, want FrameError", f.Type)
	}
	if _, err := netgossip.ReadFrame(raw); err == nil {
		t.Fatal("connection should be closed after protocol error")
	}

	// Double subscribe: Error frame, then the server hangs up (FrameError
	// is terminal by protocol contract).
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 2; i++ {
		if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FrameSubscribe, N: 8, Every: 1}); err != nil {
			t.Fatal(err)
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	// Every Subscribe is acknowledged, so the first frame back is the
	// SubAck with its resume token; the second is the second Subscribe's
	// protocol violation.
	f, err = netgossip.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != netgossip.FrameSubAck || f.Token == 0 {
		t.Fatalf("frame = %+v, want a SubAck carrying a resume token", f)
	}
	if f, err = netgossip.ReadFrame(conn); err != nil {
		t.Fatal(err)
	}
	if f.Type != netgossip.FrameError || f.Msg != "already subscribed" {
		t.Fatalf("frame = %+v, want already-subscribed error", f)
	}
	waitFor(t, "the server to hang up after the error", func() bool {
		// Drain any σ′ frames still in flight until the close surfaces.
		_, err := netgossip.ReadFrame(conn)
		return err != nil
	})
}

// TestLegacyClientRefusedLoudly pins the v1 retirement contract: a client
// that speaks the retired one-way batch protocol (magic 0x75) on the stream
// listener gets a FrameError naming the replacement before the daemon hangs
// up — not a silent reset.
func TestLegacyClientRefusedLoudly(t *testing.T) {
	_, ln := testStreamDaemon(t, defaultOptions())
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The head of a v1 batch frame: magic 'u', version 1, count 1, first
	// payload byte.
	if _, err := conn.Write([]byte{0x75, 1, 0, 0, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := netgossip.NewFrameReader(conn)
	f, err := fr.Read()
	if err != nil {
		t.Fatalf("no loud refusal frame: %v", err)
	}
	if f.Type != netgossip.FrameError {
		t.Fatalf("refusal frame type %d, want FrameError", f.Type)
	}
	if !strings.Contains(f.Msg, "v1") || !strings.Contains(f.Msg, "version 2") {
		t.Fatalf("refusal message %q does not name the retired and replacement protocols", f.Msg)
	}
	if _, err := fr.Read(); err == nil {
		t.Fatal("connection should be closed after the refusal")
	}
}

// TestStreamRunFlag boots the daemon through run() with -stream and drives
// it with the public client, proving the flag wiring end to end.
func TestStreamRunFlag(t *testing.T) {
	ctx, cancel := testContext(t)
	var sb safeBuilder
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-http", "127.0.0.1:0", "-stream", "127.0.0.1:0",
			"-shards", "2", "-c", "5", "-k", "6", "-s", "3", "-seed", "13",
		}, &sb)
	}()
	addr := waitForListener(t, &sb, "stream listening on ")
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PushBatch([]nodesampling.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pushed ids to become sampleable", func() bool {
		ids, err := c.Sample(1)
		return err == nil && len(ids) == 1
	})
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down")
	}
}

// TestStreamSubscribeDecimation drives sample-every-k through the wire: a
// decimated subscription receives roughly 1-in-k of the σ′ rate and /stats
// reports the interval and the filtered count.
func TestStreamSubscribeDecimation(t *testing.T) {
	d, ln := testStreamDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const every = 6
	out, err := c.SubscribeEvery(4096, every)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]nodesampling.NodeID, 600)
	for i := range ids {
		ids[i] = nodesampling.NodeID(i + 1)
	}
	if err := c.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	// A decimated stream still flows and stays inside the population.
	select {
	case id := <-out:
		if id < 1 || id > 600 {
			t.Fatalf("stream draw %d outside the population", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no decimated stream data")
	}
	var stats struct {
		Subscribers []struct {
			Offered  uint64 `json:"offered"`
			Filtered uint64 `json:"filtered"`
			Every    int    `json:"every"`
		} `json:"subscribers"`
	}
	waitFor(t, "the decimated subscription in /stats", func() bool {
		getJSON(t, ts.URL+"/stats", &stats)
		return len(stats.Subscribers) == 1 && stats.Subscribers[0].Filtered > 0
	})
	sub := stats.Subscribers[0]
	if sub.Every != every {
		t.Fatalf("stats report every=%d, want %d", sub.Every, every)
	}
	if kept := sub.Offered - sub.Filtered; kept != sub.Offered/every {
		t.Fatalf("kept %d of %d offered, want 1 in %d", kept, sub.Offered, every)
	}
}

// deadlineConn reports the read deadlines its handler sets.
type deadlineConn struct {
	net.Conn
	set chan time.Time
}

func (c deadlineConn) SetReadDeadline(t time.Time) error {
	select {
	case c.set <- t:
	default:
	}
	return c.Conn.SetReadDeadline(t)
}

// TestStreamSilentConnectionIsCut: a connection that opens and never sends
// a byte — a TLS client that never handshakes looks the same, its handshake
// runs inside the first read — waits under a read deadline of
// streamIdleTimeout, not forever (the constant is two minutes and has no
// test seam, so the deadline is asserted rather than waited out), and when
// the deadline passes the handler hangs up and gives the slot back.
func TestStreamSilentConnectionIsCut(t *testing.T) {
	d, _ := testStreamDaemon(t, defaultOptions())
	silent, server := net.Pipe()
	defer silent.Close()
	conn := deadlineConn{Conn: server, set: make(chan time.Time, 1)}
	s := d.stream
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	began := time.Now()
	go s.handle(conn)
	select {
	case at := <-conn.set:
		if at.Before(began.Add(streamIdleTimeout)) || at.After(time.Now().Add(streamIdleTimeout)) {
			t.Fatalf("silent connection's read deadline is %v away, want streamIdleTimeout (%v)", at.Sub(began), streamIdleTimeout)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler read from a fresh connection without setting a deadline")
	}
	// Let the deadline pass now instead of in two minutes.
	if err := server.SetReadDeadline(time.Now()); err != nil {
		t.Fatal(err)
	}
	// The best-effort Error frame naming the timeout, then the hang-up.
	_ = silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := netgossip.ReadFrame(silent); err != nil || f.Type != netgossip.FrameError {
		t.Fatalf("(%+v, %v), want the Error frame of a timed-out read", f, err)
	}
	waitFor(t, "the timed-out connection to be dropped", func() bool { return d.streamConns() == 0 })
}

// TestStreamSubscriberGoneBeforeAck: a client that sends its Subscribe and
// hangs up makes the SubAck write fail, after the subscription is
// registered and before its writer exists. The handler must still unwind —
// cancel the subscription, give the slot back — instead of waiting at
// teardown for a writer that was never started (which would also wedge
// the daemon's Close behind it).
func TestStreamSubscriberGoneBeforeAck(t *testing.T) {
	d, _ := testStreamDaemon(t, defaultOptions())
	gone, server := net.Pipe()
	s := d.stream
	s.mu.Lock()
	s.conns[server] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go s.handle(server)
	if err := netgossip.WriteFrame(gone, netgossip.Frame{Type: netgossip.FrameSubscribe, N: 8, Every: 1}); err != nil {
		t.Fatal(err)
	}
	gone.Close() // the pipe is synchronous: the ack has nobody to read it
	waitFor(t, "the handler to unwind", func() bool {
		return d.streamConns() == 0 && len(d.pool.Stats().Subscribers) == 0
	})
}

// discardConn accepts every write and deadline: the far end of a
// connWriter whose socket is not the subject.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestStreamWriterAllocatesNothingPerFrame runs the real subscription
// writer against a discard connection and requires the steady state — ring
// to Next to encode to Write, once per published batch — to allocate
// nothing: the batch buffer and the connection's encode buffer are reused.
func TestStreamWriterAllocatesNothingPerFrame(t *testing.T) {
	hub := subhub.New()
	sub, err := hub.Subscribe(netgossip.MaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	s := &streamServer{}
	done := make(chan struct{})
	go s.streamWriter(sub, &connWriter{conn: discardConn{}}, done)
	batch := make([]uint64, 1000)
	frame := func() {
		sent := s.dataFrames.Load()
		hub.Publish(batch)
		for s.dataFrames.Load() == sent {
			runtime.Gosched()
		}
	}
	frame() // the first frame sizes the encode buffer
	allocs := testing.AllocsPerRun(200, frame)
	hub.Close()
	<-done
	if allocs != 0 {
		t.Fatalf("%.0f allocations per StreamData frame, want 0", allocs)
	}
	if got, want := sub.Delivered(), s.dataFrames.Load()*uint64(len(batch)); got != want || sub.Dropped() != 0 {
		t.Fatalf("delivered %d dropped %d over %d frames, want %d and 0", got, sub.Dropped(), s.dataFrames.Load(), want)
	}
}

// TestStreamSubscribersReceiveEmittedSequence is the batch path end to end:
// two loopback subscribers and an in-process reference subscription ride
// one hub while a client pushes in phases that together wrap the
// subscribers' rings. Each socket must carry exactly the sequence the hub
// published, in order, in StreamData frames of at most MaxBatch ids, and
// after the drain /metrics must say delivered what the sockets received.
func TestStreamSubscribersReceiveEmittedSequence(t *testing.T) {
	d, ln := testStreamDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// A phase fits a subscriber's ring whatever the reader's pace, so
	// nothing can be dropped; the reference holds all three.
	const phases, perPhase = 3, 30000
	ref, err := d.pool.Subscribe(phases * perPhase)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Cancel()

	type socket struct {
		conn     net.Conn
		received atomic.Uint64
		done     chan struct{}
		ids      []uint64 // owned by the reader until done closes
		frames   uint64
	}
	socks := make([]*socket, 2)
	for i := range socks {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		sk := &socket{conn: conn, done: make(chan struct{})}
		socks[i] = sk
		// The SubAck proves the read loop has registered the subscription.
		if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FrameSubscribe, N: maxSubscribeBuffer, Every: 1}); err != nil {
			t.Fatal(err)
		}
		if f, err := netgossip.ReadFrame(conn); err != nil || f.Type != netgossip.FrameSubAck {
			t.Fatalf("subscriber %d: (%+v, %v), want the SubAck", i, f, err)
		}
		go func() {
			defer close(sk.done)
			fr := netgossip.NewFrameReader(conn)
			for {
				f, err := fr.Read()
				if err != nil {
					return // closed by the test
				}
				if f.Type != netgossip.FrameStreamData || len(f.IDs) == 0 || len(f.IDs) > netgossip.MaxBatch {
					t.Errorf("subscriber frame type %d with %d ids", f.Type, len(f.IDs))
					return
				}
				sk.ids = append(sk.ids, f.IDs...)
				sk.frames++
				sk.received.Add(uint64(len(f.IDs)))
			}
		}()
	}

	pusher, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pusher.Close()
	// Subscriptions are numbered in registration order: the reference is 1.
	sockLabels := []string{"2", "3"}
	var scr *telemetry.Scrape
	metric := func(name, sub string) uint64 {
		v, ok := scr.Value(name, "subscriber", sub)
		if !ok {
			t.Fatalf("%s{subscriber=%q} not exported", name, sub)
		}
		return uint64(v)
	}
	batch := make([]nodesampling.NodeID, 1000)
	for phase := 0; phase < phases; phase++ {
		for sent := 0; sent < perPhase; sent += len(batch) {
			for i := range batch {
				batch[i] = nodesampling.NodeID(1 + (phase*perPhase+sent+i)%5000)
			}
			if err := pusher.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := pusher.Ping(); err != nil { // every frame before it is ingested
			t.Fatal(err)
		}
		if err := d.pool.Flush(); err != nil {
			t.Fatal(err)
		}
		pushed := uint64((phase + 1) * perPhase)
		waitFor(t, "the phase's draws to reach both sockets", func() bool {
			scr = scrapeMetrics(t, ts)
			shed, _ := scr.Value("unsd_pool_emit_dropped_ids_total")
			if ref.Offered()+uint64(shed) != pushed {
				return false
			}
			for i, sk := range socks {
				if metric("unsd_subscriber_queue_depth_ids", sockLabels[i]) != 0 ||
					sk.received.Load() != metric("unsd_subscriber_delivered_ids_total", sockLabels[i]) {
					return false
				}
			}
			return true
		})
	}

	for _, sk := range socks {
		_ = sk.conn.Close()
		<-sk.done
	}
	want := make([]uint64, 0, ref.Offered())
	for uint64(len(want)) < ref.Offered() {
		ids, ok := ref.Next(make([]uint64, netgossip.MaxBatch))
		if !ok {
			t.Fatal("reference subscription cancelled")
		}
		want = append(want, ids...)
	}
	// The pool's emit buffer may shed draws in a burst, before the hub and
	// so for every subscriber alike; what the hub published is the sequence.
	if ref.Dropped() != 0 || len(want) == 0 {
		t.Fatalf("reference saw %d draws and dropped %d of %d pushed ids", len(want), ref.Dropped(), phases*perPhase)
	}
	var frames uint64
	for i, sk := range socks {
		for _, name := range []string{"dropped", "filtered", "capped"} {
			if v := metric("unsd_subscriber_"+name+"_ids_total", sockLabels[i]); v != 0 {
				t.Errorf("subscriber %d: %s %d, want 0", i, name, v)
			}
		}
		if got := metric("unsd_subscriber_delivered_ids_total", sockLabels[i]); got != uint64(len(sk.ids)) || got != uint64(len(want)) {
			t.Errorf("subscriber %d: /metrics delivered %d, socket received %d, hub published %d", i, got, len(sk.ids), len(want))
		}
		if !equalU64(sk.ids, want) {
			t.Errorf("subscriber %d did not receive the published sequence in order", i)
		}
		frames += sk.frames
	}
	// A frame is counted once its write has returned, which the far end's
	// read can beat by a moment.
	waitFor(t, "unsd_stream_data_frames_total to count the frames the sockets read", func() bool {
		got, _ := scrapeMetrics(t, ts).Value("unsd_stream_data_frames_total")
		return uint64(got) == frames
	})
}

// TestStreamOneFramePerPushedBatch: a pushed frame's σ′ leaves the 4-shard
// pool as one publish, so a subscriber that keeps up receives exactly one
// StreamData frame per pushed frame — not one per shard part.
func TestStreamOneFramePerPushedBatch(t *testing.T) {
	d, ln := testStreamDaemon(t, defaultOptions())
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	var received [2]atomic.Uint64
	for i := range received {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FrameSubscribe, N: maxSubscribeBuffer, Every: 1}); err != nil {
			t.Fatal(err)
		}
		if f, err := netgossip.ReadFrame(conn); err != nil || f.Type != netgossip.FrameSubAck {
			t.Fatalf("subscriber %d: (%+v, %v), want the SubAck", i, f, err)
		}
		go func() {
			fr := netgossip.NewFrameReader(conn)
			for {
				f, err := fr.Read()
				if err != nil {
					return // closed by the test
				}
				received[i].Add(uint64(len(f.IDs)))
			}
		}()
	}
	pusher, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pusher.Close()
	frames := func() uint64 {
		v, _ := scrapeMetrics(t, ts).Value("unsd_stream_data_frames_total")
		return uint64(v)
	}
	before := frames()
	const pushes = 50
	batch := make([]nodesampling.NodeID, 1000)
	for f := 0; f < pushes; f++ {
		for i := range batch {
			batch[i] = nodesampling.NodeID(1 + (f*len(batch)+i)%5000)
		}
		if err := pusher.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := pusher.Ping(); err != nil { // the frame is ingested
			t.Fatal(err)
		}
		want := uint64((f + 1) * len(batch)) // one draw per id
		waitFor(t, "both subscribers to receive the frame's draws", func() bool {
			return received[0].Load() == want && received[1].Load() == want
		})
	}
	// A frame is counted once its write has returned, which the far end's
	// read can beat by a moment.
	waitFor(t, "the StreamData frame count", func() bool { return frames()-before >= 2*pushes })
	if got := frames() - before; got != 2*pushes {
		t.Fatalf("%d StreamData frames for %d pushed frames to 2 subscribers, want %d", got, pushes, 2*pushes)
	}
}
