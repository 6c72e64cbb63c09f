package client

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"nodesampling"
	"nodesampling/internal/netgossip"
)

// fakeServer answers the framed protocol on one end of a pipe with
// scripted behaviour: it echoes pings, answers samples with a fixed batch,
// and on Subscribe starts streaming the pushed ids straight back.
func fakeServer(t *testing.T, conn net.Conn, sampleResp []uint64) {
	t.Helper()
	go func() {
		defer conn.Close()
		subscribed := false
		for {
			f, err := netgossip.ReadFrame(conn)
			if err != nil {
				return
			}
			switch f.Type {
			case netgossip.FramePushBatch:
				if subscribed {
					if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FrameStreamData, IDs: f.IDs}); err != nil {
						return
					}
				}
			case netgossip.FrameSubscribe:
				subscribed = true
			case netgossip.FrameSample:
				n := int(f.N)
				if n > len(sampleResp) {
					n = len(sampleResp)
				}
				if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FrameSampleResp, IDs: sampleResp[:n]}); err != nil {
					return
				}
			case netgossip.FramePing:
				if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FramePong, Token: f.Token}); err != nil {
					return
				}
			}
		}
	}()
}

func newTestClient(t *testing.T, sampleResp []uint64) *Client {
	t.Helper()
	server, clientEnd := net.Pipe()
	fakeServer(t, server, sampleResp)
	c := New(clientEnd)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestClientPingSample(t *testing.T) {
	c := newTestClient(t, []uint64{11, 22, 33})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	ids, err := c.Sample(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 11 || ids[1] != 22 {
		t.Fatalf("sample = %v", ids)
	}
	if _, err := c.Sample(0); err == nil {
		t.Fatal("Sample(0) should fail")
	}
}

func TestClientSubscribeStream(t *testing.T) {
	c := newTestClient(t, nil)
	out, err := c.Subscribe(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe(16); err == nil {
		t.Fatal("double subscribe should fail")
	}
	want := []nodesampling.NodeID{1, 2, 3, 4}
	if err := c.PushBatch(want); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		select {
		case got := <-out:
			if got != w {
				t.Fatalf("stream got %d, want %d", got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %d", w)
		}
	}
}

// TestClientPushChunksLargeBatches pushes more ids than one frame may carry
// and verifies they all arrive (split across frames).
func TestClientPushChunksLargeBatches(t *testing.T) {
	c := newTestClient(t, nil)
	out, err := c.Subscribe(2 * netgossip.MaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]nodesampling.NodeID, netgossip.MaxBatch+10)
	for i := range big {
		big[i] = nodesampling.NodeID(i)
	}
	if err := c.PushBatch(big); err != nil {
		t.Fatal(err)
	}
	for i := range big {
		select {
		case got := <-out:
			if got != big[i] {
				t.Fatalf("id %d: got %d", i, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at id %d", i)
		}
	}
	if err := c.PushBatch(nil); err != nil {
		t.Fatal("empty push should be a no-op")
	}
}

func TestClientCloseUnblocksAndReports(t *testing.T) {
	c := newTestClient(t, nil)
	out, err := c.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-out:
		if ok {
			t.Fatal("stream delivered after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream channel not closed")
	}
	if !errors.Is(c.Err(), ErrClosed) {
		t.Fatalf("Err after Close = %v, want ErrClosed", c.Err())
	}
	if err := c.Ping(); err == nil {
		t.Fatal("Ping on closed client should fail")
	}
	if err := c.PushBatch([]nodesampling.NodeID{1}); err == nil {
		t.Fatal("PushBatch on closed client should fail")
	}
	_ = c.Close() // idempotent
}

// TestClientServerError pins that a server Error frame surfaces through Err
// and terminates the connection.
func TestClientServerError(t *testing.T) {
	server, clientEnd := net.Pipe()
	c := New(clientEnd)
	defer c.Close()
	go func() {
		_, _ = netgossip.ReadFrame(server) // swallow the ping
		_ = netgossip.WriteFrame(server, netgossip.Frame{Type: netgossip.FrameError, Msg: "go away"})
		_ = server.Close()
	}()
	if err := c.Ping(); err == nil {
		t.Fatal("Ping should fail after server error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("Err never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.Err().Error(); got != "client: server error: go away" {
		t.Fatalf("Err = %q", got)
	}
}

// restartableServer is a real TCP stub speaking the framed protocol, built
// to be killed and resurrected on the same address for reconnect tests.
type restartableServer struct {
	t    *testing.T
	addr string

	mu   sync.Mutex
	ln   net.Listener
	conn net.Conn

	subscribes chan netgossip.Frame // every Subscribe frame observed
}

func newRestartableServer(t *testing.T) *restartableServer {
	t.Helper()
	s := &restartableServer{t: t, subscribes: make(chan netgossip.Frame, 16)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	s.start(ln)
	t.Cleanup(s.kill)
	return s
}

func (s *restartableServer) start(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conn = conn
			s.mu.Unlock()
			go s.serve(conn)
		}
	}()
}

// stubResumeToken is the token the restartable server acks every Subscribe
// with.
const stubResumeToken = 0x5eed

// serve answers one connection: pongs pings, acks Subscribe frames and
// reports them, and echoes pushed batches as stream data once subscribed.
func (s *restartableServer) serve(conn net.Conn) {
	defer conn.Close()
	subscribed := false
	for {
		f, err := netgossip.ReadFrame(conn)
		if err != nil {
			return
		}
		switch f.Type {
		case netgossip.FrameSubscribe:
			subscribed = true
			s.subscribes <- f
			if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FrameSubAck, Token: stubResumeToken}); err != nil {
				return
			}
		case netgossip.FramePushBatch:
			if subscribed {
				if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FrameStreamData, IDs: f.IDs}); err != nil {
					return
				}
			}
		case netgossip.FramePing:
			if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FramePong, Token: f.Token}); err != nil {
				return
			}
		}
	}
}

// kill closes the listener and the live connection — a daemon crash.
func (s *restartableServer) kill() {
	s.mu.Lock()
	ln, conn := s.ln, s.conn
	s.ln, s.conn = nil, nil
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	if conn != nil {
		_ = conn.Close()
	}
}

// restart brings the listener back on the same address.
func (s *restartableServer) restart() {
	s.t.Helper()
	var ln net.Listener
	var err error
	// The just-freed port can lag a moment on some kernels.
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", s.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		s.t.Fatalf("relisten on %s: %v", s.addr, err)
	}
	s.start(ln)
}

// TestClientReconnectResubscribes is the kill-and-restart e2e: a client
// dialled with Reconnect survives a daemon restart — it redials with
// backoff, re-issues its subscription (same capacity and decimation
// interval) and keeps the same stream channel flowing.
func TestClientReconnectResubscribes(t *testing.T) {
	srv := newRestartableServer(t)
	c, err := DialWithOptions(srv.addr, DialOptions{
		Reconnect:  true,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out, err := c.SubscribeEvery(256, 3)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-srv.subscribes:
		if f.N != 256 || f.Every != 3 || f.Token != 0 {
			t.Fatalf("first subscribe N=%d Every=%d Token=%d", f.N, f.Every, f.Token)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the subscription")
	}
	// The decimated echo stub streams pushed batches straight back.
	if err := c.PushBatch([]nodesampling.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-out:
		if id < 1 || id > 3 {
			t.Fatalf("stream echoed %d", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no stream data before the restart")
	}

	// Crash the daemon, then bring it back on the same address.
	srv.kill()
	srv.restart()

	// The client must re-subscribe with the exact original parameters and
	// the token the first subscription was acked with (the ack preceded the
	// echo above on the wire): a decimated subscription resumes its phase
	// with or without a rate cap.
	select {
	case f := <-srv.subscribes:
		if f.N != 256 || f.Every != 3 || f.Token != stubResumeToken {
			t.Fatalf("re-subscribe N=%d Every=%d Token=%#x, want 256, 3 and %#x", f.N, f.Every, f.Token, stubResumeToken)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client never re-subscribed after the restart")
	}
	// The supervisor counts the reconnect once its redial — of which the
	// re-subscribe above is the last step — has returned.
	for deadline := time.Now().Add(5 * time.Second); c.Reconnects() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Reconnects() did not count the re-established connection")
		}
	}
	if c.Err() != nil {
		t.Fatalf("reconnected client reports terminal error %v", c.Err())
	}

	// The original channel keeps flowing: pushes may race the dead window,
	// so retry until an echo lands.
	deadline := time.After(10 * time.Second)
	got := false
	for !got {
		_ = c.PushBatch([]nodesampling.NodeID{4, 5, 6})
		select {
		case id, ok := <-out:
			if !ok {
				t.Fatal("stream channel closed across a reconnect")
			}
			if id < 1 || id > 6 {
				t.Fatalf("stream echoed %d after reconnect", id)
			}
			if id >= 4 {
				// Echo of a post-restart push (earlier ids are leftovers of
				// the first push still buffered in the channel).
				got = true
			}
		case <-deadline:
			t.Fatal("no stream data after the reconnect")
		case <-time.After(20 * time.Millisecond):
		}
	}
	// RPCs work over the fresh connection too.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after reconnect: %v", err)
	}
	// Close ends it for good: the channel closes and Err reports ErrClosed.
	_ = c.Close()
	waitClosed := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				if !errors.Is(c.Err(), ErrClosed) {
					t.Fatalf("Err after close = %v", c.Err())
				}
				return
			}
		case <-waitClosed:
			t.Fatal("stream channel never closed after Close")
		}
	}
}

// TestClientReconnectGivesUp: with MaxAttempts set and no server coming
// back, the client must close permanently instead of spinning forever.
func TestClientReconnectGivesUp(t *testing.T) {
	srv := newRestartableServer(t)
	c, err := DialWithOptions(srv.addr, DialOptions{
		Reconnect:   true,
		MinBackoff:  time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// As in TestClientNoReconnectByDefault: without the Pong, a kill landing
	// between the accept and its registration leaves the connection served.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.kill()
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		t.Fatal("client never gave up with MaxAttempts=3")
	}
	if c.Err() == nil {
		t.Fatal("exhausted client reports no error")
	}
}

// TestClientNoReconnectByDefault: a plain Dial dies with its connection.
func TestClientNoReconnectByDefault(t *testing.T) {
	srv := newRestartableServer(t)
	c, err := Dial(srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A Pong proves the stub has registered the connection kill is to close
	// (a kill landing between the accept and that would leave it served).
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.kill()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("plain client survived its connection")
	}
	if c.Reconnects() != 0 {
		t.Fatal("plain client reconnected")
	}
}

// TestPingIgnoresStaleSessionPong pins the stale-pong-across-reconnect
// bugfix: a pong buffered by a *previous* read session can surface exactly
// in the window between a new Ping's drain and its response — without
// generation tagging, the Ping would consume the stale token, fail the
// echo check, and condemn a healthy connection. The test reproduces the
// window deterministically: the server holds the real pong back while a
// stale-generation pong is injected into the rpc channel.
func TestPingIgnoresStaleSessionPong(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	gotPing := make(chan uint64, 4)
	release := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			f, err := netgossip.ReadFrame(conn)
			if err != nil {
				return
			}
			if f.Type != netgossip.FramePing {
				continue
			}
			gotPing <- f.Token
			<-release
			if err := netgossip.WriteFrame(conn, netgossip.Frame{Type: netgossip.FramePong, Token: f.Token}); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pingErr := make(chan error, 1)
	go func() { pingErr <- c.Ping() }()
	select {
	case <-gotPing:
	case <-time.After(5 * time.Second):
		t.Fatal("server never received the ping")
	}
	// The Ping has drained pongc and written its frame; now the previous
	// session's leftover pong arrives (what a reconnect turnover buffers).
	c.pongc <- taggedToken{token: 777, gen: c.sessionGen() - 1}
	close(release)
	select {
	case err := <-pingErr:
		if err != nil {
			t.Fatalf("Ping failed on a stale session's pong: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Ping never completed")
	}
	// The channel must not stay poisoned: the next exchange works too, and
	// the connection was never condemned.
	if err := c.Ping(); err != nil {
		t.Fatalf("follow-up Ping: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("healthy connection was torn down: %v", err)
	}
}
