// Package client speaks the unsd daemon's framed bidirectional protocol
// over a single TCP connection: push identifier batches up, subscribe to
// the sampling service's continuous output stream σ′ down, and issue
// sample requests and keepalives in between — the paper's stream-in/
// stream-out service shape without per-sample HTTP round trips.
//
// A Client is safe for concurrent use. Writes are serialised internally; a
// dedicated reader goroutine dispatches stream data, sample responses and
// pongs, so a subscription keeps flowing while other calls are in flight.
//
// Clients dialled with DialOptions.Reconnect survive daemon restarts: when
// the connection drops, the client redials with exponential backoff and
// jitter, re-issues its Subscribe (same capacity, decimation interval and
// rate cap, plus the resume token the daemon acknowledged the old one with)
// on the fresh connection, and keeps the subscription channel open
// throughout — the consumer only observes a gap in the stream. Paired with
// the daemon's -snapshot-path restore, a restart costs neither the
// subscriber nor the sampler's accumulated frequency state.
//
// Typical session:
//
//	c, err := client.DialWithOptions("127.0.0.1:7947", client.DialOptions{Reconnect: true})
//	defer c.Close()
//	out, _ := c.Subscribe(1024)
//	go func() {
//	    for id := range out { use(id) }
//	}()
//	c.PushBatch(ids) // as the overlay gossips them in
//
// Ids are nodeid.NodeID, the same type as nodesampling.NodeID. Code that
// only talks to a daemon should import nodesampling/nodeid to name it:
// importing nodesampling makes its build depend on the whole sampler.
package client

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nodesampling/internal/netgossip"
	"nodesampling/internal/rng"
	"nodesampling/nodeid"
)

// ErrClosed is returned by calls on a client whose connection has been
// closed (by Close, a server Error frame, or a connection failure — Err
// tells them apart).
var ErrClosed = errors.New("client: connection closed")

// MaxSubscribeCapacity bounds Subscribe's buffer argument: it caps the
// client-side channel allocation (the daemon additionally clamps its own
// buffer to a smaller operational limit).
const MaxSubscribeCapacity = 1 << 20

// MaxSubscribeEvery bounds the decimation interval to the daemon's own
// limit.
const MaxSubscribeEvery = netgossip.MaxDecimation

// rpcTimeout bounds how long Sample and Ping wait for their response frame.
const rpcTimeout = 30 * time.Second

// handshakeTimeout bounds both the TCP connect and the TLS handshake of a
// fresh connection, so a black-holed endpoint (SYNs silently dropped) or a
// byte-trickling one cannot pin a dial — or the reconnect supervisor, or a
// Close waiting behind it — for the OS's multi-minute connect timeout.
const handshakeTimeout = 30 * time.Second

// DialOptions configures DialWithOptions. The zero value behaves exactly
// like Dial: one connection, no reconnection.
type DialOptions struct {
	// Reconnect enables automatic redialling after the connection fails:
	// exponential backoff from MinBackoff to MaxBackoff with random jitter
	// (so a daemon restart is not greeted by a synchronised thundering
	// herd), and automatic re-subscription of an active stream.
	Reconnect bool
	// MinBackoff is the first retry delay (default 50ms).
	MinBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 5s).
	MaxBackoff time.Duration
	// MaxAttempts limits consecutive failed dial attempts before the client
	// gives up and closes permanently. 0 means retry forever (until Close).
	MaxAttempts int
	// TLS, when non-nil, wraps every connection (the initial dial and each
	// reconnect) in a TLS client handshake before any frame is exchanged —
	// the transport the unsd daemon serves under -tls-cert/-tls-key. Supply
	// RootCAs to authenticate the daemon and Certificates when the daemon
	// demands mutual TLS (-tls-client-ca). When ServerName is empty the
	// host part of the dialled address is filled in, like tls.Dial does.
	// The config composes with Reconnect: a restarted daemon is redialled
	// and re-handshaken with the same credentials, and the subscription is
	// re-issued on the freshly authenticated connection.
	TLS *tls.Config
}

func (o DialOptions) withDefaults() DialOptions {
	if o.MinBackoff <= 0 {
		o.MinBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.MaxBackoff < o.MinBackoff {
		o.MaxBackoff = o.MinBackoff
	}
	return o
}

// taggedToken is a pong response tagged with the read-session generation
// that produced it, so a pong buffered across a reconnect can never be
// mistaken for the current session's answer.
type taggedToken struct {
	token uint64
	gen   uint64
}

// taggedIDs is a sample response tagged the same way.
type taggedIDs struct {
	ids []uint64
	gen uint64
}

// Client is one framed connection to an unsd daemon (transparently
// re-established under DialOptions.Reconnect).
type Client struct {
	addr string
	opts DialOptions

	// Cluster dialling (DialCluster): the full address list and the index
	// of the member currently dialled. A failed redial attempt rotates to
	// the next member, so a down daemon only costs one backoff step before
	// the client rides a healthy one. Guarded by mu after construction.
	addrs   []string
	addrIdx int

	// canRedial is fixed at construction: whether the client knows an
	// address to redial at all (false for New over a raw connection).
	canRedial bool

	wmu sync.Mutex // serialises frame writes

	// rpcMu admits one request/response exchange (Sample or Ping) at a
	// time, so responses need no correlation ids on the wire.
	rpcMu   sync.Mutex
	samplec chan taggedIDs
	pongc   chan taggedToken

	mu       sync.Mutex
	conn     net.Conn           // current connection; swapped on reconnect
	gen      uint64             // bumped with every fresh connection (session identity)
	stream   chan nodeid.NodeID // nil until Subscribe
	subCap   int                // saved Subscribe arguments for re-subscription
	subEvery int
	subRate  uint32 // saved delivery rate cap (ids/second; 0 uncapped)
	// resumeToken is the daemon's SubAck token for the live subscription
	// (0 until the ack arrives); a re-subscription presents it so the server
	// resumes the decimation phase where the old session left off instead
	// of restarting the 1-in-every window.
	resumeToken uint64
	err         error // first fatal error, behind done

	done          chan struct{} // closed when the supervisor exits for good
	closing       atomic.Bool
	closingCh     chan struct{} // closed by Close; unblocks backoff sleeps
	closeOnce     sync.Once
	pingSeq       atomic.Uint64
	streamDropped atomic.Uint64
	reconnects    atomic.Uint64
}

// Dial connects to an unsd stream listener.
func Dial(addr string) (*Client, error) {
	return DialWithOptions(addr, DialOptions{})
}

// DialWithOptions connects to an unsd stream listener with explicit
// resilience and transport options. The initial dial — TLS handshake
// included when DialOptions.TLS is set — is synchronous, so a bad address,
// an unauthentic server certificate or a rejected client certificate fails
// immediately; only established connections are re-dialled.
func DialWithOptions(addr string, opts DialOptions) (*Client, error) {
	opts = opts.withDefaults()
	conn, err := netgossip.Dial(addr, opts.TLS, handshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c := newClient(conn)
	c.addr = addr
	c.canRedial = addr != ""
	c.opts = opts
	go c.supervise(conn)
	return c, nil
}

// DialCluster connects to one member of an unsd cluster, trying the given
// stream addresses in order until one answers. Under DialOptions.Reconnect
// a lost connection rotates through the member list on every failed redial
// attempt, so the client rides whichever members are up — any member can
// ingest (batches are routed to their owners internally) and any member
// answers Sample over the whole cluster, so members are interchangeable
// endpoints.
func DialCluster(addrs []string, opts DialOptions) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: no cluster addresses")
	}
	opts = opts.withDefaults()
	var conn net.Conn
	var err error
	idx := -1
	for i, a := range addrs {
		if conn, err = netgossip.Dial(a, opts.TLS, handshakeTimeout); err == nil {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("client: dial cluster %v: %w", addrs, err)
	}
	c := newClient(conn)
	c.addr = addrs[idx]
	c.addrs = append([]string(nil), addrs...)
	c.addrIdx = idx
	c.canRedial = true
	c.opts = opts
	go c.supervise(conn)
	return c, nil
}

// currentAddr reads the address the next dial should use.
func (c *Client) currentAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// rotateAddr advances to the next cluster member after a failed dial
// attempt; single-address clients keep their one address.
func (c *Client) rotateAddr() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.addrs) > 1 {
		c.addrIdx = (c.addrIdx + 1) % len(c.addrs)
		c.addr = c.addrs[c.addrIdx]
	}
}

// New wraps an established connection (any net.Conn speaking the framed
// protocol). The client owns the connection from this point. A client
// built from a raw connection has no address to redial, so it never
// reconnects.
func New(conn net.Conn) *Client {
	c := newClient(conn)
	go c.supervise(conn)
	return c
}

func newClient(conn net.Conn) *Client {
	return &Client{
		conn:      conn,
		gen:       1,
		samplec:   make(chan taggedIDs, 1),
		pongc:     make(chan taggedToken, 1),
		done:      make(chan struct{}),
		closingCh: make(chan struct{}),
	}
}

// supervise owns the connection lifecycle: it runs read sessions and — when
// reconnection is enabled — replaces failed connections until Close or the
// attempt budget is exhausted. Backoff state survives across sessions: a
// connection that dies before proving itself productive (no frame read,
// gone within a backoff window) counts as one more failed attempt rather
// than resetting the clock, so a daemon that accepts-then-drops (full, or
// crash-looping) is retried at backoff pace, not network speed.
func (c *Client) supervise(conn net.Conn) {
	attempts := 0
	backoff := c.opts.MinBackoff
	var err error
	for {
		c.mu.Lock()
		gen := c.gen
		c.mu.Unlock()
		started := time.Now()
		var productive bool
		productive, err = c.readSession(conn, gen)
		if productive || time.Since(started) > c.opts.MaxBackoff {
			attempts, backoff = 0, c.opts.MinBackoff
		}
		if c.closing.Load() || !c.opts.Reconnect || !c.canRedial {
			break
		}
		var rerr error
		conn, attempts, backoff, rerr = c.redial(attempts, backoff)
		if rerr != nil {
			err = rerr
			break
		}
		c.reconnects.Add(1)
	}
	c.finalize(err)
}

// readSession is one connection's read loop: it dispatches every incoming
// frame until the connection fails or the server reports a terminal error.
// gen identifies the session, and every rpc response is delivered tagged
// with it: a pong (or sample response) left buffered when the session dies
// must not be mistaken for the next session's answer — without the tag, a
// Ping straddling a reconnect could consume the previous session's pong
// token, fail the echo check, and condemn a perfectly healthy connection.
// productive reports whether at least one frame was read (the signal that
// the dial reached a live daemon, used to reset the reconnect backoff).
func (c *Client) readSession(conn net.Conn, gen uint64) (productive bool, err error) {
	for {
		f, err := netgossip.ReadFrame(conn)
		if err != nil {
			return productive, err
		}
		productive = true
		switch f.Type {
		case netgossip.FrameStreamData:
			c.dispatchStream(f.IDs)
		case netgossip.FrameSampleResp:
			deliverRPC(c.samplec, taggedIDs{ids: f.IDs, gen: gen})
		case netgossip.FramePong:
			deliverRPC(c.pongc, taggedToken{token: f.Token, gen: gen})
		case netgossip.FrameSubAck:
			// The daemon's subscription acknowledgement: the token redeems
			// this subscription's decimation phase on a reconnect.
			c.mu.Lock()
			c.resumeToken = f.Token
			c.mu.Unlock()
		case netgossip.FrameError:
			return productive, fmt.Errorf("client: server error: %s", f.Msg)
		default:
			return productive, fmt.Errorf("client: unexpected frame type %d from server", f.Type)
		}
	}
}

// deliverRPC hands a response to the single-slot rpc channel, evicting
// whatever is already buffered when it is full — by construction an
// abandoned or stale-session response, which must never be the reason the
// current response is the one dropped. Only one read session runs at a
// time, so the evict-and-retry cannot race another producer; a consumer
// stealing the buffered slot in between just makes the retry succeed.
func deliverRPC[T any](ch chan T, v T) {
	select {
	case ch <- v:
		return
	default:
	}
	select {
	case <-ch:
	default:
	}
	select {
	case ch <- v:
	default:
	}
}

// redial re-establishes the connection with exponential backoff and
// jitter, then re-issues the stream subscription if one is active. It
// returns the new live connection, already installed as c.conn, along with
// the carried-forward attempt count and backoff. Every failure mode — dial
// error, teardown during dial, re-subscribe write failure — spends one
// attempt against MaxAttempts and waits out the backoff.
func (c *Client) redial(attempts int, backoff time.Duration) (net.Conn, int, time.Duration, error) {
	jitter := rng.New(uint64(time.Now().UnixNano()))
	for {
		if attempts > 0 {
			// Full jitter keeps a fleet of clients from re-dialling a
			// restarted daemon in lockstep.
			delay := backoff/2 + time.Duration(jitter.Uint64n(uint64(backoff/2)+1))
			select {
			case <-time.After(delay):
			case <-c.closingCh:
				return nil, attempts, backoff, ErrClosed
			}
			backoff *= 2
			if backoff > c.opts.MaxBackoff {
				backoff = c.opts.MaxBackoff
			}
		}
		if c.closing.Load() {
			return nil, attempts, backoff, ErrClosed
		}
		attempts++
		addr := c.currentAddr()
		conn, err := netgossip.Dial(addr, c.opts.TLS, handshakeTimeout)
		if err == nil {
			c.mu.Lock()
			if c.closing.Load() {
				c.mu.Unlock()
				_ = conn.Close()
				return nil, attempts, backoff, ErrClosed
			}
			c.conn = conn
			c.gen++ // a fresh session: rpc responses of the old one are stale
			subscribed, capacity, every := c.stream != nil, c.subCap, c.subEvery
			rate, token := c.subRate, c.resumeToken
			c.mu.Unlock()
			if subscribed {
				// The re-subscription carries the previous session's resume
				// token, so the daemon continues the decimation phase
				// mid-window instead of restarting it.
				if werr := c.write(netgossip.Frame{Type: netgossip.FrameSubscribe, N: uint32(capacity), Every: uint32(every), Rate: rate, Token: token}); werr != nil {
					// The fresh connection died before the subscription was
					// re-established; treat it like any other failed attempt.
					_ = conn.Close()
					err = werr
				}
			}
			if err == nil {
				return conn, attempts, backoff, nil
			}
		}
		// Move on to the next cluster member (if there is one) before the
		// backoff sleep: one down daemon costs one attempt, not the client.
		c.rotateAddr()
		if c.opts.MaxAttempts > 0 && attempts >= c.opts.MaxAttempts {
			return nil, attempts, backoff, fmt.Errorf("client: reconnect to %s gave up after %d attempts: %w", addr, attempts, err)
		}
	}
}

// finalize records the terminal error and tears the client down. It is the
// only closer of the subscription channel, so stream sends never race a
// close.
func (c *Client) finalize(err error) {
	c.mu.Lock()
	if c.closing.Load() {
		c.err = ErrClosed
	} else {
		c.err = err
	}
	stream := c.stream
	c.stream = nil
	conn := c.conn
	c.mu.Unlock()
	_ = conn.Close()
	close(c.done)
	if stream != nil {
		close(stream)
	}
}

// dispatchStream hands σ′ ids to the subscription channel without ever
// blocking the reader: a full buffer drops the new arrivals (counted), so
// a stalled consumer cannot wedge sample responses behind stream data.
func (c *Client) dispatchStream(ids []uint64) {
	c.mu.Lock()
	stream := c.stream
	c.mu.Unlock()
	if stream == nil {
		c.streamDropped.Add(uint64(len(ids)))
		return
	}
	for i, id := range ids {
		select {
		case stream <- nodeid.NodeID(id):
		default:
			c.streamDropped.Add(uint64(len(ids) - i))
			return
		}
	}
}

// write sends one frame under the write lock, against the current
// connection. During a reconnection window the stale connection fails the
// write, surfacing a transient error to the caller.
func (c *Client) write(f netgossip.Frame) error {
	_, err := c.writeRPC(f)
	return err
}

// writeRPC is write for request/response exchanges: it also returns the
// session generation the frame was written against, so the caller can
// match the response to the session that should answer it (and recognise
// that no answer can come once that session is gone).
func (c *Client) writeRPC(f netgossip.Frame) (uint64, error) {
	select {
	case <-c.done:
		return 0, c.Err()
	default:
	}
	c.mu.Lock()
	conn := c.conn
	gen := c.gen
	c.mu.Unlock()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := netgossip.WriteFrame(conn, f); err != nil {
		return gen, fmt.Errorf("client: write: %w", err)
	}
	return gen, nil
}

// sessionGen reports the generation of the current connection.
func (c *Client) sessionGen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// PushBatch feeds identifiers into the daemon's input stream. Batches
// larger than the wire limit are split transparently. The slice may be
// reused after the call returns.
func (c *Client) PushBatch(ids []nodeid.NodeID) error {
	for len(ids) > 0 {
		n := len(ids)
		if n > netgossip.MaxBatch {
			n = netgossip.MaxBatch
		}
		raw := make([]uint64, n)
		for i, id := range ids[:n] {
			raw[i] = uint64(id)
		}
		if err := c.write(netgossip.Frame{Type: netgossip.FramePushBatch, IDs: raw}); err != nil {
			return err
		}
		ids = ids[n:]
	}
	return nil
}

// Sample requests n uniform samples (1 ≤ n; the daemon caps how many it
// answers with). An empty slice with a nil error means the pool holds no
// ids yet.
func (c *Client) Sample(n int) ([]nodeid.NodeID, error) {
	// A SampleResp frame carries at most MaxBatch ids, so larger requests
	// could never be answered in full anyway.
	if n < 1 || n > netgossip.MaxBatch {
		return nil, fmt.Errorf("client: sample count must be in [1, %d], got %d", netgossip.MaxBatch, n)
	}
	c.rpcMu.Lock()
	defer c.rpcMu.Unlock()
	// Clear any abandoned response from a timed-out predecessor.
	select {
	case <-c.samplec:
	default:
	}
	gen, err := c.writeRPC(netgossip.Frame{Type: netgossip.FrameSample, N: uint32(n)})
	if err != nil {
		return nil, err
	}
	timeout := time.After(rpcTimeout)
	for {
		select {
		case resp := <-c.samplec:
			if resp.gen != gen {
				// A response buffered by a previous session (possible when
				// the rpc straddles a reconnect) answers a request that no
				// longer exists; keep waiting for this session's answer.
				continue
			}
			out := make([]nodeid.NodeID, len(resp.ids))
			for i, id := range resp.ids {
				out[i] = nodeid.NodeID(id)
			}
			return out, nil
		case <-c.done:
			return nil, c.Err()
		case <-timeout:
			// The response may still arrive later and would be mistaken for
			// the answer to the next request; the connection is indeterminate
			// now, so tear it down — unless the session this request was
			// written to is already gone and replaced, in which case the
			// successor is healthy and owes this rpc nothing.
			c.dropSessionIf(gen)
			return nil, errors.New("client: sample response timed out")
		}
	}
}

// dropSessionIf discards the current connection, but only if it is still
// the session the failed rpc was written to: the generation comparison and
// the connection capture happen under one lock acquisition, so a redial
// landing between an rpc timeout and its teardown can never cost the
// healthy successor its fresh connection (closing the captured connection
// outside the lock is safe — it is the stale session's, already dead). A
// reconnecting client then gets a replacement from the supervisor
// (re-subscribing as needed); any other client closes for good.
func (c *Client) dropSessionIf(gen uint64) {
	if c.opts.Reconnect && c.canRedial {
		c.mu.Lock()
		conn := c.conn
		current := c.gen == gen
		c.mu.Unlock()
		if current {
			_ = conn.Close()
		}
		return
	}
	_ = c.Close()
}

// Ping round-trips a keepalive token and verifies the echo.
func (c *Client) Ping() error {
	c.rpcMu.Lock()
	defer c.rpcMu.Unlock()
	select {
	case <-c.pongc:
	default:
	}
	token := c.pingSeq.Add(1)
	gen, err := c.writeRPC(netgossip.Frame{Type: netgossip.FramePing, Token: token})
	if err != nil {
		return err
	}
	timeout := time.After(rpcTimeout)
	for {
		select {
		case echo := <-c.pongc:
			if echo.gen != gen {
				// The previous session's pong, buffered across a reconnect:
				// not this Ping's echo, and no reason to fail a healthy new
				// session. Wait on.
				continue
			}
			if echo.token != token {
				return fmt.Errorf("client: pong token %d, want %d", echo.token, token)
			}
			return nil
		case <-c.done:
			return c.Err()
		case <-timeout:
			// As with Sample: a late pong would desynchronise the next
			// exchange, so drop the session — but only the session this ping
			// was actually written to, never a healthy successor.
			c.dropSessionIf(gen)
			return errors.New("client: pong timed out")
		}
	}
}

// Subscribe asks the daemon to stream σ′ to this connection and returns
// the channel carrying it, buffered to the given capacity. Only one
// subscription per connection; the channel closes when the client closes
// for good (under DialOptions.Reconnect it stays open across daemon
// restarts, and the subscription is re-issued automatically on the fresh
// connection). A consumer that stops reading loses the newest arrivals
// (StreamDropped counts them) — the daemon additionally sheds oldest
// buffered draws on its side, so a stalled subscriber never builds an
// unbounded backlog anywhere. The daemon cuts connections with no inbound
// traffic for an extended period (its slowloris defence); a subscriber
// that pushes nothing should call Ping every few minutes to keep the
// stream alive.
func (c *Client) Subscribe(capacity int) (<-chan nodeid.NodeID, error) {
	return c.SubscribeEvery(capacity, 1)
}

// SubscribeEvery is Subscribe with per-subscription decimation: the daemon
// delivers only every every-th σ′ draw, so a modest consumer rides the
// stream at a rate it can afford (a 1-in-k thinning of an i.i.d. uniform
// stream is itself i.i.d. uniform).
//
// The daemon acknowledges every subscription with a resume token (the
// client does not wait for it). Under DialOptions.Reconnect the re-issued
// subscription presents it, and the server seeds the fresh subscription's
// offer counter with the old one's — so across the whole stitched stream,
// two deliveries stay (at least) every offered draws apart. A daemon that
// does not know the token (it restarted, or the token expired) starts a
// fresh window, which can only stretch delivery spacing, never compress it.
func (c *Client) SubscribeEvery(capacity, every int) (<-chan nodeid.NodeID, error) {
	return c.SubscribeRate(capacity, every, 0)
}

// SubscribeRate is SubscribeEvery with a delivery rate cap: the daemon
// discards (and accounts) deliveries beyond rate ids/second for this
// subscription, enforced server-side with a token bucket allowing one
// second of burst. rate 0 leaves the subscription uncapped. Decimation
// composes with the cap: the 1-in-every thinning runs first, the bucket
// meters what survives it.
func (c *Client) SubscribeRate(capacity, every int, rate uint32) (<-chan nodeid.NodeID, error) {
	if capacity < 1 || capacity > MaxSubscribeCapacity {
		return nil, fmt.Errorf("client: subscription capacity must be in [1, %d], got %d", MaxSubscribeCapacity, capacity)
	}
	if every < 1 || every > MaxSubscribeEvery {
		return nil, fmt.Errorf("client: decimation interval must be in [1, %d], got %d", MaxSubscribeEvery, every)
	}
	c.mu.Lock()
	if c.stream != nil {
		c.mu.Unlock()
		return nil, errors.New("client: already subscribed")
	}
	// c.err is assigned inside the supervisor's final c.mu section, before
	// it snapshots c.stream for closing — so checking it here (rather than
	// c.done, which closes later) guarantees either this registration is
	// observed by the teardown or the teardown is observed here.
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	ch := make(chan nodeid.NodeID, capacity)
	c.stream = ch
	c.subCap, c.subEvery, c.subRate = capacity, every, rate
	c.mu.Unlock()
	if err := c.write(netgossip.Frame{Type: netgossip.FrameSubscribe, N: uint32(capacity), Every: uint32(every), Rate: rate}); err != nil {
		if c.opts.Reconnect && c.canRedial && !c.closing.Load() {
			// The registration stands: the supervisor will re-issue it on
			// the next connection, so the subscription survives a restart
			// that lands exactly here.
			return ch, nil
		}
		// The supervisor is the only closer of the stream channel (closing
		// it here would race a concurrent dispatchStream send); a
		// connection whose Subscribe could not be written is dead weight
		// anyway, so tear it down and let the supervisor close ch on its
		// way out.
		_ = c.Close()
		return nil, err
	}
	return ch, nil
}

// StreamDropped reports how many σ′ ids the client discarded because the
// subscription buffer was full when they arrived.
func (c *Client) StreamDropped() uint64 { return c.streamDropped.Load() }

// Reconnects reports how many times the client re-established its
// connection (always 0 without DialOptions.Reconnect).
func (c *Client) Reconnects() uint64 { return c.reconnects.Load() }

// Err returns the error that terminated the connection, or nil while it is
// live (including while a reconnecting client is between connections).
func (c *Client) Err() error {
	select {
	case <-c.done:
	default:
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down and waits for the supervisor (closing
// any subscription channel). Idempotent.
func (c *Client) Close() error {
	c.closing.Store(true)
	c.closeOnce.Do(func() { close(c.closingCh) })
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	_ = conn.Close()
	<-c.done
	return nil
}
