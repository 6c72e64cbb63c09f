package cluster

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
)

// ErrNotConnected is returned by member RPCs while the connection to that
// member is down (the dial loop keeps retrying in the background).
var ErrNotConnected = errors.New("cluster: member not connected")

// ErrRPCTimeout is returned by member RPCs whose response did not arrive in
// time; the connection is recycled, since a late response would otherwise
// be mistaken for the next exchange's answer.
var ErrRPCTimeout = errors.New("cluster: rpc timed out")

// A member's cached draws are served for at most reservoirMaxAge — an id
// stays in Γ until the stream evicts it, so a draw this young is distributed
// as a live one — and fetched at least reservoirRefill at a time.
const reservoirMaxAge, reservoirRefill = 10 * time.Millisecond, 256

// rpcResp is one response frame (or terminal error) tagged with the
// connection generation that produced it, the same stale-session defence
// the client package uses across its reconnects.
type rpcResp struct {
	gen   uint64
	typ   netgossip.FrameType
	token uint64 // |Γ| for sample responses, epoch for migrate acks
	ids   []uint64
	err   error
}

// memberConn is the persistent framed connection to one remote member:
// a dial/reconnect supervisor, a bounded forward queue drained by a writer
// goroutine, a reader goroutine dispatching RPC responses, and the
// single-outstanding RPC surface (migrate, the draw reservoir's refill) on top.
type memberConn struct {
	c            *Cluster
	idx          int
	addr         string
	tls          *tls.Config
	dialTimeout  time.Duration
	writeTimeout time.Duration

	q       chan []uint64 // forward batches awaiting delivery
	closing chan struct{}

	mu   sync.Mutex // guards conn identity and serialises frame writes
	conn net.Conn
	wbuf []byte // every frame is encoded here, under mu

	// gen is bumped per established connection. It is only written under
	// mc.mu, together with conn, so a holder of mc.mu always observes a
	// consistent (conn, gen) pair; lock-free readers (dropConn's recheck)
	// use the atomic load.
	gen atomic.Uint64

	// slot admits one request/response exchange at a time (refill or
	// migrate), so responses need no correlation ids on the wire; a channel,
	// so that the wait for it counts against the caller's timeout.
	slot chan struct{}
	rpcc chan rpcResp

	// The reservoir: the member's sample draws not served yet and its |Γ|, as
	// of connection generation resGen at resAt; resPick (splitmix64) picks.
	resMu    sync.Mutex
	res      []uint64
	resGamma uint64
	resGen   uint64
	resAt    time.Time
	resPick  uint64

	connected        atomic.Bool
	forwardedBatches atomic.Uint64
	forwardedIDs     atomic.Uint64
	forwardErrors    atomic.Uint64
	fallbackIDs      atomic.Uint64
	dialFailures     atomic.Uint64
	sampleRPCs       atomic.Uint64
	sampleErrors     atomic.Uint64
	drawsDiscarded   atomic.Uint64
}

func newMemberConn(c *Cluster, idx int, addr string, tlsCfg *tls.Config, queue int, dialTimeout, writeTimeout time.Duration) *memberConn {
	return &memberConn{
		c:            c,
		idx:          idx,
		addr:         addr,
		tls:          tlsCfg,
		dialTimeout:  dialTimeout,
		writeTimeout: writeTimeout,
		q:            make(chan []uint64, queue),
		closing:      make(chan struct{}),
		slot:         make(chan struct{}, 1),
		rpcc:         make(chan rpcResp, 1),
	}
}

// forward enqueues a batch (taking ownership of the slice); a full queue
// falls back to local ingest immediately rather than blocking the hot
// ingest path behind a slow member.
func (mc *memberConn) forward(ids []uint64) {
	select {
	case mc.q <- ids:
	default:
		mc.fallbackIDs.Add(uint64(len(ids)))
		mc.c.fallback(ids)
	}
}

// shutdown unblocks run and both per-connection goroutines.
func (mc *memberConn) shutdown() {
	close(mc.closing)
	mc.mu.Lock()
	if mc.conn != nil {
		_ = mc.conn.Close()
	}
	mc.mu.Unlock()
}

// run is the connection supervisor: dial with bounded backoff, run one
// connection's writer and reader until it fails, repeat until shutdown. On
// exit it drains the forward queue into the fallback sink so enqueued
// batches are ingested locally rather than dropped.
func (mc *memberConn) run() {
	defer mc.c.wg.Done()
	defer mc.drainToFallback()
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		select {
		case <-mc.closing:
			return
		default:
		}
		conn, err := netgossip.Dial(mc.addr, mc.tls, mc.dialTimeout)
		if err != nil {
			mc.dialFailures.Add(1)
			select {
			case <-time.After(backoff):
			case <-mc.closing:
				return
			}
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = 50 * time.Millisecond
		mc.mu.Lock()
		select {
		case <-mc.closing:
			mc.mu.Unlock()
			_ = conn.Close()
			return
		default:
		}
		mc.conn = conn
		gen := mc.gen.Add(1)
		mc.mu.Unlock()
		mc.connected.Store(true)
		mc.c.logger.Info("cluster member connected", "member", mc.addr)

		dead := make(chan struct{}) // closed by the reader when the connection fails
		readerDone := make(chan struct{})
		go mc.readLoop(conn, gen, dead, readerDone)
		mc.writeLoop(conn, dead)

		mc.connected.Store(false)
		mc.mu.Lock()
		mc.conn = nil
		mc.mu.Unlock()
		_ = conn.Close()
		<-readerDone
		mc.c.logger.Warn("cluster member disconnected", "member", mc.addr)
	}
}

// writeLoop drains the forward queue onto conn, tagging every Forward
// frame with the current placement epoch so the receiver can spot a stale
// routing decision. A failed write hands the batch to the fallback sink
// and recycles the connection.
func (mc *memberConn) writeLoop(conn net.Conn, dead chan struct{}) {
	for {
		select {
		case ids := <-mc.q:
			if _, err := mc.writeFrame(netgossip.Frame{Type: netgossip.FrameForward, Token: mc.c.Epoch(), IDs: ids}); err != nil {
				mc.forwardErrors.Add(1)
				mc.fallbackIDs.Add(uint64(len(ids)))
				mc.c.fallback(ids)
				return
			}
			mc.forwardedBatches.Add(1)
			mc.forwardedIDs.Add(uint64(len(ids)))
		case <-dead:
			return
		case <-mc.closing:
			return
		}
	}
}

// readLoop dispatches inbound frames until the connection fails: RPC
// responses to the single-slot rpc channel (tagged with the connection
// generation), placement updates to the routing table, pongs ignored.
func (mc *memberConn) readLoop(conn net.Conn, gen uint64, dead, done chan struct{}) {
	defer close(done)
	defer close(dead)
	fr := netgossip.NewFrameReader(conn)
	for {
		f, err := fr.Read()
		if err != nil {
			return
		}
		switch f.Type {
		case netgossip.FrameSampleLocalResp:
			// IDs alias the reader's buffer; copy before handing off.
			mc.deliver(rpcResp{gen: gen, typ: f.Type, token: f.Token, ids: append([]uint64(nil), f.IDs...)})
		case netgossip.FrameMigrateAck:
			mc.deliver(rpcResp{gen: gen, typ: f.Type, token: f.Token})
		case netgossip.FramePlacementUpdate:
			mc.c.ApplyPlacement(f.Token, int(f.SlotFrom), int(f.SlotTo), int(f.Owner))
		case netgossip.FramePong:
		case netgossip.FrameError:
			mc.deliver(rpcResp{gen: gen, err: fmt.Errorf("cluster: member %s: %s", mc.addr, f.Msg)})
			mc.c.logger.Warn("cluster member error frame", "member", mc.addr, "msg", f.Msg)
			return
		default:
			mc.c.logger.Warn("cluster member sent unexpected frame", "member", mc.addr, "type", int(f.Type))
			return
		}
	}
}

// deliver hands a response to the single-slot rpc channel, evicting a
// buffered stale one: with the slot admitting one exchange at a time, anything
// already buffered belongs to an abandoned or previous-session request.
func (mc *memberConn) deliver(r rpcResp) {
	select {
	case mc.rpcc <- r:
		return
	default:
	}
	select {
	case <-mc.rpcc:
	default:
	}
	select {
	case mc.rpcc <- r:
	default:
	}
}

// writeFrame sends one frame under the connection lock with a write
// deadline, so a wedged member cannot pin the writer (or an RPC) forever.
// It returns the generation of the connection the frame was written to —
// conn and gen are read together under mc.mu, so an RPC can match its
// response against the connection that actually carried the request even
// when a reconnect lands mid-call.
func (mc *memberConn) writeFrame(f netgossip.Frame) (uint64, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	conn := mc.conn
	if conn == nil {
		return 0, ErrNotConnected
	}
	gen := mc.gen.Load()
	buf, err := netgossip.AppendFrame(mc.wbuf[:0], f)
	if err != nil {
		return gen, err
	}
	mc.wbuf = buf
	_ = conn.SetWriteDeadline(time.Now().Add(mc.writeTimeout))
	_, err = conn.Write(buf)
	_ = conn.SetWriteDeadline(time.Time{})
	return gen, err
}

// lockSlot wins the member's one exchange slot, or gives up after timeout
// without recycling the connection: the exchange in flight is healthy. The
// winner's exchange has the timeout over again, from its write, as before.
func (mc *memberConn) lockSlot(timeout time.Duration) error {
	select {
	case mc.slot <- struct{}{}:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("%w: member %s busy", ErrRPCTimeout, mc.addr)
	case <-mc.closing:
		return ErrNotConnected
	}
}

// exchange runs one request/response exchange with the slot held: write req,
// wait for a response of type want from the same connection generation. A
// timeout recycles the connection (a late response must not answer the next).
func (mc *memberConn) exchange(req netgossip.Frame, want netgossip.FrameType, timeout time.Duration) (rpcResp, error) {
	if !mc.connected.Load() {
		return rpcResp{}, ErrNotConnected
	}
	select { // clear any abandoned predecessor response
	case <-mc.rpcc:
	default:
	}
	gen, err := mc.writeFrame(req)
	if err != nil {
		return rpcResp{}, err
	}
	deadline := time.After(timeout)
	for {
		select {
		case r := <-mc.rpcc:
			if r.gen != gen {
				continue // buffered response from a dead connection
			}
			if r.err != nil {
				return rpcResp{}, r.err
			}
			if r.typ != want {
				return rpcResp{}, fmt.Errorf("cluster: member %s answered frame type %d, want %d", mc.addr, r.typ, want)
			}
			return r, nil
		case <-deadline:
			mc.dropConn(gen)
			return rpcResp{}, fmt.Errorf("%w: member %s", ErrRPCTimeout, mc.addr)
		case <-mc.closing:
			return rpcResp{}, ErrNotConnected
		}
	}
}

// dropConn closes the current connection if it is still the one the failed
// exchange was written to, forcing a reconnect without penalising a
// healthy successor.
func (mc *memberConn) dropConn(gen uint64) {
	mc.mu.Lock()
	conn := mc.conn
	current := mc.gen.Load() == gen
	mc.mu.Unlock()
	if current && conn != nil {
		_ = conn.Close()
	}
}

// live reports, under resMu, whether the reservoir may still be served from:
// filled over the connection that is up now, at most reservoirMaxAge ago.
// Draws that may not are dropped, and counted.
func (mc *memberConn) live() bool {
	if mc.connected.Load() && mc.resGen == mc.gen.Load() && mc.c.now().Sub(mc.resAt) <= reservoirMaxAge {
		return true
	}
	mc.drawsDiscarded.Add(uint64(len(mc.res)))
	mc.res = mc.res[:0]
	return false
}

// take moves n draws from the reservoir to dst and returns the member's
// cached |Γ|, after at most one refill; n = 0 only reads the weight. The
// draws are a uniformly random subset of the reservoir, not its front: the
// pool groups them by shard, so a prefix would favour the member's first
// shards. Fewer than n come back when the member's Γ is empty or concurrent
// takers drained the refill.
func (mc *memberConn) take(dst []uint64, n int, timeout time.Duration) ([]uint64, uint64, error) {
	mc.resMu.Lock()
	defer mc.resMu.Unlock()
	if !mc.live() || len(mc.res) < n {
		if err := mc.refill(n, timeout); err != nil {
			return dst, 0, err
		}
	}
	for n = min(n, len(mc.res)); n > 0; n-- {
		last := len(mc.res) - 1
		k := rng.SplitMix64(&mc.resPick) % uint64(last+1) // bias under 2⁻⁵⁰
		dst = append(dst, mc.res[k])
		mc.res[k] = mc.res[last]
		mc.res = mc.res[:last]
	}
	return dst, mc.resGamma, nil
}

// refill tops the reservoir up to need draws with one sample exchange,
// unless a concurrent taker's refill did while this one waited for the
// slot. What is left of a live reservoir stays, and keeps its age. Called
// and returning with resMu held — released while it waits, but not between
// filling the reservoir and the caller's serving from it, so that what an
// exchange just brought is never found too old.
func (mc *memberConn) refill(need int, timeout time.Duration) error {
	mc.resMu.Unlock()
	err := mc.lockSlot(timeout)
	mc.resMu.Lock()
	if err != nil {
		return err
	}
	defer func() { <-mc.slot }()
	if mc.live() && len(mc.res) >= need {
		return nil
	}
	mc.sampleRPCs.Add(1)
	req := netgossip.Frame{Type: netgossip.FrameSampleLocal, N: uint32(min(max(need-len(mc.res), reservoirRefill), netgossip.MaxBatch))}
	mc.resMu.Unlock()
	r, err := mc.exchange(req, netgossip.FrameSampleLocalResp, timeout)
	mc.resMu.Lock()
	if err != nil {
		mc.sampleErrors.Add(1)
		return err
	}
	if !mc.live() { // which emptied it
		mc.resGen, mc.resAt = r.gen, mc.c.now()
	}
	mc.res, mc.resGamma = append(mc.res, r.ids...), r.token
	if r.gen != mc.gen.Load() || !mc.connected.Load() { // it went away under the exchange
		return ErrNotConnected
	}
	return nil
}

// migrate transfers a migration blob and waits for the ack carrying the
// placement epoch the target installed.
func (mc *memberConn) migrate(blob []byte, timeout time.Duration) (uint64, error) {
	if err := mc.lockSlot(timeout); err != nil {
		return 0, err
	}
	defer func() { <-mc.slot }()
	r, err := mc.exchange(netgossip.Frame{Type: netgossip.FrameMigrateState, Blob: blob}, netgossip.FrameMigrateAck, timeout)
	if err != nil {
		return 0, err
	}
	return r.token, nil
}

// sendPlacement enqueues a placement announcement on the connection,
// best-effort: a down member misses it and catches up via stale-forward
// epochs.
func (mc *memberConn) sendPlacement(epoch uint64, from, to, owner int) {
	_, _ = mc.writeFrame(netgossip.Frame{
		Type:     netgossip.FramePlacementUpdate,
		Token:    epoch,
		SlotFrom: uint32(from),
		SlotTo:   uint32(to),
		Owner:    uint32(owner),
	})
}

// drainToFallback hands every still-queued forward batch to local ingest
// on shutdown or terminal disconnect — the cluster layer never loses ids.
func (mc *memberConn) drainToFallback() {
	for {
		select {
		case ids := <-mc.q:
			mc.fallbackIDs.Add(uint64(len(ids)))
			mc.c.fallback(ids)
		default:
			return
		}
	}
}
