package main

import (
	"crypto/rand"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nodesampling/internal/cluster"
	"nodesampling/internal/netgossip"
	"nodesampling/internal/subhub"
)

// newResumeToken draws a non-zero random resume token. Tokens gate nothing
// security-sensitive (a resumed phase only changes decimation spacing) but
// are unguessable anyway so one subscriber cannot disturb another's.
func newResumeToken() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0 // no entropy: subscriptions proceed without resume
		}
		if t := binary.BigEndian.Uint64(b[:]); t != 0 {
			return t
		}
	}
}

// Stream-endpoint limits. A subscriber asking for more buffer than
// maxSubscribeBuffer is clamped, not rejected: the cap is the daemon's
// memory-protection concern, not the client's. The read deadlines are the
// stream plane's slowloris defence, mirroring the HTTP server's timeouts:
// a connection that neither completes frames nor subscribes is cut after
// streamIdleTimeout, and even a subscribed connection must show some
// inbound life (a Ping suffices) within streamSubscribedIdleTimeout, so an
// attacker cannot pin goroutines and fds by opening connections and going
// silent. maxStreamConns bounds the total either way.
const (
	maxSubscribeBuffer          = 65536
	maxStreamConns              = 4096
	streamWriteTimeout          = 30 * time.Second
	streamIdleTimeout           = 2 * time.Minute
	streamSubscribedIdleTimeout = 15 * time.Minute
)

// streamServer serves the framed bidirectional protocol (version 2) on a
// TCP listener: persistent connections that push id batches up and carry
// the pool's output stream σ′, sample responses and keepalives down. It is
// the subscription-shaped surface the HTTP endpoints cannot offer — one
// connection instead of a poll loop per sample — and the daemon's one front
// door for frames: clients, gossiping nodes (connections that only ever
// push) and cluster members all arrive here, under the same
// connection cap, deadlines and TLS plane.
type streamServer struct {
	d *daemon

	// Connection accounting for /metrics: accepted admissions, refusals at
	// the connection limit, and protocol violations (undecodable frames,
	// unexpected types, double subscribes); and StreamData frames written,
	// which beside the subscribers' delivered ids gives ids per frame. Plain
	// atomics — the telemetry collector reads them at scrape time.
	accepted    atomic.Uint64
	rejected    atomic.Uint64
	frameErrors atomic.Uint64
	dataFrames  atomic.Uint64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// The subscription resume cache: when a subscribed connection tears
	// down, its decimation phase (Subscription.Seen) is parked here under
	// the resume token the SubAck handed out, so a reconnecting subscriber
	// presenting the token continues the 1-in-every cadence where the old
	// session left off instead of restarting the window. Entries are single
	// use, TTL-bounded and capped, so an attacker cannot grow the cache.
	resumeMu sync.Mutex
	resumes  map[uint64]resumeEntry
}

// resumeEntry is one parked decimation phase.
type resumeEntry struct {
	seen    uint64
	expires time.Time
}

// Resume-cache bounds: entries outlive a reconnect window, not a workday,
// and the cache can never hold more entries than the connection limit
// would have produced in a few cycles.
const (
	resumeTTL        = 15 * time.Minute
	maxResumeEntries = 4 * maxStreamConns
)

// parkResume stores a closed subscription's phase under its token.
func (s *streamServer) parkResume(token, seen uint64) {
	if token == 0 {
		return
	}
	now := time.Now()
	s.resumeMu.Lock()
	defer s.resumeMu.Unlock()
	if len(s.resumes) >= maxResumeEntries {
		for t, e := range s.resumes {
			if now.After(e.expires) {
				delete(s.resumes, t)
			}
		}
		if len(s.resumes) >= maxResumeEntries {
			return // still full of live entries: drop the newcomer, not them
		}
	}
	s.resumes[token] = resumeEntry{seen: seen, expires: now.Add(resumeTTL)}
}

// takeResume redeems a resume token: single use, expired entries refused.
func (s *streamServer) takeResume(token uint64) (uint64, bool) {
	if token == 0 {
		return 0, false
	}
	s.resumeMu.Lock()
	defer s.resumeMu.Unlock()
	e, ok := s.resumes[token]
	if !ok {
		return 0, false
	}
	delete(s.resumes, token)
	if time.Now().After(e.expires) {
		return 0, false
	}
	return e.seen, true
}

// listenStream starts serving the framed protocol on addr and returns the
// live listener (addr may carry port 0). With the TLS plane configured the
// listener is wrapped so every connection handshakes before its first
// frame — and, when -tls-client-ca is set, proves a certificate chained to
// that CA (mutual TLS): an unauthenticated peer never reaches the frame
// decoder, let alone the pool. The per-connection read deadlines double as
// handshake deadlines, since the handshake runs inside the first read.
func (d *daemon) listenStream(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return d.serveStream(ln), nil
}

// serveStream starts the framed protocol on an existing listener (tests
// pre-bind theirs so cluster member addresses are known before the daemons
// are constructed) and returns it, TLS-wrapped when the plane is on.
func (d *daemon) serveStream(ln net.Listener) net.Listener {
	if d.tlsStream != nil {
		ln = tls.NewListener(ln, d.tlsStream)
	}
	s := &streamServer{d: d, ln: ln, conns: make(map[net.Conn]struct{}), resumes: make(map[uint64]resumeEntry)}
	d.stream = s
	s.wg.Add(1)
	go s.acceptLoop()
	return ln
}

// streamConns reports the number of live framed connections (0 when the
// stream listener is disabled).
func (d *daemon) streamConns() int {
	if d.stream == nil {
		return 0
	}
	d.stream.mu.Lock()
	defer d.stream.mu.Unlock()
	return len(d.stream.conns)
}

func (s *streamServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		if len(s.conns) >= maxStreamConns {
			s.mu.Unlock()
			s.rejected.Add(1)
			s.d.logger.Warn("stream connection rejected",
				"remote", conn.RemoteAddr().String(), "reason", "connection limit",
				"limit", maxStreamConns)
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		s.d.logger.Debug("stream connection accepted", "remote", conn.RemoteAddr().String())
		go s.handle(conn)
	}
}

// Close stops the listener and every live connection, then joins all
// connection goroutines. Idempotent.
func (s *streamServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *streamServer) drop(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
}

// connWriter serialises frame writes from the read loop (sample responses,
// pongs, errors) and the subscription writer onto one connection. Every
// frame is encoded into the connection's one buffer, reused under the lock,
// and reaches the wire in a single Write, so a steady stream of frames
// allocates nothing. Every write carries a deadline so a stalled
// subscriber's TCP window cannot pin the goroutine forever.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

func (w *connWriter) write(f netgossip.Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, err := netgossip.AppendFrame(w.buf[:0], f)
	if err != nil {
		return err
	}
	w.buf = buf
	if err := w.conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout)); err != nil {
		return err
	}
	_, err = w.conn.Write(buf)
	return err
}

// handle runs one framed connection until protocol error, read failure or
// shutdown.
func (s *streamServer) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.drop(conn)
	defer s.d.logger.Debug("stream connection closed", "remote", conn.RemoteAddr().String())
	w := &connWriter{conn: conn}
	var sub *subhub.Subscription
	var subDone chan struct{}
	var resumeToken uint64
	defer func() {
		if sub != nil {
			sub.Cancel()
			<-subDone
			// Park the decimation phase so a reconnect presenting the token
			// resumes the 1-in-every cadence mid-window.
			if sub.Every() > 1 {
				s.parkResume(resumeToken, sub.Seen())
			}
		}
	}()
	// Buffer-reusing frame decoder: the ingest funnel and the pool copy the
	// ids they keep before the next Read overwrites them, so a persistent
	// stream connection pushes with zero per-frame allocations.
	fr := netgossip.NewFrameReader(conn)
	for {
		idle := streamIdleTimeout
		if sub != nil {
			idle = streamSubscribedIdleTimeout
		}
		if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
			return
		}
		f, err := fr.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.frameErrors.Add(1)
				s.d.logger.Debug("stream frame error",
					"remote", conn.RemoteAddr().String(), "error", err)
				// Best effort: name the offence before hanging up.
				_ = w.write(netgossip.Frame{Type: netgossip.FrameError, Msg: trimErr(err)})
			}
			return
		}
		switch f.Type {
		case netgossip.FramePushBatch:
			// A closed or overloaded pool only costs stream elements, which a
			// sampling service can always afford: the connection stays up
			// (and a gossiping peer expects no answer). The shared ingest
			// funnel observes the offered stream (uniformity probe, batch
			// latency, sampled trace) before the pool takes ownership of
			// the slice — and under -cluster, batches are partitioned and
			// routed to their owner members first.
			_ = s.d.ingestRouted(f.IDs, "stream")
		case netgossip.FrameForward:
			// A batch another member routed here because we own its slots.
			// Receivers ingest locally and NEVER re-forward: whatever the
			// routing tables say, a forwarded batch terminates here, so no
			// epoch disagreement can loop it. A stale epoch tag is counted;
			// the ids are still ingested (cluster sampling is Γ-weighted, a
			// misplaced id remains exactly as samplable).
			if s.d.cluster == nil {
				s.frameErrors.Add(1)
				_ = w.write(netgossip.Frame{Type: netgossip.FrameError, Msg: "not clustered"})
				return
			}
			if f.Token < s.d.cluster.Epoch() {
				s.d.cluster.NoteStaleForward()
			}
			_ = s.d.ingest(f.IDs, "forward")
		case netgossip.FrameSampleLocal:
			// A refill of the requester's reservoir for this member:
			// strictly local draws plus the |Γ| weight its cluster-wide
			// sample rounds deal quotas by. Answering with d.sampleN here
			// would recurse — this frame is the recursion's base case.
			n := int(f.N)
			if n > netgossip.MaxBatch {
				n = netgossip.MaxBatch
			}
			draws := s.d.pool.SampleN(n)
			gamma := uint64(s.d.pool.MemoryTotal())
			if err := w.write(netgossip.Frame{Type: netgossip.FrameSampleLocalResp, Token: gamma, IDs: draws}); err != nil {
				return
			}
		case netgossip.FrameMigrateState:
			// The import side of a live slot-range hand-off.
			m, err := cluster.DecodeMigration(f.Blob)
			if err != nil {
				s.frameErrors.Add(1)
				_ = w.write(netgossip.Frame{Type: netgossip.FrameError, Msg: trimErr(err)})
				return
			}
			epoch, err := s.d.importMigration(m)
			if err != nil {
				_ = w.write(netgossip.Frame{Type: netgossip.FrameError, Msg: trimErr(err)})
				return
			}
			if err := w.write(netgossip.Frame{Type: netgossip.FrameMigrateAck, Token: epoch}); err != nil {
				return
			}
		case netgossip.FramePlacementUpdate:
			// A migration elsewhere announcing its ownership flip. Stale
			// epochs are rejected by ApplyPlacement; nothing to answer.
			if s.d.cluster == nil {
				s.frameErrors.Add(1)
				_ = w.write(netgossip.Frame{Type: netgossip.FrameError, Msg: "not clustered"})
				return
			}
			s.d.cluster.ApplyPlacement(f.Token, int(f.SlotFrom), int(f.SlotTo), int(f.Owner))
		case netgossip.FrameSample:
			// A SampleResp frame carries at most MaxBatch ids, so that is
			// the cap here (tighter than the HTTP plane's maxSampleN): a
			// larger n must not make the response unencodable. Clustered
			// daemons answer over the union of member memories.
			n := int(f.N)
			if n > netgossip.MaxBatch {
				n = netgossip.MaxBatch
			}
			began := time.Now()
			samples := s.d.sampleN(n)
			s.d.latency.Sample.ObserveSince(began)
			if err := w.write(netgossip.Frame{Type: netgossip.FrameSampleResp, IDs: samples}); err != nil {
				return
			}
		case netgossip.FrameSubscribe:
			if sub != nil {
				// FrameError is terminal by protocol contract (the client
				// treats it as fatal), so hang up rather than leave the two
				// ends disagreeing about connection state.
				s.frameErrors.Add(1)
				_ = w.write(netgossip.Frame{Type: netgossip.FrameError, Msg: "already subscribed"})
				return
			}
			capacity := int(f.N)
			if capacity > maxSubscribeBuffer {
				capacity = maxSubscribeBuffer
			}
			every := int(f.Every)
			if every > subhub.MaxDecimation {
				every = subhub.MaxDecimation
			}
			// A presented token redeems the previous session's decimation
			// phase; none, or an unknown or expired one, starts a fresh window.
			initialSeen, _ := s.takeResume(f.Token)
			var err error
			sub, err = s.d.pool.SubscribeWith(subhub.SubOptions{
				Capacity:    capacity,
				Every:       every,
				RatePerSec:  f.Rate,
				InitialSeen: initialSeen,
			})
			if err != nil {
				_ = w.write(netgossip.Frame{Type: netgossip.FrameError, Msg: trimErr(err)})
				return
			}
			// The ack goes out before the writer starts, so it precedes the
			// subscription's first StreamData frame on the wire.
			subDone = make(chan struct{})
			resumeToken = newResumeToken()
			if err := w.write(netgossip.Frame{Type: netgossip.FrameSubAck, Token: resumeToken}); err != nil {
				close(subDone) // no writer to wait for at teardown
				return
			}
			go s.streamWriter(sub, w, subDone)
		case netgossip.FramePing:
			if err := w.write(netgossip.Frame{Type: netgossip.FramePong, Token: f.Token}); err != nil {
				return
			}
		default:
			s.frameErrors.Add(1)
			_ = w.write(netgossip.Frame{Type: netgossip.FrameError, Msg: "unexpected frame type"})
			return
		}
	}
}

// streamWriter forwards a subscription's σ′ draws as StreamData frames, a
// batch at a time: whatever the ring holds when Next returns (up to the wire
// limit) becomes one frame and one socket write, so what accumulates during
// a write rides the next frame and a fast stream costs one syscall per
// burst rather than per id. It is the subscription's only goroutine, and
// waits in Next without the connection's write lock, which the read loop's
// Pongs share. Exits when the subscription is cancelled or the connection
// dies.
func (s *streamServer) streamWriter(sub *subhub.Subscription, w *connWriter, done chan struct{}) {
	defer close(done)
	batch := make([]uint64, netgossip.MaxBatch)
	for {
		ids, ok := sub.Next(batch)
		if !ok {
			return
		}
		if err := w.write(netgossip.Frame{Type: netgossip.FrameStreamData, IDs: ids}); err != nil {
			// The connection is gone, or the subscriber stalled past the
			// write deadline — in which case a partial write may have left a
			// truncated frame on the wire, so the connection is unusable
			// either way. Drop it (the read loop then unwinds) and cancel
			// the subscription so the hub accounts the rest as drops.
			sub.Cancel()
			_ = w.conn.Close()
			return
		}
		s.dataFrames.Add(1)
	}
}

// trimErr bounds an error message to what an Error frame may carry.
func trimErr(err error) string {
	msg := err.Error()
	if len(msg) > netgossip.MaxErrorLen {
		msg = msg[:netgossip.MaxErrorLen]
	}
	if msg == "" {
		msg = "internal error"
	}
	return msg
}
