package netgossip

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The framed protocol (version 2) is the bidirectional successor of the
// one-way batch protocol: one persistent connection carries id batches
// upstream and the sampling service's output stream σ′ (plus sample
// request/responses and keepalives) downstream. Every frame is
//
//	magic (1) | version (1) | type (1) | payload length (uint32 BE) | payload
//
// with the payload length hard-bounded before any allocation, so a hostile
// peer can neither stall a correct node nor force a large allocation —
// exactly the discipline of the v1 batch decoder, extended to a frame
// vocabulary. The v2 magic differs from the v1 magic so that a client
// speaking the wrong protocol on a listener fails on the first byte with a
// clear error instead of a payload-shaped surprise.
const (
	frameMagic   = 0x55 // 'U'; v1's batch protocol uses 0x75 ('u')
	FrameVersion = 2
	// MaxFramePayload bounds a single frame's payload: enough for MaxBatch
	// 64-bit ids and nothing bigger. Frames that prefix an id batch with an
	// 8-byte header word (Forward, SampleLocalResp) are allowed exactly
	// those 8 bytes more; MigrateState frames carry a state blob under
	// their own, larger bound.
	MaxFramePayload = 8 * MaxBatch
	frameHeaderLen  = 7
	// MaxErrorLen bounds an Error frame's message.
	MaxErrorLen = 512
	// MaxMigratePayload bounds a MigrateState frame's blob: per-slot-range
	// sampler state plus the Γ ids moving with it. Deliberately far above
	// any realistic sketch-plus-memory size while still refusing absurd
	// allocations; a migration whose state exceeds it fails loudly on the
	// sending side.
	MaxMigratePayload = 1 << 24
)

// FrameType discriminates the frame vocabulary.
type FrameType uint8

// Frame types of protocol version 2.
const (
	// FramePushBatch carries a batch of input-stream ids upstream
	// (client → daemon). Payload: 1..MaxBatch ids, 8 bytes each.
	FramePushBatch FrameType = iota + 1
	// FrameSubscribe asks the daemon to start streaming σ′ to this
	// connection. Payload: requested buffer capacity (uint32 BE, ≥ 1; the
	// server clamps it to its own bound), optionally followed by a
	// decimation interval (uint32 BE, ≥ 1: deliver every k-th draw only),
	// a delivery rate cap (uint32 BE, ids/second, 0 = uncapped) and a
	// resume token (uint64 BE, from a previous FrameSubAck: the server
	// seeds the new subscription's decimation phase from where the old
	// connection left off). Four canonical lengths — 4, 8, 12 and 20 bytes
	// — each the shortest encoding of its request, so every distinct
	// request has exactly one wire form. The 4-byte form is the protocol's
	// original encoding and means "deliver everything"; both ends accept
	// it, so the extensions stay compatible.
	FrameSubscribe
	// FrameSample requests uniform samples. Payload: count (uint32 BE, ≥ 1).
	FrameSample
	// FrameSampleResp answers FrameSample. Payload: 0..MaxBatch ids — zero
	// ids means the pool is still empty.
	FrameSampleResp
	// FrameStreamData carries a batch of σ′ output draws downstream.
	// Payload: 1..MaxBatch ids.
	FrameStreamData
	// FramePing and FramePong are keepalives. Payload: an 8-byte token the
	// pong echoes.
	FramePing
	FramePong
	// FrameError reports a terminal protocol or service error; the sender
	// closes the connection after it. Payload: 1..MaxErrorLen message bytes.
	FrameError
	// FrameSubAck acknowledges a FrameSubscribe with the server-assigned
	// resume token (8-byte payload, echoed back by a reconnecting client in
	// the extended Subscribe form for decimation phase continuity). The
	// server sends it only in answer to the 12- and 20-byte Subscribe forms:
	// those prove the client speaks the extension, while clients on the
	// legacy 4/8-byte forms predate the ack and would treat it as a fatal
	// unexpected frame.
	FrameSubAck
	// FrameForward carries a batch of input-stream ids between cluster
	// members: the receiving member ingests them locally and never
	// re-forwards (loop prevention — the sender already routed them).
	// Payload: the sender's placement epoch (uint64 BE) followed by
	// 1..MaxBatch ids.
	FrameForward
	// FrameSampleLocal asks a cluster member for draws from its local pool
	// only — the member answers without fanning out, so the cluster-wide
	// sample path cannot recurse. Payload: count (uint32 BE, ≥ 1).
	FrameSampleLocal
	// FrameSampleLocalResp answers FrameSampleLocal. Payload: the member's
	// pool-wide |Γ| (uint64 BE — the weight the requester assigns this
	// member's draws) followed by 0..MaxBatch ids.
	FrameSampleLocalResp
	// FrameMigrateState transfers a slot range's sampler state between
	// cluster members as one versioned opaque blob (internal/cluster owns
	// the blob format). Payload: 1..MaxMigratePayload bytes.
	FrameMigrateState
	// FrameMigrateAck acknowledges a completed FrameMigrateState import.
	// Payload: the placement epoch (uint64 BE) the importing member
	// installed the new ownership under.
	FrameMigrateAck
	// FramePlacementUpdate announces a placement override to a cluster
	// member: slots [SlotFrom, SlotTo] now belong to member Owner as of
	// epoch Token. Payload: epoch (uint64 BE), from-slot, to-slot, owner
	// (uint32 BE each) — 20 bytes.
	FramePlacementUpdate
)

// Frame errors surfaced by the decoder; io errors pass through unwrapped so
// clean shutdown (io.EOF) stays detectable.
var (
	ErrFrameTooLarge = errors.New("netgossip: frame payload exceeds protocol limit")
	errLegacyMagic   = errors.New("netgossip: legacy batch-protocol magic on a framed connection")
)

// Frame is one decoded protocol frame. Which fields are meaningful depends
// on Type: IDs for PushBatch/SampleResp/StreamData/Forward/SampleLocalResp,
// N for Subscribe/Sample/SampleLocal, Every and Rate for Subscribe (0 and 1
// both mean "deliver everything"; Rate 0 means uncapped), Token for
// Ping/Pong (the keepalive token), Subscribe/SubAck (the resume token),
// Forward (the sender's placement epoch), SampleLocalResp (the member's
// |Γ|) and MigrateAck/PlacementUpdate (the placement epoch), SlotFrom/
// SlotTo/Owner for PlacementUpdate, Blob for MigrateState, Msg for Error.
type Frame struct {
	Type     FrameType
	IDs      []uint64
	N        uint32
	Every    uint32
	Rate     uint32
	SlotFrom uint32
	SlotTo   uint32
	Owner    uint32
	Token    uint64
	Blob     []byte
	Msg      string
}

// AppendFrame validates f and appends its canonical encoding to buf.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	var payloadLen int
	switch f.Type {
	case FramePushBatch, FrameStreamData:
		if len(f.IDs) == 0 {
			return nil, fmt.Errorf("netgossip: empty id payload for frame type %d", f.Type)
		}
		fallthrough
	case FrameSampleResp:
		if len(f.IDs) > MaxBatch {
			return nil, ErrBatchTooLarge
		}
		payloadLen = 8 * len(f.IDs)
	case FrameSubscribe, FrameSample, FrameSampleLocal:
		if f.N < 1 {
			return nil, fmt.Errorf("netgossip: frame type %d requires N ≥ 1", f.Type)
		}
		payloadLen = 4
		if f.Type == FrameSubscribe {
			// Each extension rides the shortest payload that can carry it;
			// the plain 4-byte form stays on the wire for every-draw
			// uncapped subscriptions, so old peers keep decoding it.
			switch {
			case f.Token != 0:
				payloadLen = 20
			case f.Rate > 0:
				payloadLen = 12
			case f.Every > 1:
				payloadLen = 8
			}
		}
	case FramePing, FramePong, FrameSubAck, FrameMigrateAck:
		payloadLen = 8
	case FrameForward:
		if len(f.IDs) == 0 {
			return nil, fmt.Errorf("netgossip: empty id payload for frame type %d", f.Type)
		}
		if len(f.IDs) > MaxBatch {
			return nil, ErrBatchTooLarge
		}
		payloadLen = 8 + 8*len(f.IDs)
	case FrameSampleLocalResp:
		if len(f.IDs) > MaxBatch {
			return nil, ErrBatchTooLarge
		}
		payloadLen = 8 + 8*len(f.IDs)
	case FrameMigrateState:
		if len(f.Blob) == 0 || len(f.Blob) > MaxMigratePayload {
			return nil, fmt.Errorf("netgossip: migrate state blob length %d outside [1, %d]", len(f.Blob), MaxMigratePayload)
		}
		payloadLen = len(f.Blob)
	case FramePlacementUpdate:
		if f.SlotFrom > f.SlotTo {
			return nil, fmt.Errorf("netgossip: placement update slot range [%d, %d] inverted", f.SlotFrom, f.SlotTo)
		}
		payloadLen = 20
	case FrameError:
		if len(f.Msg) == 0 || len(f.Msg) > MaxErrorLen {
			return nil, fmt.Errorf("netgossip: error message length %d outside [1, %d]", len(f.Msg), MaxErrorLen)
		}
		payloadLen = len(f.Msg)
	default:
		return nil, fmt.Errorf("netgossip: unknown frame type %d", f.Type)
	}
	buf = append(buf, frameMagic, FrameVersion, byte(f.Type))
	buf = binary.BigEndian.AppendUint32(buf, uint32(payloadLen))
	switch f.Type {
	case FramePushBatch, FrameStreamData, FrameSampleResp:
		for _, id := range f.IDs {
			buf = binary.BigEndian.AppendUint64(buf, id)
		}
	case FrameSubscribe, FrameSample, FrameSampleLocal:
		buf = binary.BigEndian.AppendUint32(buf, f.N)
		if f.Type == FrameSubscribe && payloadLen > 4 {
			every := f.Every
			if every < 1 {
				every = 1
			}
			buf = binary.BigEndian.AppendUint32(buf, every)
			if payloadLen > 8 {
				buf = binary.BigEndian.AppendUint32(buf, f.Rate)
			}
			if payloadLen > 12 {
				buf = binary.BigEndian.AppendUint64(buf, f.Token)
			}
		}
	case FramePing, FramePong, FrameSubAck, FrameMigrateAck:
		buf = binary.BigEndian.AppendUint64(buf, f.Token)
	case FrameForward, FrameSampleLocalResp:
		buf = binary.BigEndian.AppendUint64(buf, f.Token)
		for _, id := range f.IDs {
			buf = binary.BigEndian.AppendUint64(buf, id)
		}
	case FrameMigrateState:
		buf = append(buf, f.Blob...)
	case FramePlacementUpdate:
		buf = binary.BigEndian.AppendUint64(buf, f.Token)
		buf = binary.BigEndian.AppendUint32(buf, f.SlotFrom)
		buf = binary.BigEndian.AppendUint32(buf, f.SlotTo)
		buf = binary.BigEndian.AppendUint32(buf, f.Owner)
	case FrameError:
		buf = append(buf, f.Msg...)
	}
	return buf, nil
}

// WriteFrame writes one frame. The encoding is assembled first so the frame
// reaches the wire in a single Write (interleaving-safe under a caller's
// write lock).
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := AppendFrame(make([]byte, 0, frameHeaderLen+8+8*len(f.IDs)+len(f.Blob)), f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads and validates one frame. The header is checked before any
// payload allocation; a malformed stream yields an error with nothing
// consumed beyond the offending frame. io.EOF before the first header byte
// passes through for clean shutdown detection.
//
// Each call decodes into fresh buffers, so the returned Frame (including
// IDs) may be retained indefinitely. Long-lived read loops that consume a
// frame before reading the next should use a FrameReader instead, which
// amortises the buffers across calls. ReadFrame reads from r unbuffered: it
// never consumes a byte past its frame, so r can be handed on afterwards.
func ReadFrame(r io.Reader) (Frame, error) {
	return (&FrameReader{r: r}).Read()
}

// FrameReader decodes frames from one stream, reusing its payload and id
// buffers across calls: a steady flood of PushBatch frames costs zero
// allocations per frame after the first. The price is aliasing — a returned
// Frame's IDs slice is valid only until the next Read. Callers that hand
// the ids to a sink which copies (the daemon ingest funnel, shard
// PushBatch) ride the reuse for free; callers that retain frames must use
// ReadFrame.
type FrameReader struct {
	r       io.Reader
	hdr     [frameHeaderLen]byte // a local would escape through io.ReadFull: one allocation per frame
	payload []byte
	ids     []uint64
}

// frameReadBuffer sizes a FrameReader's read-ahead: a small frame's header
// and payload, and the frames queued behind it (a Ping after a 16-id push),
// arrive in one read of the connection instead of one per part. Payloads
// larger than the buffer bypass it.
const frameReadBuffer = 8 << 10

// NewFrameReader returns a FrameReader decoding from r, which it reads
// ahead of the frames it has returned: r belongs to the FrameReader from
// here on.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, frameReadBuffer)}
}

// Read reads and validates one frame, exactly like ReadFrame except that
// the returned Frame's IDs alias the reader's internal buffer and are
// overwritten by the next Read.
func (fr *FrameReader) Read() (Frame, error) {
	r, h := fr.r, fr.hdr[:]
	if _, err := io.ReadFull(r, h); err != nil {
		return Frame{}, err
	}
	if h[0] != frameMagic {
		if h[0] == legacyMagic {
			return Frame{}, errLegacyMagic
		}
		return Frame{}, fmt.Errorf("netgossip: bad frame magic 0x%02x", h[0])
	}
	if h[1] != FrameVersion {
		return Frame{}, fmt.Errorf("netgossip: unsupported frame version %d", h[1])
	}
	t := FrameType(h[2])
	n := binary.BigEndian.Uint32(h[3:7])
	// The generic payload bound is checked before the type is even
	// validated so no frame type can demand a large allocation; the two
	// headered-batch types get exactly their 8-byte prefix more, and
	// MigrateState its own documented bound.
	limit := uint32(MaxFramePayload)
	switch t {
	case FrameForward, FrameSampleLocalResp:
		limit = MaxFramePayload + 8
	case FrameMigrateState:
		limit = MaxMigratePayload
	}
	if n > limit {
		return Frame{}, ErrFrameTooLarge
	}
	switch t {
	case FramePushBatch, FrameStreamData:
		if n == 0 {
			return Frame{}, fmt.Errorf("netgossip: empty id payload for frame type %d", t)
		}
		fallthrough
	case FrameSampleResp:
		if n%8 != 0 {
			return Frame{}, fmt.Errorf("netgossip: id payload length %d not a multiple of 8", n)
		}
	case FrameSubscribe:
		if n != 4 && n != 8 && n != 12 && n != 20 {
			return Frame{}, fmt.Errorf("netgossip: subscribe payload length %d, want 4, 8, 12 or 20", n)
		}
	case FrameSample, FrameSampleLocal:
		if n != 4 {
			return Frame{}, fmt.Errorf("netgossip: frame type %d payload length %d, want 4", t, n)
		}
	case FramePing, FramePong, FrameSubAck, FrameMigrateAck:
		if n != 8 {
			return Frame{}, fmt.Errorf("netgossip: frame type %d payload length %d, want 8", t, n)
		}
	case FrameForward:
		if n < 16 || (n-8)%8 != 0 {
			return Frame{}, fmt.Errorf("netgossip: forward payload length %d, want 8 + a non-empty multiple of 8", n)
		}
	case FrameSampleLocalResp:
		if n < 8 || (n-8)%8 != 0 {
			return Frame{}, fmt.Errorf("netgossip: sample-local response payload length %d, want 8 + a multiple of 8", n)
		}
	case FrameMigrateState:
		if n == 0 {
			return Frame{}, errors.New("netgossip: empty migrate state blob")
		}
	case FramePlacementUpdate:
		if n != 20 {
			return Frame{}, fmt.Errorf("netgossip: placement update payload length %d, want 20", n)
		}
	case FrameError:
		if n == 0 || n > MaxErrorLen {
			return Frame{}, fmt.Errorf("netgossip: error message length %d outside [1, %d]", n, MaxErrorLen)
		}
	default:
		return Frame{}, fmt.Errorf("netgossip: unknown frame type %d", t)
	}
	if uint32(cap(fr.payload)) < n {
		fr.payload = make([]byte, n)
	}
	payload := fr.payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("netgossip: short frame payload: %w", err)
	}
	f := Frame{Type: t}
	switch t {
	case FramePushBatch, FrameStreamData, FrameSampleResp:
		if uint32(cap(fr.ids)) < n/8 {
			fr.ids = make([]uint64, n/8)
		}
		f.IDs = fr.ids[:n/8]
		for i := range f.IDs {
			f.IDs[i] = binary.BigEndian.Uint64(payload[8*i:])
		}
	case FrameForward, FrameSampleLocalResp:
		f.Token = binary.BigEndian.Uint64(payload)
		nids := (n - 8) / 8
		if uint32(cap(fr.ids)) < nids {
			fr.ids = make([]uint64, nids)
		}
		f.IDs = fr.ids[:nids]
		for i := range f.IDs {
			f.IDs[i] = binary.BigEndian.Uint64(payload[8+8*i:])
		}
	case FrameSubscribe, FrameSample, FrameSampleLocal:
		f.N = binary.BigEndian.Uint32(payload)
		if f.N < 1 {
			return Frame{}, fmt.Errorf("netgossip: frame type %d requires N ≥ 1", t)
		}
		f.Every = 1
		if len(payload) >= 8 {
			f.Every = binary.BigEndian.Uint32(payload[4:])
			if len(payload) == 8 && f.Every < 2 {
				// Each extended payload exists only to carry information the
				// shorter forms cannot; every distinct request has exactly one
				// wire form, so every frame re-encodes to the bytes it
				// arrived as (the fuzz harness pins this).
				return Frame{}, errors.New("netgossip: subscribe decimation interval must be ≥ 2 in the extended form")
			}
			if f.Every < 1 {
				return Frame{}, errors.New("netgossip: subscribe decimation interval must be ≥ 1")
			}
		}
		if len(payload) >= 12 {
			f.Rate = binary.BigEndian.Uint32(payload[8:])
			if len(payload) == 12 && f.Rate < 1 {
				return Frame{}, errors.New("netgossip: subscribe rate cap must be ≥ 1 in the rate form")
			}
		}
		if len(payload) == 20 {
			f.Token = binary.BigEndian.Uint64(payload[12:])
			if f.Token == 0 {
				return Frame{}, errors.New("netgossip: subscribe resume token must be non-zero in the resume form")
			}
		}
	case FramePing, FramePong, FrameSubAck, FrameMigrateAck:
		f.Token = binary.BigEndian.Uint64(payload)
	case FrameMigrateState:
		// The blob aliases the reader's payload buffer, like IDs: valid
		// only until the next Read.
		f.Blob = payload
	case FramePlacementUpdate:
		f.Token = binary.BigEndian.Uint64(payload)
		f.SlotFrom = binary.BigEndian.Uint32(payload[8:])
		f.SlotTo = binary.BigEndian.Uint32(payload[12:])
		f.Owner = binary.BigEndian.Uint32(payload[16:])
		if f.SlotFrom > f.SlotTo {
			return Frame{}, fmt.Errorf("netgossip: placement update slot range [%d, %d] inverted", f.SlotFrom, f.SlotTo)
		}
	case FrameError:
		f.Msg = string(payload)
	}
	return f, nil
}
