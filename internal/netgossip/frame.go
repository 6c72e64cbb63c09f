package netgossip

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"nodesampling/internal/cursor"
)

// The framed protocol (version 2) is the bidirectional successor of the
// one-way batch protocol: one persistent connection carries id batches
// upstream and the sampling service's output stream σ′ (plus sample
// request/responses and keepalives) downstream. Every frame is
//
//	magic (1) | version (1) | type (1) | payload length (uint32 BE) | payload
//
// with the payload length hard-bounded, per frame type, before any
// allocation (the layouts table below: MaxBatch ids and the type's fixed
// fields at most, a MigrateState blob under its own larger bound), so a
// hostile peer can neither stall a correct node nor force a large
// allocation — exactly the discipline of the v1 batch decoder, extended to
// a frame vocabulary. The v2 magic differs from the v1 magic so that a client
// speaking the wrong protocol on a listener fails on the first byte with a
// clear error instead of a payload-shaped surprise.
const (
	frameMagic     = 0x55 // 'U'; v1's batch protocol uses 0x75 ('u')
	FrameVersion   = 2
	frameHeaderLen = 7
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
	// connection. Payload, always 20 bytes: requested buffer capacity
	// (uint32 BE, ≥ 1; the server clamps it to its own bound), decimation
	// interval (uint32 BE, ≥ 1: deliver every k-th draw only; 1 delivers
	// everything), delivery rate cap (uint32 BE, ids/second, 0 = uncapped)
	// and resume token (uint64 BE, from a previous FrameSubAck: the server
	// seeds the new subscription's decimation phase from where the old
	// connection left off; 0 = none). Every Subscribe is answered with a
	// FrameSubAck.
	//
	// The protocol's earlier 4-, 8- and 12-byte Subscribe payloads are gone
	// and FrameVersion did not move, because both mixed pairings already
	// fail with an Error frame that names the cause: this decoder answers a
	// short form with its payload length and the 20 it wants, and a decoder
	// from before the change answers this encoder's zero token with "resume
	// token must be non-zero in the resume form".
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
	// FrameSubAck acknowledges every FrameSubscribe with the server-assigned
	// resume token (8-byte payload), which a reconnecting client echoes in
	// its next Subscribe for decimation phase continuity.
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
	errLegacyMagic   = errors.New("netgossip: v1 batch protocol retired: speak the framed protocol (version 2)")
)

// Frame is one decoded protocol frame. Which fields are meaningful depends
// on Type: IDs for PushBatch/SampleResp/StreamData/Forward/SampleLocalResp,
// N for Subscribe/Sample/SampleLocal, Every (≥ 1) and Rate (0 = uncapped)
// for Subscribe, Token for Ping/Pong (the keepalive token),
// Subscribe/SubAck (the resume token), Forward (the sender's placement
// epoch), SampleLocalResp (the member's |Γ|) and MigrateAck/
// PlacementUpdate (the placement epoch), SlotFrom/SlotTo/Owner for
// PlacementUpdate, Blob for MigrateState, Msg for Error.
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

// field names one fixed-width payload field of a Frame: Token is 8 bytes on
// the wire, the others 4.
type field uint8

const (
	fieldN field = iota
	fieldEvery
	fieldRate
	fieldSlotFrom
	fieldSlotTo
	fieldOwner
	fieldToken
)

// u32 is where a 4-byte field lives in the Frame.
func (f *Frame) u32(fd field) *uint32 {
	switch fd {
	case fieldN:
		return &f.N
	case fieldEvery:
		return &f.Every
	case fieldRate:
		return &f.Rate
	case fieldSlotFrom:
		return &f.SlotFrom
	case fieldSlotTo:
		return &f.SlotTo
	default:
		return &f.Owner
	}
}

// tailKind says what follows a payload's fixed fields.
type tailKind uint8

const (
	tailNone tailKind = iota
	tailIDs           // 8-byte ids, Frame.IDs
	tailBlob          // opaque bytes, Frame.Blob
	tailMsg           // message bytes, Frame.Msg
)

// layout is one frame type's payload: the fixed fields in wire order, then
// a tail of min..max elements (ids or bytes). It is the only statement of
// that payload — AppendFrame sizes, checks and writes from it, Read bounds
// the length field with it before allocating anything and parses by it.
type layout struct {
	prefix   []field
	tail     tailKind
	min, max uint32

	// Derived from the above at start-up: the byte length of the fixed
	// fields, and the shift that turns a tail element count into bytes (ids
	// are 8 bytes, everything else 1).
	fixed uint32
	shift uint8
}

var layouts = [...]layout{
	FramePushBatch:       {tail: tailIDs, min: 1, max: MaxBatch},
	FrameSubscribe:       {prefix: []field{fieldN, fieldEvery, fieldRate, fieldToken}},
	FrameSample:          {prefix: []field{fieldN}},
	FrameSampleResp:      {tail: tailIDs, max: MaxBatch},
	FrameStreamData:      {tail: tailIDs, min: 1, max: MaxBatch},
	FramePing:            {prefix: []field{fieldToken}},
	FramePong:            {prefix: []field{fieldToken}},
	FrameError:           {tail: tailMsg, min: 1, max: MaxErrorLen},
	FrameSubAck:          {prefix: []field{fieldToken}},
	FrameForward:         {prefix: []field{fieldToken}, tail: tailIDs, min: 1, max: MaxBatch},
	FrameSampleLocal:     {prefix: []field{fieldN}},
	FrameSampleLocalResp: {prefix: []field{fieldToken}, tail: tailIDs, max: MaxBatch},
	FrameMigrateState:    {tail: tailBlob, min: 1, max: MaxMigratePayload},
	FrameMigrateAck:      {prefix: []field{fieldToken}},
	FramePlacementUpdate: {prefix: []field{fieldToken, fieldSlotFrom, fieldSlotTo, fieldOwner}},
}

func init() {
	for i := range layouts {
		l := &layouts[i]
		for _, fd := range l.prefix {
			l.fixed += 4
			if fd == fieldToken {
				l.fixed += 4
			}
		}
		if l.tail == tailIDs {
			l.shift = 3
		}
	}
}

func layoutOf(t FrameType) (*layout, error) {
	if t < FramePushBatch || int(t) >= len(layouts) {
		return nil, fmt.Errorf("netgossip: unknown frame type %d", t)
	}
	return &layouts[t], nil
}

// tailCount checks a payload length against the layout and returns how many
// tail elements it holds. Both directions go through it: the encoder with
// the length it is about to write, the decoder with the length field of a
// header, before any payload byte is read or buffer grown.
func (l *layout) tailCount(t FrameType, n uint64) (int, error) {
	rest := n - uint64(l.fixed)
	count := rest >> l.shift
	if n < uint64(l.fixed) || count<<l.shift != rest || count < uint64(l.min) || count > uint64(l.max) {
		return 0, l.lengthError(t, n)
	}
	return int(count), nil
}

func (l *layout) lengthError(t FrameType, n uint64) error {
	limit := uint64(l.fixed) + uint64(l.max)<<l.shift
	switch {
	case l.max == 0:
		return fmt.Errorf("netgossip: frame type %d payload length %d, want %d", t, n, l.fixed)
	case n > limit:
		return fmt.Errorf("%w: frame type %d payload length %d, at most %d", ErrFrameTooLarge, t, n, limit)
	}
	return fmt.Errorf("netgossip: frame type %d payload length %d, want %d + %d × [%d, %d]", t, n, l.fixed, 1<<l.shift, l.min, l.max)
}

// validate holds the checks on fixed fields, which the layout cannot
// express, for both directions.
func (f *Frame) validate() error {
	switch f.Type {
	case FrameSubscribe:
		if f.Every < 1 {
			return errors.New("netgossip: subscribe decimation interval must be ≥ 1")
		}
		fallthrough
	case FrameSample, FrameSampleLocal:
		if f.N < 1 {
			return fmt.Errorf("netgossip: frame type %d requires N ≥ 1", f.Type)
		}
	case FramePlacementUpdate:
		if f.SlotFrom > f.SlotTo {
			return fmt.Errorf("netgossip: placement update slot range [%d, %d] inverted", f.SlotFrom, f.SlotTo)
		}
	}
	return nil
}

// AppendFrame validates f and appends its encoding to buf.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	l, err := layoutOf(f.Type)
	if err != nil {
		return nil, err
	}
	tail := len(f.IDs)
	switch l.tail {
	case tailNone:
		tail = 0
	case tailBlob:
		tail = len(f.Blob)
	case tailMsg:
		tail = len(f.Msg)
	}
	n := uint64(l.fixed) + uint64(tail)<<l.shift
	if _, err := l.tailCount(f.Type, n); err != nil {
		return nil, err
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	buf = append(buf, frameMagic, FrameVersion, byte(f.Type))
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	for _, fd := range l.prefix {
		if fd == fieldToken {
			buf = binary.BigEndian.AppendUint64(buf, f.Token)
		} else {
			buf = binary.BigEndian.AppendUint32(buf, *f.u32(fd))
		}
	}
	switch l.tail {
	case tailIDs:
		for _, id := range f.IDs {
			buf = binary.BigEndian.AppendUint64(buf, id)
		}
	case tailBlob:
		buf = append(buf, f.Blob...)
	case tailMsg:
		buf = append(buf, f.Msg...)
	}
	return buf, nil
}

// WriteFrame writes one frame. The encoding is assembled first so the frame
// reaches the wire in a single Write (interleaving-safe under a caller's
// write lock).
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := AppendFrame(make([]byte, 0, frameHeaderLen+20+8*len(f.IDs)+len(f.Blob)+len(f.Msg)), f)
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
// the returned Frame's IDs and Blob alias the reader's internal buffers and
// are overwritten by the next Read.
func (fr *FrameReader) Read() (f Frame, err error) {
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
	f.Type = FrameType(h[2])
	l, err := layoutOf(f.Type)
	if err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(h[3:7])
	// The layout bounds the length field before the payload buffer grows: no
	// frame type can demand more than its own maximum.
	count, err := l.tailCount(f.Type, uint64(n))
	if err != nil {
		return Frame{}, err
	}
	if uint32(cap(fr.payload)) < n {
		fr.payload = make([]byte, n)
	}
	payload := fr.payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("netgossip: short frame payload: %w", err)
	}
	rest := payload
	if len(l.prefix) > 0 {
		c := cursor.New("netgossip: frame payload", payload)
		for _, fd := range l.prefix {
			if fd == fieldToken {
				f.Token = c.U64()
			} else {
				*f.u32(fd) = c.U32()
			}
		}
		rest = c.Bytes(c.Len())
		if err := c.Err(); err != nil {
			return Frame{}, err
		}
		if err := f.validate(); err != nil {
			return Frame{}, err
		}
	}
	switch l.tail {
	case tailIDs:
		if cap(fr.ids) < count {
			fr.ids = make([]uint64, count)
		}
		f.IDs = fr.ids[:count]
		for i := range f.IDs {
			f.IDs[i] = binary.BigEndian.Uint64(rest[8*i:])
		}
	case tailBlob:
		f.Blob = rest
	case tailMsg:
		f.Msg = string(rest)
	}
	return f, nil
}
