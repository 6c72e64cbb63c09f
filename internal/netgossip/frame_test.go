package netgossip

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatalf("encode %+v: %v", f, err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("decode %+v: %v", f, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("decode left %d bytes unread", buf.Len())
	}
	return got
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FramePushBatch, IDs: []uint64{1, 2, 1 << 63}},
		{Type: FrameStreamData, IDs: []uint64{42}},
		{Type: FrameSampleResp, IDs: nil}, // empty pool answer
		{Type: FrameSampleResp, IDs: []uint64{7, 8}},
		{Type: FrameSubscribe, N: 256, Every: 1},
		{Type: FrameSubscribe, N: 256, Every: 16},
		{Type: FrameSample, N: 10},
		{Type: FramePing, Token: 0xdeadbeef},
		{Type: FramePong, Token: 1},
		{Type: FrameError, Msg: "already subscribed"},
	}
	for _, f := range frames {
		got := roundTrip(t, f)
		if got.Type != f.Type || got.N != f.N || got.Token != f.Token || got.Msg != f.Msg {
			t.Fatalf("round trip %+v -> %+v", f, got)
		}
		if len(got.IDs) != len(f.IDs) {
			t.Fatalf("round trip %+v -> %+v", f, got)
		}
		for i := range f.IDs {
			if got.IDs[i] != f.IDs[i] {
				t.Fatalf("round trip %+v -> %+v", f, got)
			}
		}
	}
}

// TestFrameSubscribeDecimation pins the one Subscribe wire form: whatever
// the request — plain, decimated, rate-capped, resuming — the payload is 20
// bytes and decodes to the fields it was built from; the protocol's earlier
// 4-, 8- and 12-byte payloads (and every other length) are refused, and an
// interval of 0 is refused in both directions.
func TestFrameSubscribeDecimation(t *testing.T) {
	var wire []byte
	for _, f := range []Frame{
		{Type: FrameSubscribe, N: 64, Every: 1},
		{Type: FrameSubscribe, N: 64, Every: 10},
		{Type: FrameSubscribe, N: 64, Every: 1, Rate: 100},
		{Type: FrameSubscribe, N: 64, Every: 4, Rate: 5, Token: 9},
	} {
		buf, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != frameHeaderLen+20 {
			t.Fatalf("%+v encoded a %d-byte payload, want 20", f, len(buf)-frameHeaderLen)
		}
		if got := roundTrip(t, f); !reflect.DeepEqual(got, f) {
			t.Fatalf("round trip %+v -> %+v", f, got)
		}
		wire = buf
	}
	for n := 0; n <= 32; n++ {
		if n == 20 {
			continue
		}
		bad := append([]byte{frameMagic, FrameVersion, byte(FrameSubscribe), 0, 0, 0, byte(n)}, wire[frameHeaderLen:]...)
		bad = append(bad, make([]byte, 12)...)
		_, err := ReadFrame(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "want 20") {
			t.Fatalf("subscribe payload length %d: error %v, want one naming the 20-byte form", n, err)
		}
	}
	zero := append([]byte(nil), wire...)
	copy(zero[frameHeaderLen+4:], []byte{0, 0, 0, 0})
	if _, err := ReadFrame(bytes.NewReader(zero)); err == nil {
		t.Fatal("decoded a subscribe with interval 0")
	}
	if _, err := AppendFrame(nil, Frame{Type: FrameSubscribe, N: 64}); err == nil {
		t.Fatal("encoded a subscribe with interval 0")
	}
}

func TestFrameEncodeRejects(t *testing.T) {
	cases := []Frame{
		{Type: FramePushBatch},                                   // empty batch
		{Type: FrameStreamData},                                  // empty stream data
		{Type: FramePushBatch, IDs: make([]uint64, MaxBatch+1)},  // oversized
		{Type: FrameSampleResp, IDs: make([]uint64, MaxBatch+1)}, // oversized
		{Type: FrameSubscribe, N: 0},
		{Type: FrameSample, N: 0},
		{Type: FrameError},                                          // empty message
		{Type: FrameError, Msg: strings.Repeat("x", MaxErrorLen+1)}, // huge message
		{Type: FrameType(99)},                                       // unknown type
	}
	for _, f := range cases {
		if err := WriteFrame(io.Discard, f); err == nil {
			t.Errorf("encoding %+v succeeded, want error", f)
		}
	}
}

func TestFrameDecodeRejects(t *testing.T) {
	mk := func(b ...byte) []byte { return b }
	cases := map[string][]byte{
		"legacy magic":        mk(legacyMagic, FrameVersion, byte(FramePing), 0, 0, 0, 8),
		"bad magic":           mk(0x00, FrameVersion, byte(FramePing), 0, 0, 0, 8),
		"bad version":         mk(frameMagic, 77, byte(FramePing), 0, 0, 0, 8),
		"unknown type":        mk(frameMagic, FrameVersion, 99, 0, 0, 0, 8),
		"oversized payload":   mk(frameMagic, FrameVersion, byte(FramePushBatch), 0xff, 0xff, 0xff, 0xff),
		"empty push":          mk(frameMagic, FrameVersion, byte(FramePushBatch), 0, 0, 0, 0),
		"ragged ids":          mk(frameMagic, FrameVersion, byte(FramePushBatch), 0, 0, 0, 9),
		"subscribe wrong len": mk(frameMagic, FrameVersion, byte(FrameSubscribe), 0, 0, 0, 8),
		"subscribe zero": append(mk(frameMagic, FrameVersion, byte(FrameSubscribe), 0, 0, 0, 20),
			0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"ping wrong len":    mk(frameMagic, FrameVersion, byte(FramePing), 0, 0, 0, 4),
		"error empty":       mk(frameMagic, FrameVersion, byte(FrameError), 0, 0, 0, 0),
		"truncated payload": append(mk(frameMagic, FrameVersion, byte(FramePing), 0, 0, 0, 8), 1, 2),
	}
	for name, data := range cases {
		if _, err := ReadFrame(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	// The legacy magic must be called out specifically so operators can tell
	// a misdirected v1 peer from random garbage.
	_, err := ReadFrame(bytes.NewReader(cases["legacy magic"]))
	if !errors.Is(err, errLegacyMagic) {
		t.Errorf("legacy magic error = %v", err)
	}
	// Clean EOF passes through for shutdown detection.
	if _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream error = %v, want io.EOF", err)
	}
}

// TestFrameClusterRoundTrip covers the cluster vocabulary end to end:
// every member-to-member frame type and a Subscribe using each field must
// survive an encode/decode cycle with all fields intact.
func TestFrameClusterRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameSubAck, Token: 0xfeedface},
		{Type: FrameForward, Token: 3, IDs: []uint64{1, 1 << 63, 42}},
		{Type: FrameSampleLocal, N: 9},
		{Type: FrameSampleLocalResp, Token: 7},                      // |Γ| with an empty draw
		{Type: FrameSampleLocalResp, Token: 512, IDs: []uint64{11}}, // and with payload
		{Type: FrameMigrateState, Blob: []byte{0x55, 0x4e, 0x53, 0x4d, 1}},
		{Type: FrameMigrateAck, Token: 6},
		{Type: FramePlacementUpdate, Token: 4, SlotFrom: 10, SlotTo: 20, Owner: 2},
		{Type: FramePlacementUpdate, Token: 1, SlotFrom: 5, SlotTo: 5, Owner: 0}, // single slot
		{Type: FrameSubscribe, N: 64, Every: 1, Rate: 100},
		{Type: FrameSubscribe, N: 64, Every: 3, Rate: 7},
		{Type: FrameSubscribe, N: 64, Every: 1, Token: 77},
	}
	for _, f := range frames {
		got, want := roundTrip(t, f), f
		if got.Type != want.Type || got.N != want.N || got.Every != want.Every ||
			got.Rate != want.Rate || got.Token != want.Token ||
			got.SlotFrom != want.SlotFrom || got.SlotTo != want.SlotTo ||
			got.Owner != want.Owner || got.Msg != want.Msg {
			t.Fatalf("round trip %+v -> %+v", f, got)
		}
		if len(got.IDs) != len(f.IDs) || !bytes.Equal(got.Blob, f.Blob) {
			t.Fatalf("round trip %+v -> %+v", f, got)
		}
		for i := range f.IDs {
			if got.IDs[i] != f.IDs[i] {
				t.Fatalf("round trip %+v -> %+v", f, got)
			}
		}
	}
}

// TestFrameClusterEncodeRejects pins the validation on the cluster frames'
// encode path: empty or oversized batches and blobs, inverted slot ranges.
func TestFrameClusterEncodeRejects(t *testing.T) {
	cases := []Frame{
		{Type: FrameForward, Token: 1},                                     // forwards always carry ids
		{Type: FrameForward, Token: 1, IDs: make([]uint64, MaxBatch+1)},    // oversized
		{Type: FrameSampleLocalResp, IDs: make([]uint64, MaxBatch+1)},      // oversized
		{Type: FrameSampleLocal, N: 0},                                     // sample size ≥ 1
		{Type: FrameMigrateState},                                          // empty blob
		{Type: FrameMigrateState, Blob: make([]byte, MaxMigratePayload+1)}, // oversized blob
		{Type: FramePlacementUpdate, Token: 1, SlotFrom: 6, SlotTo: 5},     // inverted range
	}
	for _, f := range cases {
		if err := WriteFrame(io.Discard, f); err == nil {
			t.Errorf("encoding %+v succeeded, want error", f)
		}
	}
}

// TestFrameClusterDecodeRejects throws malformed cluster-frame headers and
// payloads at the decoder: wrong fixed lengths, ragged id payloads, empty
// blobs, retired subscribe forms, inverted placement ranges.
func TestFrameClusterDecodeRejects(t *testing.T) {
	mk := func(b ...byte) []byte { return b }
	cases := map[string][]byte{
		"forward without ids": append(mk(frameMagic, FrameVersion, byte(FrameForward), 0, 0, 0, 8),
			0, 0, 0, 0, 0, 0, 0, 1),
		"forward ragged":         mk(frameMagic, FrameVersion, byte(FrameForward), 0, 0, 0, 17),
		"sample-local wrong len": mk(frameMagic, FrameVersion, byte(FrameSampleLocal), 0, 0, 0, 8),
		"sample-local-resp short": append(mk(frameMagic, FrameVersion, byte(FrameSampleLocalResp), 0, 0, 0, 4),
			0, 0, 0, 1),
		"suback wrong len":      mk(frameMagic, FrameVersion, byte(FrameSubAck), 0, 0, 0, 4),
		"migrate-ack wrong len": mk(frameMagic, FrameVersion, byte(FrameMigrateAck), 0, 0, 0, 12),
		"migrate empty blob":    mk(frameMagic, FrameVersion, byte(FrameMigrateState), 0, 0, 0, 0),
		"placement wrong len":   mk(frameMagic, FrameVersion, byte(FramePlacementUpdate), 0, 0, 0, 16),
		"placement inverted": append(mk(frameMagic, FrameVersion, byte(FramePlacementUpdate), 0, 0, 0, 20),
			0, 0, 0, 0, 0, 0, 0, 1, // epoch 1
			0, 0, 0, 9, // fromSlot 9
			0, 0, 0, 8, // toSlot 8
			0, 0, 0, 0), // owner 0
		"subscribe 4-byte form": append(mk(frameMagic, FrameVersion, byte(FrameSubscribe), 0, 0, 0, 4),
			0, 0, 0, 1),
		"subscribe 12-byte form": append(mk(frameMagic, FrameVersion, byte(FrameSubscribe), 0, 0, 0, 12),
			0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 5),
		"subscribe every zero": append(mk(frameMagic, FrameVersion, byte(FrameSubscribe), 0, 0, 0, 20),
			0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
		"subscribe odd len": mk(frameMagic, FrameVersion, byte(FrameSubscribe), 0, 0, 0, 16),
	}
	for name, data := range cases {
		if _, err := ReadFrame(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	// The oversized-blob bound is MigrateState's own, larger than the
	// generic frame cap: a header promising one byte over it must fail
	// before any allocation, while the generic cap stays in force for the
	// id-bearing types.
	over := MaxMigratePayload + 1
	hdr := mk(frameMagic, FrameVersion, byte(FrameMigrateState),
		byte(over>>24), byte(over>>16), byte(over>>8), byte(over))
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized migrate blob header error = %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameStreamSequence decodes several frames back to back from one
// reader, the shape of a live connection.
func TestFrameStreamSequence(t *testing.T) {
	var buf bytes.Buffer
	seq := []Frame{
		{Type: FrameSubscribe, N: 8, Every: 1},
		{Type: FramePushBatch, IDs: []uint64{5, 6}},
		{Type: FrameStreamData, IDs: []uint64{5}},
		{Type: FramePing, Token: 3},
	}
	for _, f := range seq {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range seq {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type {
			t.Fatalf("frame %d type %d, want %d", i, got.Type, want.Type)
		}
	}
}

// FuzzReadFrame hammers the framed decoder with hostile bytes: it must fail
// cleanly or decode a frame whose canonical re-encoding reproduces exactly
// the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	seedFrames := []Frame{
		{Type: FramePushBatch, IDs: []uint64{1, 2, 3}},
		{Type: FrameSubscribe, N: 64, Every: 1},
		{Type: FrameSample, N: 5},
		{Type: FrameSampleResp, IDs: nil},
		{Type: FrameStreamData, IDs: []uint64{1 << 62}},
		{Type: FramePing, Token: 99},
		{Type: FramePong, Token: 99},
		{Type: FrameError, Msg: "boom"},
		{Type: FrameSubAck, Token: 7},
		{Type: FrameForward, Token: 2, IDs: []uint64{4, 5}},
		{Type: FrameSampleLocal, N: 3},
		{Type: FrameSampleLocalResp, Token: 64, IDs: []uint64{8}},
		{Type: FrameMigrateState, Blob: []byte{1, 2, 3}},
		{Type: FrameMigrateAck, Token: 11},
		{Type: FramePlacementUpdate, Token: 1, SlotFrom: 0, SlotTo: 63, Owner: 1},
		{Type: FrameSubscribe, N: 16, Every: 1, Rate: 50},
		{Type: FrameSubscribe, N: 16, Every: 2, Token: 5},
	}
	for _, fr := range seedFrames {
		buf, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(append(buf, 0xff)) // trailing garbage
	}
	f.Add([]byte{})
	f.Add([]byte{legacyMagic, 1, 0, 0, 0, 1})               // legacy v1 header
	f.Add([]byte{frameMagic, FrameVersion, 99, 0, 0, 0, 0}) // unknown type
	f.Add([]byte{frameMagic, FrameVersion, byte(FramePushBatch), 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(fr.IDs) > MaxBatch {
			t.Fatalf("decoded %d ids above MaxBatch", len(fr.IDs))
		}
		re, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("re-encoding decoded frame %+v failed: %v", fr, err)
		}
		if len(data) < len(re) || !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("decode/encode mismatch for %x: re-encoded %x", data, re)
		}
	})
}

// TestFrameReaderReusesBuffers pins the FrameReader contract: frames decode
// identically to ReadFrame, the IDs slice of one Read is overwritten by the
// next (callers must copy what they keep), and a steady sequence of
// same-size batches performs zero allocations per frame after the first.
func TestFrameReaderReusesBuffers(t *testing.T) {
	var buf bytes.Buffer
	first := []uint64{1, 2, 3}
	second := []uint64{7, 8, 9}
	for _, ids := range [][]uint64{first, second} {
		if err := WriteFrame(&buf, Frame{Type: FramePushBatch, IDs: ids}); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	f1, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	held := f1.IDs // retained across Read, against the contract
	f2, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range second {
		if f2.IDs[i] != want {
			t.Fatalf("second frame id %d = %d, want %d", i, f2.IDs[i], want)
		}
	}
	if &held[0] != &f2.IDs[0] {
		t.Fatal("FrameReader did not reuse the id buffer across same-size reads")
	}
	if held[0] != second[0] {
		t.Fatal("retained slice not overwritten — reuse contract not exercised")
	}
}

// TestFrameReaderMatchesReadFrame decodes a mixed frame sequence through
// one FrameReader and per-frame ReadFrame calls and requires identical
// results (the reader grows its buffers across differently sized frames).
func TestFrameReaderMatchesReadFrame(t *testing.T) {
	seq := []Frame{
		{Type: FramePushBatch, IDs: []uint64{5, 6}},
		{Type: FramePushBatch, IDs: []uint64{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: FramePing, Token: 3},
		{Type: FrameStreamData, IDs: []uint64{9}},
		{Type: FrameSample, N: 4},
		{Type: FrameError, Msg: "nope"},
	}
	var a, b bytes.Buffer
	for _, f := range seq {
		if err := WriteFrame(&a, f); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&b, f); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&a)
	for i := range seq {
		got, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want, err := ReadFrame(&b)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.N != want.N || got.Every != want.Every ||
			got.Token != want.Token || got.Msg != want.Msg || len(got.IDs) != len(want.IDs) {
			t.Fatalf("frame %d: %+v vs ReadFrame %+v", i, got, want)
		}
		for j := range got.IDs {
			if got.IDs[j] != want.IDs[j] {
				t.Fatalf("frame %d id %d: %d vs %d", i, j, got.IDs[j], want.IDs[j])
			}
		}
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("drained reader returned %v, want io.EOF", err)
	}
}

// TestReadFrameStillAllocatesFresh: the package-level ReadFrame keeps its
// retain-forever contract — ids from consecutive calls never alias.
func TestReadFrameStillAllocatesFresh(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 2; i++ {
		if err := WriteFrame(&buf, Frame{Type: FramePushBatch, IDs: []uint64{uint64(i + 1), 2}}); err != nil {
			t.Fatal(err)
		}
	}
	f1, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if &f1.IDs[0] == &f2.IDs[0] {
		t.Fatal("ReadFrame reused a buffer across calls")
	}
	if f1.IDs[0] != 1 || f2.IDs[0] != 2 {
		t.Fatalf("ids corrupted: %v %v", f1.IDs, f2.IDs)
	}
}

// TestFrameReaderReadBoundaries feeds one frame sequence to a FrameReader
// through readers that return a byte at a time, half of each request, and
// everything at once: where the underlying reads fall must not show in the
// frames. The sequence puts small frames back to back (they share one
// buffered read), and payloads larger than the read-ahead buffer (they
// bypass it) between them.
func TestFrameReaderReadBoundaries(t *testing.T) {
	big := make([]uint64, MaxBatch)
	for i := range big {
		big[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	blob := bytes.Repeat([]byte{0xa5, 0x5a, 0x01}, frameReadBuffer)
	seq := []Frame{
		{Type: FramePushBatch, IDs: []uint64{5, 6}},
		{Type: FramePing, Token: 3},
		{Type: FramePushBatch, IDs: big},
		{Type: FramePing, Token: 4},
		{Type: FrameSubscribe, N: 64, Every: 3, Rate: 9, Token: 77},
		{Type: FrameMigrateState, Blob: blob},
		{Type: FrameForward, Token: 2, IDs: big[:1000]},
		{Type: FrameStreamData, IDs: []uint64{9}},
		{Type: FrameError, Msg: "nope"},
	}
	var wire []byte
	for _, f := range seq {
		var err error
		if wire, err = AppendFrame(wire, f); err != nil {
			t.Fatal(err)
		}
	}
	decode := func(name string, r io.Reader) []Frame {
		fr := NewFrameReader(r)
		var out []Frame
		for {
			f, err := fr.Read()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, len(out), err)
			}
			// IDs and Blob alias the reader's buffers until the next Read.
			f.IDs = append([]uint64(nil), f.IDs...)
			f.Blob = append([]byte(nil), f.Blob...)
			out = append(out, f)
		}
	}
	for name, r := range map[string]io.Reader{
		"one read":        bytes.NewReader(wire),
		"one byte a read": iotest.OneByteReader(bytes.NewReader(wire)),
		"half a read":     iotest.HalfReader(bytes.NewReader(wire)),
	} {
		if got := decode(name, r); !reflect.DeepEqual(got, seq) {
			t.Fatalf("%s: decoded frames differ from the %d sent", name, len(seq))
		}
	}
}

// cycleReader serves the same bytes over and over: an endless frame stream.
type cycleReader struct {
	wire []byte
	off  int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	n := copy(p, c.wire[c.off:])
	if c.off += n; c.off == len(c.wire) {
		c.off = 0
	}
	return n, nil
}

// TestFrameReaderAllocatesNothingPerFrame pins the steady state of a read
// loop over small frames (a gossip node's 16-id pushes and its pings): once
// the reader's buffers have grown, a frame costs no allocation — the header
// included, which as a local escaped through io.ReadFull once per frame.
// The one-shot ReadFrame still decodes into fresh buffers.
func TestFrameReaderAllocatesNothingPerFrame(t *testing.T) {
	ids := make([]uint64, 16)
	for i := range ids {
		ids[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	wire, err := AppendFrame(nil, Frame{Type: FramePushBatch, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	if wire, err = AppendFrame(wire, Frame{Type: FramePing, Token: 7}); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&cycleReader{wire: wire})
	read := func() {
		for _, want := range []FrameType{FramePushBatch, FramePing} {
			if f, err := fr.Read(); err != nil || f.Type != want {
				t.Fatalf("read type %d, err %v; want type %d", f.Type, err, want)
			}
		}
	}
	read() // grow the payload and id buffers
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		t.Fatalf("%v allocations per push+ping pair, want 0", allocs)
	}

	a, err := ReadFrame(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadFrame(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if &a.IDs[0] == &b.IDs[0] {
		t.Fatal("ReadFrame handed out the same id buffer twice")
	}
}
