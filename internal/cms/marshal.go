package cms

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nodesampling/internal/cursor"
	"nodesampling/internal/hashing"
)

// Binary layout (all fields big-endian uint64 unless noted):
//
//	version 1 (legacy, bucket map implied modulo):
//	  magic "CMSK" | version (uint32) | rows | cols | total
//	  rows × (a, b) hash parameters
//	  rows × cols counters
//
//	version 2 (adds the bucket map mode, see hashing.Mode):
//	  magic "CMSK" | version (uint32) | mode (uint32) | rows | cols | total
//	  rows × (a, b) hash parameters
//	  rows × cols counters
//
// A modulo-mode sketch still serialises as version 1, byte-identical to
// blobs written before modes existed, so pre-mode readers and writers stay
// interoperable for the entire legacy state they can represent; only
// fastrange sketches need (and get) the version 2 header. Either way the
// blob pins the bucket map: a restored sketch estimates bit-identically.
const (
	marshalMagic      = "CMSK"
	marshalVersion    = 1
	marshalVersionV2  = 2
	headerLenV1       = 4 + 4 + 8*3
	headerLenV2       = 4 + 4 + 4 + 8*3
	marshalModeModulo = uint32(hashing.ModeModulo)
)

// MarshalBinary serialises the sketch — counters, hash-family parameters
// and bucket map mode — so a sampler's frequency state survives restarts.
// It implements encoding.BinaryMarshaler.
func (sk *Sketch) MarshalBinary() ([]byte, error) {
	mode := sk.hashes.Mode()
	size := headerLenV2 + sk.rows*16 + sk.rows*sk.cols*8
	buf := make([]byte, 0, size)
	buf = append(buf, marshalMagic...)
	if mode == hashing.ModeModulo {
		buf = binary.BigEndian.AppendUint32(buf, marshalVersion)
	} else {
		buf = binary.BigEndian.AppendUint32(buf, marshalVersionV2)
		buf = binary.BigEndian.AppendUint32(buf, uint32(mode))
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(sk.rows))
	buf = binary.BigEndian.AppendUint64(buf, uint64(sk.cols))
	buf = binary.BigEndian.AppendUint64(buf, sk.total)
	for _, p := range sk.hashes.Params() {
		buf = binary.BigEndian.AppendUint64(buf, p[0])
		buf = binary.BigEndian.AppendUint64(buf, p[1])
	}
	for _, v := range sk.counts {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	return buf, nil
}

// UnmarshalBinary reconstructs a sketch serialised by MarshalBinary,
// including its hash family (with the recorded bucket map mode — legacy
// version 1 blobs restore under the modulo map), counters and
// global-minimum tracking. It implements encoding.BinaryUnmarshaler; the
// receiver's previous state is discarded.
func (sk *Sketch) UnmarshalBinary(data []byte) error {
	r := cursor.New("cms: sketch data", data)
	magic, version := r.Bytes(4), r.U32()
	if err := r.Err(); err != nil {
		return err
	}
	if string(magic) != marshalMagic {
		return errors.New("cms: bad magic, not a serialised sketch")
	}
	header := headerLenV1
	mode := hashing.ModeModulo
	switch version {
	case marshalVersion:
		// Legacy blob: bucket map implied modulo.
	case marshalVersionV2:
		header = headerLenV2
		m := r.U32()
		if err := r.Err(); err != nil {
			return err
		}
		if m == marshalModeModulo || m > uint32(hashing.ModeFastrange) {
			// Modulo sketches serialise as version 1; a v2 blob claiming
			// modulo (or an unknown mode) is not something this code ever
			// wrote.
			return fmt.Errorf("cms: invalid bucket map mode %d in version 2 sketch", m)
		}
		mode = hashing.Mode(m)
	default:
		return fmt.Errorf("cms: unsupported version %d", version)
	}
	rows, cols, total := r.U64(), r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if rows == 0 || cols == 0 || rows > 1<<20 || cols > 1<<30 {
		return fmt.Errorf("cms: implausible dimensions %dx%d", rows, cols)
	}
	want := header + int(rows)*16 + int(rows*cols)*8
	if len(data) != want {
		return fmt.Errorf("cms: data length %d, want %d for a %dx%d sketch", len(data), want, rows, cols)
	}
	params := make([][2]uint64, rows)
	for i := range params {
		params[i] = [2]uint64{r.U64(), r.U64()}
	}
	fam, err := hashing.NewFamilyFromParamsMode(params, int(cols), mode)
	if err != nil {
		return fmt.Errorf("cms: reconstruct hash family: %w", err)
	}
	counts := r.U64s(int(rows * cols))
	if err := r.End(); err != nil {
		return err
	}
	sk.rows = int(rows)
	sk.cols = int(cols)
	sk.total = total
	sk.hashes = fam
	sk.counts = counts
	sk.scratch = make([]int, int(rows))
	sk.memoOK = false // new family: the remembered columns no longer apply
	sk.rescanMin()
	return nil
}
