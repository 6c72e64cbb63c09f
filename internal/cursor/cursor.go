// Package cursor is the one bounds-checked reader every binary format of
// the system is decoded through: pool snapshots, migration blobs, sketch
// state, and the fixed fields of a frame payload. All integers are
// big-endian.
//
// A Cursor never panics and never reads past its data. The first read that
// does not fit records a "truncated at offset" error and every read after
// it returns zero, so a decoder reads a group of fields and checks Err once
// before it trusts any of them — in particular before it sizes an
// allocation from one.
package cursor

import (
	"encoding/binary"
	"fmt"
)

// Cursor reads one blob front to back.
type Cursor struct {
	what string
	data []byte
	off  int
	err  error
}

// New returns a cursor at the start of data; what names the blob in errors
// ("shard: snapshot").
func New(what string, data []byte) Cursor {
	return Cursor{what: what, data: data}
}

// Bytes reads n bytes, or returns nil once a read has failed. The result
// aliases the cursor's data: copy it to keep it past the data's lifetime.
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.data)-c.off {
		c.err = fmt.Errorf("%s truncated at offset %d (need %d of %d bytes)", c.what, c.off, n, len(c.data))
		return nil
	}
	b := c.data[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if b := c.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a 32-bit integer.
func (c *Cursor) U32() uint32 {
	if b := c.Bytes(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a 64-bit integer.
func (c *Cursor) U64() uint64 {
	if b := c.Bytes(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// U64s reads n 64-bit integers into a fresh slice. The count is checked
// against the bytes left before anything is allocated, so a corrupt length
// field cannot demand memory the blob does not back.
func (c *Cursor) U64s(n int) []uint64 {
	if n < 0 || n > c.Len()/8 {
		if c.err == nil {
			c.err = fmt.Errorf("%s truncated at offset %d (need %d 8-byte values, %d bytes left)", c.what, c.off, n, c.Len())
		}
		return nil
	}
	b := c.Bytes(8 * n)
	if len(b) == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(b[8*i:])
	}
	return out
}

// Len reports how many bytes are left to read.
func (c *Cursor) Len() int { return len(c.data) - c.off }

// Err returns the first read failure, or nil.
func (c *Cursor) Err() error { return c.err }

// End returns the first read failure, or an error if data is left unread: a
// complete decode consumes its blob exactly.
func (c *Cursor) End() error {
	if c.err == nil && c.off != len(c.data) {
		c.err = fmt.Errorf("%s has %d trailing bytes", c.what, len(c.data)-c.off)
	}
	return c.err
}
