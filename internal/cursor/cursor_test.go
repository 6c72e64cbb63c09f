package cursor

import (
	"bytes"
	"strings"
	"testing"
)

func TestCursorReadsInOrder(t *testing.T) {
	data := []byte{
		7,          // u8
		0, 0, 1, 2, // u32
		0, 0, 0, 0, 0, 0, 3, 4, // u64
		'a', 'b', 'c', // bytes
		0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 6, // two u64s
	}
	c := New("test: blob", data)
	if got := c.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := c.U32(); got != 0x102 {
		t.Fatalf("U32 = %#x", got)
	}
	if got := c.U64(); got != 0x304 {
		t.Fatalf("U64 = %#x", got)
	}
	if got := c.Bytes(3); !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("Bytes = %q", got)
	}
	if c.Len() != 16 {
		t.Fatalf("Len = %d, want 16", c.Len())
	}
	if got := c.U64s(2); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("U64s = %v", got)
	}
	if err := c.End(); err != nil {
		t.Fatalf("End after an exact read: %v", err)
	}
}

// TestCursorTruncation: the first read that does not fit names the blob and
// the offset, every later read returns zero without moving, and the error
// stays the first one.
func TestCursorTruncation(t *testing.T) {
	c := New("test: blob", []byte{1, 2, 3, 4, 5, 6})
	_ = c.U32()
	if got := c.U64(); got != 0 {
		t.Fatalf("U64 past the end = %d, want 0", got)
	}
	first := c.Err()
	if first == nil || !strings.Contains(first.Error(), "test: blob truncated at offset 4") {
		t.Fatalf("Err = %v, want a truncated-at-offset-4 error naming the blob", first)
	}
	// The two bytes left would satisfy these reads; a failed cursor stays failed.
	if c.U8() != 0 || c.Bytes(2) != nil || c.U64s(0) != nil || c.Len() != 2 {
		t.Fatal("a read succeeded after the cursor failed")
	}
	if c.Err() != first || c.End() != first {
		t.Fatal("a later read replaced the first error")
	}
	c = New("test: blob", nil)
	if c.Bytes(-1) != nil || c.Err() == nil {
		t.Fatal("negative length accepted")
	}
}

// TestCursorU64sBoundsBeforeAllocating: a count the remaining bytes cannot
// back fails before the allocation it asks for — a hostile length field in
// a 12-byte blob would otherwise cost terabytes and take the process down
// with it — also where 8*n overflows.
func TestCursorU64sBoundsBeforeAllocating(t *testing.T) {
	for _, n := range []int{2, 1 << 40, 1 << 61, -1} {
		c := New("test: blob", make([]byte, 12))
		if got := c.U64s(n); got != nil {
			t.Fatalf("U64s(%d) over 12 bytes returned %d values", n, len(got))
		}
		if c.Err() == nil || !strings.Contains(c.Err().Error(), "truncated at offset 0") {
			t.Fatalf("U64s(%d) over 12 bytes: %v", n, c.Err())
		}
	}
}

func TestCursorEndReportsTrailingBytes(t *testing.T) {
	c := New("test: blob", []byte{1, 2, 3})
	_ = c.U8()
	if err := c.End(); err == nil || !strings.Contains(err.Error(), "2 trailing bytes") {
		t.Fatalf("End = %v, want a trailing-bytes error", err)
	}
}
