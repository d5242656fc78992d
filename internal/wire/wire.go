// Package wire is the bounded reader every decoder of another process's
// bytes reads through. A field is read only when the payload still holds
// it, and a count is believed only when the rest of the payload can hold
// that many items. The first failure sticks and every later read returns
// zero, so a decoder reads its fields straight through, checks Err (or
// Done) once and wraps that error once with its own prefix.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports a read past the end of the payload.
var ErrTruncated = errors.New("truncated")

// Reader reads little-endian fields off a byte slice.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// short fails the reader with ErrTruncated unless it has failed already.
func (r *Reader) short() {
	if r.err == nil {
		r.err = ErrTruncated
	}
	r.b = nil
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if len(r.b) < 1 {
		r.short()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if len(r.b) < 2 {
		r.short()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.short()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.short()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Bytes reads the next n bytes. The slice aliases the payload and is
// capped at its own end, so appending to it never writes into the bytes
// after it.
func (r *Reader) Bytes(n uint64) []byte {
	if uint64(len(r.b)) < n {
		r.short()
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	//lint:ignore aliasguard a reader owns nothing: the bytes are its caller's payload, and the caller decides what aliases it
	return v
}

// Count checks a count of items, each at least minItemBytes long (and
// minItemBytes > 0), against the rest of the payload and returns it as
// an int. A count the payload cannot hold fails the reader and reads
// 0, so nothing is ever sized by it.
func (r *Reader) Count(n uint64, minItemBytes int) int {
	if n > uint64(len(r.b)/minItemBytes) {
		r.Fail(fmt.Errorf("count %d exceeds its %d-byte payload", n, len(r.b)))
		return 0
	}
	return int(n)
}

// Rest reads every byte left.
func (r *Reader) Rest() []byte {
	v := r.b
	r.b = nil
	//lint:ignore aliasguard a reader owns nothing: the bytes are its caller's payload, and the caller decides what aliases it
	return v
}

// Len is the number of bytes left.
func (r *Reader) Len() int { return len(r.b) }

// Fail fails the reader with err unless it has failed already: a
// decoder's own check (a bad marker, an unknown kind) stops the reads
// that follow it the same way a truncation does.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Err is the reader's first failure, nil if it has none.
func (r *Reader) Err() error { return r.err }

// Done is Err, or a failure when bytes are left over: a top-level
// decoder ends in it, so a payload has one spelling, the one its
// encoder writes.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}
