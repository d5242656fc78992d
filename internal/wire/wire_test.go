package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestReadsAtTheirBoundary: every read succeeds on a payload that holds
// exactly its bytes, reading them little-endian, and fails with
// ErrTruncated, reading zero, on one a byte short.
func TestReadsAtTheirBoundary(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
		read func(*Reader) uint64
		want uint64
	}{
		{"U8", 1, func(r *Reader) uint64 { return uint64(r.U8()) }, 0x01},
		{"U16", 2, func(r *Reader) uint64 { return uint64(r.U16()) }, 0x0201},
		{"U32", 4, func(r *Reader) uint64 { return uint64(r.U32()) }, 0x04030201},
		{"U64", 8, func(r *Reader) uint64 { return r.U64() }, 0x0807060504030201},
		{"Bytes", 3, func(r *Reader) uint64 { return uint64(len(r.Bytes(3))) }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := []byte{1, 2, 3, 4, 5, 6, 7, 8}[:tc.size]
			r := NewReader(b)
			if got := tc.read(&r); got != tc.want || r.Err() != nil || r.Len() != 0 {
				t.Errorf("exact payload: read %#x, err %v, %d left; want %#x, nil, 0", got, r.Err(), r.Len(), tc.want)
			}
			r = NewReader(b[:tc.size-1])
			if got := tc.read(&r); got != 0 || !errors.Is(r.Err(), ErrTruncated) {
				t.Errorf("one byte short: read %#x, err %v; want 0, ErrTruncated", got, r.Err())
			}
		})
	}
}

// TestBytesCappedAtItsEnd: appending to a slice Bytes returned never
// writes into the payload bytes after it.
func TestBytesCappedAtItsEnd(t *testing.T) {
	b := []byte{1, 2, 3, 4}
	r := NewReader(b)
	v := r.Bytes(2)
	if cap(v) != 2 {
		t.Fatalf("cap %d, want 2", cap(v))
	}
	_ = append(v, 9)
	if !bytes.Equal(b, []byte{1, 2, 3, 4}) || !bytes.Equal(r.Rest(), []byte{3, 4}) {
		t.Fatalf("payload %v after an append to the first two bytes", b)
	}
}

// TestFirstFailureSticks: after a failure every read returns zero, and
// neither a later read nor a later Fail replaces the first error.
func TestFirstFailureSticks(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U32()
	if r.U8() != 0 || r.Bytes(0) != nil || r.Rest() != nil || r.Len() != 0 {
		t.Fatal("a read after a truncation returned bytes")
	}
	r.Fail(errors.New("later"))
	if !errors.Is(r.Err(), ErrTruncated) || !errors.Is(r.Done(), ErrTruncated) {
		t.Fatalf("err %v, want the first failure, ErrTruncated", r.Err())
	}

	bad := errors.New("bad marker")
	r = NewReader([]byte{1, 2, 3})
	r.Fail(bad)
	if r.U8() != 0 || r.Err() != bad {
		t.Fatalf("after Fail: err %v, want %v and zero reads", r.Err(), bad)
	}
}

// TestCountAtItsLimit: a count the rest of the payload can hold is
// returned; one item more fails the reader, reads 0, and zeroes every
// read after it.
func TestCountAtItsLimit(t *testing.T) {
	b := make([]byte, 16)
	r := NewReader(b)
	if n := r.Count(2, 8); n != 2 || r.Err() != nil {
		t.Fatalf("Count(2, 8) over 16 bytes = %d, %v", n, r.Err())
	}
	if n := r.Count(3, 8); n != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "count 3 exceeds its 16-byte payload") {
		t.Fatalf("Count(3, 8) over 16 bytes = %d, %v", n, r.Err())
	}
	if r.U64() != 0 || r.Len() != 0 {
		t.Fatal("a read after a refused count returned bytes")
	}
	r = NewReader(nil)
	if n := r.Count(0, 8); n != 0 || r.Done() != nil {
		t.Fatalf("Count(0, 8) of an empty payload = %d, %v", n, r.Err())
	}
}

// TestDoneRefusesTrailingBytes: Done fails a reader with bytes left and
// passes one read to its end.
func TestDoneRefusesTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U16()
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Done with a byte left: %v", err)
	}
	r = NewReader([]byte{1, 2, 3})
	r.U16()
	r.U8()
	if err := r.Done(); err != nil {
		t.Fatalf("Done at the end: %v", err)
	}
}
