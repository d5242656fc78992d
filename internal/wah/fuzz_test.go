package wah

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWAHRoundTrip drives the builder with an arbitrary bit pattern plus
// an arbitrary run, then checks that Encode/Decode is lossless and that
// the compressed form agrees with a bitmap rebuilt from the extracted
// indices. The raw input is also fed straight to Decode to exercise the
// malformed-buffer paths.
func FuzzWAHRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0xff, 0x00, 0xaa}, uint64(3))
	f.Add([]byte{0x01}, uint64(1<<20))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint64(31))
	f.Fuzz(func(t *testing.T, raw []byte, run uint64) {
		var bd Builder
		for _, b := range raw {
			for j := 0; j < 8; j++ {
				bd.AppendBit(b&(1<<j) != 0)
			}
		}
		bd.AppendRun(run%2 == 0, run%(1<<16))
		bm := bd.Build()

		enc := bm.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode()) failed: %v", err)
		}
		if got.NumBits() != bm.NumBits() {
			t.Fatalf("nbits %d != %d after round trip", got.NumBits(), bm.NumBits())
		}
		if got.Cardinality() != bm.Cardinality() {
			t.Fatalf("cardinality %d != %d after round trip", got.Cardinality(), bm.Cardinality())
		}
		if !bytes.Equal(got.Encode(), enc) {
			t.Fatal("re-encoding is not stable")
		}

		idx := bm.ToIndices()
		if uint64(len(idx)) != bm.Cardinality() {
			t.Fatalf("ToIndices returned %d indices, cardinality %d", len(idx), bm.Cardinality())
		}
		rebuilt := FromIndices(idx, bm.NumBits())
		if rebuilt.Cardinality() != bm.Cardinality() {
			t.Fatalf("FromIndices(ToIndices()) cardinality %d != %d", rebuilt.Cardinality(), bm.Cardinality())
		}

		// Arbitrary bytes must never crash the decoder; on success the
		// result must re-encode to the same bytes.
		if alt, err := Decode(raw); err == nil {
			if !bytes.Equal(alt.Encode(), raw) {
				t.Fatal("accepted buffer does not re-encode identically")
			}
		}
	})
}

// FuzzOrEncodedInto feeds the dense kernel arbitrary bytes as a blob:
// it must never panic or write beyond the bitset, must answer ErrCorrupt
// or nil, and whenever it accepts a blob the bits it set are exactly
// Decode(blob).ToIndices(). A bitmap built from the same bytes must
// always be accepted.
func FuzzOrEncodedInto(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add(FromIndices([]uint64{0, 5, 30, 31, 32, 62, 63, 99}, 100).Encode(), uint64(100))
	f.Add(Full(1000).Encode(), uint64(1000))
	f.Add(Empty(31*64).Encode(), uint64(31*64))
	f.Add(FromIndices([]uint64{1, 5, 100, 3000, 16383}, 1<<14).Encode(), uint64(1<<14))
	f.Fuzz(func(t *testing.T, raw []byte, nbits uint64) {
		nbits %= 1 << 16
		got, err := orDense(t, nbits, raw)
		switch {
		case err == nil:
			bm, derr := Decode(raw)
			if derr != nil {
				t.Fatalf("kernel accepted a blob Decode rejects: %v", derr)
			}
			if !equalU64(denseIndices(got), bm.ToIndices()) {
				t.Fatalf("dense OR = %v, Decode().ToIndices() = %v", denseIndices(got), bm.ToIndices())
			}
		case !errors.Is(err, ErrCorrupt):
			t.Fatalf("untyped error: %v", err)
		}

		var bd Builder
		for _, b := range raw {
			for j := 0; j < 8; j++ {
				bd.AppendBit(b&(1<<j) != 0)
			}
		}
		bd.AppendRun(nbits%2 == 0, nbits)
		bm := bd.Build()
		got, err = orDense(t, bm.NumBits(), bm.Encode())
		if err != nil {
			t.Fatalf("built bitmap rejected: %v", err)
		}
		if !equalU64(denseIndices(got), bm.ToIndices()) {
			t.Fatal("dense OR of a built bitmap differs from ToIndices")
		}
	})
}
