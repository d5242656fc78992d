package wah

import (
	"bytes"
	"math/rand"
	"testing"
)

// referenceFromIndices is the bit-at-a-time builder FromIndices is held
// to: every gap goes through AppendRun, which fills partial groups bit
// by bit, and every set bit through AppendBit.
func referenceFromIndices(indices []uint64, nbits uint64) *Bitmap {
	var bd Builder
	var pos uint64
	for _, i := range indices {
		bd.AppendRun(false, i-pos)
		bd.AppendBit(true)
		pos = i + 1
	}
	bd.AppendRun(false, nbits-pos)
	return bd.Build()
}

// checkMatchesReference fails unless FromIndices encodes exactly the
// reference builder's bytes.
func checkMatchesReference(t *testing.T, name string, idx []uint64, nbits uint64) {
	t.Helper()
	got, want := FromIndices(idx, nbits).Encode(), referenceFromIndices(idx, nbits).Encode()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: FromIndices encodes %x, the bit-at-a-time builder %x", name, got, want)
	}
}

// runIndices returns the positions of [lo, hi).
func runIndices(lo, hi uint64) []uint64 {
	out := make([]uint64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestFromIndicesMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		idx   []uint64
		nbits uint64
	}{
		{"empty", nil, 0},
		{"all zero", nil, 1000},
		{"one bit", []uint64{0}, 1},
		{"last bit", []uint64{30}, 31},
		{"group edges", []uint64{0, 30, 31, 61, 62, 92}, 93},
		{"one-fill group", runIndices(31, 62), 100},
		{"one-fill run", runIndices(0, 31*5), 31 * 5},
		{"one-fill then tail", runIndices(0, 31*3+7), 31*3 + 9},
		{"fills between ones", append(runIndices(31, 93), runIndices(31*40, 31*42)...), 31 * 50},
		{"partial then one-fill", append([]uint64{3}, runIndices(31, 124)...), 200},
		{"sparse", []uint64{500000}, 1000000},
	}
	for _, c := range cases {
		checkMatchesReference(t, c.name, c.idx, c.nbits)
	}

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		nbits := uint64(rng.Intn(3000))
		// Densities from sparse to nearly full, plus runs of ones long
		// enough to become one-fills.
		density := []float64{0.001, 0.05, 0.5, 0.97, 1}[trial%5]
		var idx []uint64
		for i := uint64(0); i < nbits; i++ {
			if rng.Float64() < density {
				idx = append(idx, i)
			}
		}
		checkMatchesReference(t, "random", idx, nbits)
	}
}

func TestEncoderResets(t *testing.T) {
	var e Encoder
	e.Set(40)
	first := e.Finish(100)
	e.Set(3)
	second := e.Finish(10)
	if got := first.ToIndices(); len(got) != 1 || got[0] != 40 {
		t.Errorf("first bitmap = %v, want [40]", got)
	}
	if got := second.ToIndices(); len(got) != 1 || got[0] != 3 || second.NumBits() != 10 {
		t.Errorf("second bitmap = %v over %d bits, want [3] over 10", got, second.NumBits())
	}
}

// FuzzFromIndicesMatchesReference derives strictly increasing positions
// from arbitrary bytes (each byte a gap, with runs of consecutive ones
// for the byte 0) and holds FromIndices to the bit-at-a-time builder.
func FuzzFromIndicesMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 0, 0, 30, 200}, uint16(40))
	f.Add(bytes.Repeat([]byte{0}, 100), uint16(7))
	f.Fuzz(func(t *testing.T, gaps []byte, tail uint16) {
		var idx []uint64
		pos := uint64(0)
		for _, g := range gaps {
			idx = append(idx, pos+uint64(g))
			pos += uint64(g) + 1
		}
		checkMatchesReference(t, "fuzz", idx, pos+uint64(tail))
	})
}
