package histogram

import (
	"encoding/binary"
	"math"
	"testing"
)

// valuesFrom reinterprets the fuzz bytes as float64 values, 8 bytes per
// value. NaNs and infinities pass through deliberately: Build must skip
// NaNs and clamp ±Inf without crashing.
func valuesFrom(b []byte) []float64 {
	out := make([]float64, 0, len(b)/8)
	for len(b) >= 8 {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		b = b[8:]
	}
	return out
}

// FuzzHistogramMerge builds two histograms from arbitrary values and
// merges them, checking that the mergeability invariants (power-of-two
// width, grid-aligned start, counts summing to Total) survive and that
// no elements are lost. The merged encoding must also round-trip.
func FuzzHistogramMerge(f *testing.F) {
	f.Add([]byte{}, []byte{}, 8)
	seed := make([]byte, 0, 64)
	for _, v := range []float64{1, 2, 3, 1000, -5, 0.25, 1e10, math.NaN()} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, seed[:32], 64)
	// Width +Inf / Start NaN before the grid was confined to ±2^1020.
	edge := make([]byte, 0, 24)
	for _, v := range []float64{1.7e308, 1e-76, -4e174} {
		edge = binary.LittleEndian.AppendUint64(edge, math.Float64bits(v))
	}
	f.Add(edge[:16], edge[16:], 9)
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, nbin int) {
		ha := Build(valuesFrom(rawA), nbin%512)
		hb := Build(valuesFrom(rawB), (nbin/2)%512)
		if err := ha.CheckInvariants(); err != nil {
			t.Fatalf("histogram A: %v", err)
		}
		if err := hb.CheckInvariants(); err != nil {
			t.Fatalf("histogram B: %v", err)
		}
		wantTotal := ha.Total + hb.Total
		ha.Merge(hb)
		if err := ha.CheckInvariants(); err != nil {
			t.Fatalf("merged: %v", err)
		}
		if ha.Total != wantTotal {
			t.Fatalf("merge lost elements: total %d, want %d", ha.Total, wantTotal)
		}
		got, err := Decode(ha.Encode())
		if err != nil {
			t.Fatalf("Decode(Encode()) of merged histogram: %v", err)
		}
		if got.Total != ha.Total || got.NumBins() != ha.NumBins() {
			t.Fatal("merged histogram does not round-trip")
		}
	})
}
