package selection

import (
	"slices"
	"testing"
)

// TestCoordKernelsMatch pins the reusable-destination kernels against
// the Selection-level operations they back.
func TestCoordKernelsMatch(t *testing.T) {
	a := []uint64{1, 4, 9, 16, 25, 36}
	b := []uint64{2, 4, 8, 16, 32, 36, 64}
	m := Merge(New(slices.Clone(a), nil), New(slices.Clone(b), nil))
	if got := MergeCoords(nil, a, b); !slices.Equal(got, m.Coords) {
		t.Fatalf("MergeCoords = %v, want %v", got, m.Coords)
	}
	// Dirty reused destinations must not leak stale coords.
	dst := []uint64{99, 98, 97, 96, 95, 94, 93, 92, 91, 90, 89, 88, 87}
	if got := MergeCoords(dst, a, b); !slices.Equal(got, m.Coords) {
		t.Fatalf("MergeCoords(dirty dst) = %v, want %v", got, m.Coords)
	}
}

// TestMergeCoordsZeroAlloc pins the OR-combine hot path: with a
// pre-sized destination the sorted union allocates nothing.
func TestMergeCoordsZeroAlloc(t *testing.T) {
	a := []uint64{1, 3, 5, 7, 9, 11}
	b := []uint64{2, 3, 6, 7, 10, 11}
	dst := make([]uint64, 0, len(a)+len(b))
	var out []uint64
	if n := testing.AllocsPerRun(200, func() { out = MergeCoords(dst, a, b) }); n != 0 {
		t.Errorf("MergeCoords with pre-sized dst allocated %.1f/op, want 0", n)
	}
	if !slices.Equal(out, []uint64{1, 2, 3, 5, 6, 7, 9, 10, 11}) {
		t.Fatalf("MergeCoords = %v", out)
	}
}
