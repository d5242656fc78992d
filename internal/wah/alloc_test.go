package wah

import (
	"testing"
)

// allocTestOperands builds two bitmaps with a mix of fills and literals
// so the Into paths exercise every appendGroup/appendFill branch.
func allocTestOperands() (a, b *Bitmap) {
	const nbits = 1 << 14
	a = FromIndices([]uint64{1, 5, 100, 101, 3000, 3001, 9000}, nbits)
	b = FromIndices([]uint64{5, 99, 100, 2999, 3001, 9000, 16383}, nbits)
	return a, b
}

// TestOrIntoMatches pins OrInto against Or, including repeated reuse of
// the same destination (stale contents must not leak).
func TestOrIntoMatches(t *testing.T) {
	a, b := allocTestOperands()
	wantOr := Or(a, b).ToIndices()
	var dst *Bitmap
	for i := 0; i < 3; i++ {
		dst = OrInto(dst, a, b)
		if got := dst.ToIndices(); !equalU64(got, wantOr) {
			t.Fatalf("OrInto round %d = %v, want %v", i, got, wantOr)
		}
	}
	// Passing an operand as dst must still be correct (it falls back to a
	// fresh result instead of clobbering its own input).
	res := OrInto(a, a, b)
	if res == a {
		t.Fatal("OrInto reused an operand as its destination")
	}
	if got := res.ToIndices(); !equalU64(got, wantOr) {
		t.Fatalf("OrInto(a, a, b) = %v, want %v", got, wantOr)
	}
}

// TestOrIntoZeroAlloc pins the hot-loop contract: once the destination
// bitmap has warmed to the result size, group iteration plus combine
// performs zero heap allocations per operation.
func TestOrIntoZeroAlloc(t *testing.T) {
	a, b := allocTestOperands()
	dst := OrInto(nil, a, b)
	if n := testing.AllocsPerRun(200, func() { dst = OrInto(dst, a, b) }); n != 0 {
		t.Errorf("OrInto with warm dst allocated %.1f/op, want 0", n)
	}
}

// TestToIndicesIntoZeroAlloc pins set-bit materialization: with a warm
// index buffer the WAH walk is allocation-free.
func TestToIndicesIntoZeroAlloc(t *testing.T) {
	a, b := allocTestOperands()
	u := Or(a, b)
	buf := u.ToIndicesInto(nil)
	if !equalU64(buf, u.ToIndices()) {
		t.Fatalf("ToIndicesInto = %v, want %v", buf, u.ToIndices())
	}
	if n := testing.AllocsPerRun(200, func() { buf = u.ToIndicesInto(buf) }); n != 0 {
		t.Errorf("ToIndicesInto with warm buffer allocated %.1f/op, want 0", n)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
