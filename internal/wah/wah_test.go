package wah

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// naive is a plain boolean-slice reference implementation.
type naive []bool

func (n naive) indices() []uint64 {
	var out []uint64
	for i, v := range n {
		if v {
			out = append(out, uint64(i))
		}
	}
	return out
}

func randNaive(rng *rand.Rand, n int, density float64) naive {
	out := make(naive, n)
	for i := range out {
		out[i] = rng.Float64() < density
	}
	return out
}

func fromNaive(n naive) *Bitmap {
	var bd Builder
	for _, v := range n {
		bd.AppendBit(v)
	}
	return bd.Build()
}

func TestEmptyAndFull(t *testing.T) {
	e := Empty(100)
	if e.NumBits() != 100 || e.Cardinality() != 0 {
		t.Errorf("Empty: bits=%d card=%d", e.NumBits(), e.Cardinality())
	}
	f := Full(100)
	if f.NumBits() != 100 || f.Cardinality() != 100 {
		t.Errorf("Full: bits=%d card=%d", f.NumBits(), f.Cardinality())
	}
	// A 100-bit full bitmap compresses to ~2 words (fill + tail literal).
	if f.SizeBytes() > 12 {
		t.Errorf("Full(100) size = %d bytes, want <= 12", f.SizeBytes())
	}
	z := Empty(0)
	if z.NumBits() != 0 || z.Cardinality() != 0 {
		t.Errorf("Empty(0): %d bits %d card", z.NumBits(), z.Cardinality())
	}
}

func TestFromIndicesRoundTrip(t *testing.T) {
	idx := []uint64{0, 5, 30, 31, 32, 62, 63, 99}
	b := FromIndices(idx, 100)
	if got := b.ToIndices(); !reflect.DeepEqual(got, idx) {
		t.Errorf("round trip = %v, want %v", got, idx)
	}
	if b.Cardinality() != uint64(len(idx)) {
		t.Errorf("cardinality = %d, want %d", b.Cardinality(), len(idx))
	}
	for _, i := range idx {
		if !b.Test(i) {
			t.Errorf("Test(%d) = false", i)
		}
	}
	if b.Test(1) || b.Test(98) || b.Test(1000) {
		t.Error("Test reports unset bits as set")
	}
}

func TestFromIndicesPanics(t *testing.T) {
	for name, idx := range map[string][]uint64{
		"unsorted":     {5, 3},
		"duplicate":    {5, 5},
		"out of range": {100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			FromIndices(idx, 100)
		}()
	}
}

func TestLongRunsCompress(t *testing.T) {
	// One set bit in a million: should compress to a handful of words.
	b := FromIndices([]uint64{500000}, 1000000)
	if b.SizeBytes() > 64 {
		t.Errorf("sparse bitmap size = %d bytes", b.SizeBytes())
	}
	if b.Cardinality() != 1 || !b.Test(500000) {
		t.Error("sparse bitmap content wrong")
	}
}

func TestAppendRunMixed(t *testing.T) {
	var bd Builder
	bd.AppendRun(false, 10)
	bd.AppendRun(true, 50)
	bd.AppendBit(false)
	bd.AppendRun(true, 3)
	b := bd.Build()
	if b.NumBits() != 64 {
		t.Fatalf("bits = %d, want 64", b.NumBits())
	}
	want := uint64(53)
	if b.Cardinality() != want {
		t.Errorf("cardinality = %d, want %d", b.Cardinality(), want)
	}
	for i := uint64(0); i < 64; i++ {
		wantBit := (i >= 10 && i < 60) || i >= 61
		if b.Test(i) != wantBit {
			t.Errorf("bit %d = %v, want %v", i, b.Test(i), wantBit)
		}
	}
}

func TestOrAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 31, 32, 62, 100, 1000} {
		for _, density := range []float64{0, 0.01, 0.5, 0.99, 1} {
			na := randNaive(rng, n, density)
			nb := randNaive(rng, n, 1-density)
			a, b := fromNaive(na), fromNaive(nb)

			check := func(name string, got *Bitmap, op func(x, y bool) bool) {
				t.Helper()
				if got.NumBits() != uint64(n) {
					t.Fatalf("%s n=%d: bits = %d", name, n, got.NumBits())
				}
				for i := 0; i < n; i++ {
					want := op(na[i], nb[i])
					if got.Test(uint64(i)) != want {
						t.Fatalf("%s n=%d density=%v bit %d = %v, want %v",
							name, n, density, i, got.Test(uint64(i)), want)
					}
				}
			}
			check("or", Or(a, b), func(x, y bool) bool { return x || y })
		}
	}
}

func TestOrLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Or with mismatched lengths did not panic")
		}
	}()
	Or(Empty(10), Empty(11))
}

func TestOrAll(t *testing.T) {
	if OrAll(nil) != nil {
		t.Error("OrAll(nil) != nil")
	}
	a := FromIndices([]uint64{1}, 10)
	b := FromIndices([]uint64{5}, 10)
	c := FromIndices([]uint64{9}, 10)
	u := OrAll([]*Bitmap{a, b, c})
	if got := u.ToIndices(); !reflect.DeepEqual(got, []uint64{1, 5, 9}) {
		t.Errorf("OrAll = %v", got)
	}
	single := OrAll([]*Bitmap{a})
	if single.Cardinality() != 1 || !single.Test(1) {
		t.Error("OrAll single wrong")
	}
}

func TestForEachOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := randNaive(rng, 500, 0.3)
	b := fromNaive(n)
	var got []uint64
	b.ForEach(func(i uint64) { got = append(got, i) })
	want := n.indices()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ForEach = %v, want %v", got, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 100, 4096} {
		nv := randNaive(rng, n, 0.2)
		b := fromNaive(nv)
		enc := b.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumBits() != b.NumBits() || got.Cardinality() != b.Cardinality() {
			t.Fatalf("n=%d: decode mismatch", n)
		}
		if !reflect.DeepEqual(got.ToIndices(), b.ToIndices()) {
			t.Fatalf("n=%d: decoded indices differ", n)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded")
	}
	b := Full(100).Encode()
	if _, err := Decode(b[:len(b)-1]); err == nil {
		t.Error("Decode(truncated) succeeded")
	}
}

func TestVeryLongFill(t *testing.T) {
	// Exceed one fill word's capacity (2^30-1 groups * 31 bits); use runs
	// long enough to need merging logic but stay fast.
	var bd Builder
	const n = 10 * 1000 * 1000
	bd.AppendRun(true, n)
	bd.AppendRun(false, n)
	b := bd.Build()
	if b.Cardinality() != n {
		t.Errorf("cardinality = %d, want %d", b.Cardinality(), uint64(n))
	}
	if b.SizeBytes() > 32 {
		t.Errorf("two-run bitmap size = %d bytes", b.SizeBytes())
	}
	if !b.Test(n-1) || b.Test(n) {
		t.Error("fill boundary bits wrong")
	}
}

func TestPropertyOrCardinalityBounds(t *testing.T) {
	f := func(seedsA, seedsB []uint16) bool {
		const n = 2000
		ia := uniqueSorted(seedsA, n)
		ib := uniqueSorted(seedsB, n)
		a := FromIndices(ia, n)
		b := FromIndices(ib, n)
		var both uint64
		for _, i := range ia {
			if b.Test(i) {
				both++
			}
		}
		// |A∪B| + |A∩B| = |A| + |B|
		return Or(a, b).Cardinality()+both == a.Cardinality()+b.Cardinality()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// uniqueSorted maps arbitrary fuzz input to strictly increasing indices
// below n.
func uniqueSorted(seeds []uint16, n uint64) []uint64 {
	seen := make(map[uint64]bool)
	for _, s := range seeds {
		seen[uint64(s)%n] = true
	}
	out := make([]uint64, 0, len(seen))
	for i := uint64(0); i < n; i++ {
		if seen[i] {
			out = append(out, i)
		}
	}
	return out
}
