package selection

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

var dims = []uint64{100}

func TestNewAndValidate(t *testing.T) {
	s := New([]uint64{1, 5, 9}, dims)
	if s.NHits != 3 {
		t.Errorf("NHits = %d", s.NHits)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("valid selection rejected: %v", err)
	}
	bad := &Selection{NHits: 2, Coords: []uint64{3, 3}, Dims: dims}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate coords accepted")
	}
	bad = &Selection{NHits: 5, Coords: []uint64{1}, Dims: dims}
	if err := bad.Validate(); err == nil {
		t.Error("count mismatch accepted")
	}
	c := NewCount(7, dims)
	if err := c.Validate(); err != nil {
		t.Errorf("count-only rejected: %v", err)
	}
	c.Coords = []uint64{1}
	if err := c.Validate(); err == nil {
		t.Error("count-only with coords accepted")
	}
}

func TestCoordConversion(t *testing.T) {
	s := New([]uint64{205}, []uint64{10, 100})
	buf := make([]uint64, 2)
	coord := s.Coord(0, buf)
	if coord[0] != 2 || coord[1] != 5 {
		t.Errorf("Coord = %v, want [2 5]", coord)
	}
}

func TestMergeDedups(t *testing.T) {
	a := New([]uint64{1, 3, 5}, dims)
	b := New([]uint64{2, 3, 6}, dims)
	m := Merge(a, b)
	want := []uint64{1, 2, 3, 5, 6}
	if !reflect.DeepEqual(m.Coords, want) {
		t.Errorf("Merge = %v, want %v", m.Coords, want)
	}
	if m.NHits != 5 {
		t.Errorf("NHits = %d", m.NHits)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMergeNilAndCountOnly(t *testing.T) {
	a := New([]uint64{1}, dims)
	if Merge(nil, a) != a || Merge(a, nil) != a {
		t.Error("nil merge wrong")
	}
	c := Merge(NewCount(5, dims), NewCount(7, dims))
	if !c.CountOnly || c.NHits != 12 {
		t.Errorf("count merge = %+v", c)
	}
	mixed := Merge(a, NewCount(2, dims))
	if !mixed.CountOnly || mixed.NHits != 3 {
		t.Errorf("mixed merge = %+v", mixed)
	}
}

func TestMergeAll(t *testing.T) {
	parts := []*Selection{
		New([]uint64{10, 20}, dims),
		New([]uint64{5}, dims),
		nil,
		New([]uint64{20, 30}, dims),
	}
	m := MergeAll(parts)
	want := []uint64{5, 10, 20, 30}
	if !reflect.DeepEqual(m.Coords, want) {
		t.Errorf("MergeAll = %v", m.Coords)
	}
	if MergeAll(nil) != nil {
		t.Error("MergeAll(nil) != nil")
	}
}

func TestBatches(t *testing.T) {
	coords := make([]uint64, 10)
	for i := range coords {
		coords[i] = uint64(i)
	}
	s := New(coords, dims)
	bs, err := s.Batches(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("batches = %d", len(bs))
	}
	if bs[0].NHits != 4 || bs[1].NHits != 4 || bs[2].NHits != 2 {
		t.Errorf("batch sizes = %d %d %d", bs[0].NHits, bs[1].NHits, bs[2].NHits)
	}
	var total []uint64
	for _, b := range bs {
		total = append(total, b.Coords...)
	}
	if !reflect.DeepEqual(total, coords) {
		t.Error("batches do not reassemble the selection")
	}
	// Default batch size.
	if got, err := s.Batches(0); err != nil || len(got) != 1 {
		t.Errorf("default batch = %d parts, err %v", len(got), err)
	}
}

func TestBatchesCountOnlyErrors(t *testing.T) {
	if _, err := NewCount(5, dims).Batches(2); err == nil {
		t.Error("Batches on count-only did not error")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, s := range []*Selection{
		New([]uint64{1, 5, 900}, []uint64{10, 100}),
		New(nil, dims),
		NewCount(123456, []uint64{7, 8, 9}),
	} {
		got, err := Decode(s.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.NHits != s.NHits || got.CountOnly != s.CountOnly {
			t.Errorf("header mismatch: %+v vs %+v", got, s)
		}
		if !reflect.DeepEqual(got.Dims, s.Dims) {
			t.Errorf("dims mismatch: %v vs %v", got.Dims, s.Dims)
		}
		if len(got.Coords) != len(s.Coords) {
			t.Errorf("coords len mismatch")
		}
		for i := range s.Coords {
			if got.Coords[i] != s.Coords[i] {
				t.Errorf("coord %d mismatch", i)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded")
	}
	enc := New([]uint64{1, 2}, dims).Encode()
	if _, err := Decode(enc[:len(enc)-3]); err == nil {
		t.Error("truncated coords accepted")
	}
	enc = NewCount(5, dims).Encode()
	if _, err := Decode(append(enc, 1)); err == nil {
		t.Error("count-only trailing bytes accepted")
	}
}

func TestPropertyMergeIsUnion(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := New(sortedSet(xs), dims)
		b := New(sortedSet(ys), dims)
		m := Merge(a, b)
		if m.Validate() != nil {
			return false
		}
		set := map[uint64]bool{}
		for _, c := range a.Coords {
			set[c] = true
		}
		for _, c := range b.Coords {
			set[c] = true
		}
		if uint64(len(set)) != m.NHits {
			return false
		}
		for _, c := range m.Coords {
			if !set[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sortedSet is xs as sorted, distinct coordinates.
func sortedSet(xs []uint16) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// FuzzDecodeSelection hardens the flat selection decoder: no payload
// panics it, and any payload it accepts re-encodes to exactly its bytes,
// so each form has one flags byte.
func FuzzDecodeSelection(f *testing.F) {
	f.Add(New([]uint64{1, 5, 900}, []uint64{10, 100}).Encode())
	f.Add(NewCount(123456, []uint64{7, 8, 9}).Encode())
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if re := s.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("accepted % x, re-encoded % x", data, re)
		}
	})
}
