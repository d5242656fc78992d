// Package selection implements the PDC data selection: the set of
// matching element locations a query returns (§III-A).
//
// A selection holds sorted row-major linear element indices plus the
// object dimensions needed to convert them to array coordinates. Servers
// produce partial selections for their assigned regions; the client's
// aggregator merges them (and the OR path of the evaluator merges
// selections with duplicate removal, the paper's merge-sort dedup).
package selection

import (
	"encoding/binary"
	"fmt"

	"pdcquery/internal/region"
	"pdcquery/internal/wire"
)

// Selection is a set of matching element locations. CountOnly selections
// carry just NHits (the PDCquery_get_nhits fast path).
type Selection struct {
	// NHits is the number of matching elements.
	NHits uint64
	// Coords holds the sorted row-major linear indices of the matches;
	// nil for count-only selections with NHits > 0 possible only when
	// CountOnly is set.
	Coords []uint64
	// CountOnly marks a selection that deliberately omits locations.
	CountOnly bool
	// Dims are the object dimensions used to interpret Coords.
	Dims []uint64
}

// New returns a selection over the given sorted linear indices.
func New(coords []uint64, dims []uint64) *Selection {
	return &Selection{NHits: uint64(len(coords)), Coords: coords, Dims: dims}
}

// NewCount returns a count-only selection.
func NewCount(n uint64, dims []uint64) *Selection {
	return &Selection{NHits: n, CountOnly: true, Dims: dims}
}

// Validate checks internal consistency: sorted unique coords matching
// NHits.
func (s *Selection) Validate() error {
	if s.CountOnly {
		if s.Coords != nil {
			return fmt.Errorf("selection: count-only with coords")
		}
		return nil
	}
	if uint64(len(s.Coords)) != s.NHits {
		return fmt.Errorf("selection: NHits %d != %d coords", s.NHits, len(s.Coords))
	}
	for i := 1; i < len(s.Coords); i++ {
		if s.Coords[i] <= s.Coords[i-1] {
			return fmt.Errorf("selection: coords not strictly increasing at %d", i)
		}
	}
	return nil
}

// Coord returns the i-th match as an array coordinate.
func (s *Selection) Coord(i int, buf []uint64) []uint64 {
	return region.LinearToCoord(s.Dims, s.Coords[i], buf)
}

// Merge unions two selections (same object space), removing duplicates —
// the paper's OR combination. Count-only selections merge by adding hit
// counts (callers must guarantee disjointness, which holds for partial
// results from disjoint region sets).
func Merge(a, b *Selection) *Selection {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.CountOnly || b.CountOnly {
		return &Selection{NHits: a.NHits + b.NHits, CountOnly: true, Dims: a.Dims}
	}
	return New(MergeCoords(nil, a.Coords, b.Coords), a.Dims)
}

// MergeCoords unions two sorted strictly-increasing coordinate lists
// into dst[:0] and returns the result, growing dst only when its
// capacity is below the worst case (all coordinates distinct). With a
// pre-sized dst the merge is allocation-free — the reusable kernel
// behind Merge and the aggregator's fold loop.
func MergeCoords(dst, a, b []uint64) []uint64 {
	if cap(dst) < len(a)+len(b) {
		dst = make([]uint64, 0, len(a)+len(b))
	}
	out := dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// MergeAll unions many selections.
func MergeAll(ss []*Selection) *Selection {
	var acc *Selection
	for _, s := range ss {
		acc = Merge(acc, s)
	}
	return acc
}

// Batches splits the selection into count-preserving chunks of at most
// batchSize hits, supporting PDCquery_get_data_batch. A count-only
// selection has no coordinates to batch and is reported as an error.
func (s *Selection) Batches(batchSize uint64) ([]*Selection, error) {
	if s.CountOnly {
		return nil, fmt.Errorf("selection: cannot batch count-only selection")
	}
	if batchSize == 0 {
		batchSize = 1 << 20
	}
	var out []*Selection
	for off := uint64(0); off < uint64(len(s.Coords)); off += batchSize {
		end := off + batchSize
		if end > uint64(len(s.Coords)) {
			end = uint64(len(s.Coords))
		}
		out = append(out, New(s.Coords[off:end], s.Dims))
	}
	return out, nil
}

// Encode serializes the selection for transport.
func (s *Selection) Encode() []byte {
	flags := byte(0)
	if s.CountOnly {
		flags = 1
	}
	n := 1 + 8 + 1 + 8*len(s.Dims) + 8*len(s.Coords)
	out := make([]byte, 0, n)
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint64(out, s.NHits)
	out = append(out, byte(len(s.Dims)))
	for _, d := range s.Dims {
		out = binary.LittleEndian.AppendUint64(out, d)
	}
	if !s.CountOnly {
		for _, c := range s.Coords {
			out = binary.LittleEndian.AppendUint64(out, c)
		}
	}
	return out
}

// Decode deserializes a selection produced by Encode.
func Decode(b []byte) (*Selection, error) {
	r := wire.NewReader(b)
	s := &Selection{}
	s.CountOnly, s.NHits, s.Dims = decodeHeader(&r)
	if !s.CountOnly {
		s.Coords = make([]uint64, r.Count(s.NHits, 8))
		for i := range s.Coords {
			s.Coords[i] = r.U64()
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("selection: %w", err)
	}
	return s, nil
}

// decodeHeader reads the header both wire forms share: flags, hit count,
// rank and dims. A flags byte Encode cannot write fails the reader.
func decodeHeader(r *wire.Reader) (countOnly bool, nhits uint64, dims []uint64) {
	flags := r.U8()
	nhits = r.U64()
	if flags > 1 {
		r.Fail(fmt.Errorf("flags %#x", flags))
	}
	dims = make([]uint64, r.Count(uint64(r.U8()), 8))
	for d := range dims {
		dims[d] = r.U64()
	}
	return flags == 1, nhits, dims
}
