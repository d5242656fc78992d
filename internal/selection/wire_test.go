package selection

import (
	"testing"

	"pdcquery/internal/wiretest"
)

// TestWireRoundTrip is the round trip of both selection codecs, the
// flat Selection and the Packed chunk stream. The cases set every field
// to a value distinct from its same-typed siblings (wiretest enforces
// it), so a field the encoder and decoder disagree on — dropped on one
// side, or swapped with a neighbour — fails here.
func TestWireRoundTrip(t *testing.T) {
	t.Run("Selection", func(t *testing.T) {
		wiretest.RoundTrip(t, []*Selection{
			New([]uint64{1, 5, 900}, []uint64{10, 100}),
			NewCount(123456, []uint64{7, 8, 9}),
		}, func(s *Selection) (*Selection, error) { return Decode(s.Encode()) })
	})
	t.Run("Packed", func(t *testing.T) {
		chunk := AppendChunkCoords(nil, 0, 8192, []uint64{3, 9, 100})
		// A count-only selection decodes with an empty, non-nil stream.
		wiretest.RoundTrip(t, []*Packed{
			{NHits: 3, Dims: []uint64{8192}, Chunks: chunk},
			{NHits: 42, CountOnly: true, Dims: []uint64{10}, Chunks: []byte{}},
		}, func(p *Packed) (*Packed, error) { return DecodePacked(p.Encode(nil)) })
	})
}
