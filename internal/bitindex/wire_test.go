package bitindex

import (
	"math/rand"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/wiretest"
)

// TestWireRoundTrip is the round trip of the index codec. The case sets
// every field to a value distinct from its same-typed siblings
// (wiretest enforces it), so a field the encoder and decoder disagree
// on — dropped on one side, or swapped with a neighbour — fails here.
func TestWireRoundTrip(t *testing.T) {
	vals := randVals(rand.New(rand.NewSource(4)), 5000, 6, 1)
	wiretest.RoundTrip(t, []*Index{buildOf(dtype.Float32, dtype.Bytes(vals), 2)},
		func(x *Index) (*Index, error) { return Decode(x.Encode()) })
}
