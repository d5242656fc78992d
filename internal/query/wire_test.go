package query

import (
	"testing"

	"pdcquery/internal/region"
	"pdcquery/internal/wiretest"
)

// TestWireRoundTrip is the round trip of the query codec (Query and its
// condition tree). The cases set every field to a value distinct from
// its same-typed siblings (wiretest enforces it), so a field the encoder
// and decoder disagree on — dropped on one side, or swapped with a
// neighbour — fails here.
func TestWireRoundTrip(t *testing.T) {
	q := &Query{Root: Or(And(Leaf(1, OpGT, 2), Leaf(2, OpLE, 200)), Leaf(3, OpEQ, -7.5))}
	q.SetRegion(region.New([]uint64{5, 0}, []uint64{10, 3}))
	wiretest.RoundTrip(t, []*Query{q}, func(q *Query) (*Query, error) { return Decode(q.Encode()) })
}
