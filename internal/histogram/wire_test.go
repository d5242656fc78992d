package histogram

import (
	"math"
	"testing"

	"pdcquery/internal/wiretest"
)

// TestWireRoundTrip is the round trip of the histogram codec. The case
// sets every field to a value distinct from its same-typed siblings
// (wiretest enforces it), so a field the encoder and decoder disagree
// on — dropped on one side, or swapped with a neighbour — fails here.
func TestWireRoundTrip(t *testing.T) {
	h := Build([]float64{math.Inf(-1), 3, 5.5, 9, math.Inf(1), math.Inf(1)}, 8)
	wiretest.RoundTrip(t, []*Histogram{h}, func(h *Histogram) (*Histogram, error) { return Decode(h.Encode()) })
}
