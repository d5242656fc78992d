package wah

import (
	"testing"

	"pdcquery/internal/wiretest"
)

// TestWireRoundTrip is the round trip of the bitmap codec. The case sets
// every field (wiretest enforces it), so a field the encoder and decoder
// disagree on fails here.
func TestWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, []*Bitmap{FromIndices([]uint64{1, 5, 100, 101, 3000, 9000}, 1<<14)},
		func(b *Bitmap) (*Bitmap, error) { return Decode(b.Encode()) })
}
