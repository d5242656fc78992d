package wah_test

import (
	"fmt"

	"pdcquery/internal/wah"
)

// Example shows the compression behaviour WAH is chosen for: long runs
// (clustered scientific data) collapse into fill words.
func Example() {
	var b wah.Builder
	b.AppendRun(false, 1_000_000) // a million zeros...
	b.AppendRun(true, 1000)       // ...then a burst of matches
	b.AppendRun(false, 1_000_000)
	bm := b.Build()
	fmt.Printf("bits: %d, set: %d, compressed size: %d bytes\n",
		bm.NumBits(), bm.Cardinality(), bm.SizeBytes())

	// A union of two bitmaps stays in compressed form.
	other := wah.FromIndices([]uint64{999_999}, bm.NumBits())
	or := wah.Or(bm, other)
	fmt.Printf("union: %d set, first %d\n", or.Cardinality(), or.ToIndices()[0])
	// Output:
	// bits: 2001000, set: 1000, compressed size: 20 bytes
	// union: 1001 set, first 999999
}
