//go:build !amd64

package exec

import "pdcquery/internal/dtype"

// hasAVX2 is false off amd64, where every span width marks with the
// portable loop.
const hasAVX2 = false

// markSpan32 is the portable span[uint32].mark; off amd64 the dispatch
// in span.mark never reaches it.
func markSpan32(vals []uint32, n uint64, dst []uint64, lo, width uint32) int64 {
	return span[uint32]{lo, width}.markPortable(dtype.Bytes(vals), n, dst)
}
