package bitindex_test

import (
	"testing"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/workload"
)

// BenchmarkIndexBuild times Build on one 64 KiB region (16 384 float32
// elements) of two VPIC variables: Energy, whose values spread over the
// bins in no order, and x, which is stored in cell order, so each bin is
// one run of positions. It reports ns per element beside allocs/op.
func BenchmarkIndexBuild(b *testing.B) {
	const elems = 16384
	v := workload.GenerateVPIC(1<<21, 7)
	for _, name := range []string{"Energy", "x"} {
		data := dtype.Bytes(v.Vars[name][:elems])
		b.Run(name, func(b *testing.B) {
			// The fixture: a region of this size indexes into a handful
			// of bins, each of them non-empty.
			lo, hi := dtype.MinMax(dtype.Float32, data)
			x := bitindex.Build(dtype.Float32, data, lo, hi, bitindex.DefaultPrecision)
			if x.N != elems || len(x.Bins) < 2 {
				b.Fatalf("%s: %d elements in %d bins", name, x.N, len(x.Bins))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bitindex.Build(dtype.Float32, data, lo, hi, bitindex.DefaultPrecision)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
		})
	}
}
