package exec

import (
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/query"
)

func BenchmarkScanKernelFloat32(b *testing.B) {
	const n = 1 << 20
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i%1000) / 10
	}
	data := dtype.Bytes(vals)
	runs := []localRun{{Start: 0, Len: n}}
	p, _ := compile(dtype.Float32, query.Interval{Lo: 42, Hi: 43, LoIncl: false, HiIncl: false})
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	var out []uint64
	for i := 0; i < b.N; i++ {
		out = p.scan(data, runs, 0, out[:0])
	}
	_ = out
}

func BenchmarkProbeKernel(b *testing.B) {
	const n = 1 << 20
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i % 100)
	}
	data := dtype.Bytes(vals)
	base := make([]uint64, 0, n/100)
	for i := uint64(0); i < n; i += 100 {
		base = append(base, i)
	}
	p, _ := compile(dtype.Float32, query.Interval{Lo: -1, Hi: 50, LoIncl: false, HiIncl: false})
	hits := make([]uint64, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(hits, base)
		p.probe(data, 0, hits)
	}
}

// regionBench is one 64 KiB float32 region (the benchmark workloads'
// region size) behind a warm engine, and a query selecting ~1% of it.
func regionBench(b *testing.B) (*Engine, *query.Query, Assignment, []float32) {
	const n = 1 << 14
	f := buildFixture(b, []string{"Energy"}, func(_ string, i int) float32 { return float32(i%1000) / 10 }, n, n, false, false)
	e, _ := f.engine(Histogram)
	q := &query.Query{Root: query.And(query.Leaf(1, query.OpGT, 42), query.Leaf(1, query.OpLT, 43))}
	if _, err := e.Evaluate(q, f.fullAssign(), NeedCoords); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n * 4)
	b.ReportAllocs()
	b.ResetTimer()
	return e, q, f.fullAssign(), f.data[1]
}

// BenchmarkEvalRegionScan is the whole per-region cost of an ids
// statement — prune, task, scan into scratch, exact-size copy, merge —
// which BenchmarkScanKernelFloat32 (a reused out buffer) never showed.
func BenchmarkEvalRegionScan(b *testing.B) {
	e, q, assign, _ := regionBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(q, assign, NeedCoords); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalRegionCount is the same region under a count statement:
// the counting kernel, no hit list.
func BenchmarkEvalRegionCount(b *testing.B) {
	e, q, assign, _ := regionBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(q, assign, NeedCount); err != nil {
			b.Fatal(err)
		}
	}
}

var ceilingSink int

// BenchmarkScanCeiling is the machine ceiling the two above are read
// against: a plain loop over the same bytes with the same bounds.
func BenchmarkScanCeiling(b *testing.B) {
	_, _, _, vals := regionBench(b)
	lo, hi := float32(42), float32(43)
	for i := 0; i < b.N; i++ {
		hits := 0
		for _, x := range vals {
			if x > lo && x < hi {
				hits++
			}
		}
		ceilingSink = hits
	}
}
