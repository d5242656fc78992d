package exec

import (
	"testing"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/query"
	"pdcquery/internal/workload"
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

// regionBench is one 64 KiB region of VPIC Energy (the benchmark
// workloads' column and region size) behind a warm engine of the given
// strategy, and a window selecting 16 % of it that touches ten sure bins
// and two candidate bins of the region's bitmap index (9.4 KB of index
// against the 64 KiB of data).
func regionBench(b *testing.B, s shape) (planned, *query.Query, Assignment, []float32) {
	const n = 1 << 14
	energy := workload.GenerateVPIC(n, 1).Vars["Energy"]
	f := buildFixture(b, []string{"Energy"}, func(_ string, i int) float32 { return energy[i] }, n, n, true, false)
	// Import keeps the index directory in the region metadata.
	rm := &f.objs[1].Regions[0]
	raw, err := f.st.ReadAll(nil, rm.IndexKey)
	if err != nil {
		b.Fatal(err)
	}
	if rm.IndexDir, err = bitindex.DecodeDirectory(raw); err != nil {
		b.Fatal(err)
	}
	e, _ := f.engine(s)
	q := &query.Query{Root: query.And(query.Leaf(1, query.OpGT, 0.35), query.Leaf(1, query.OpLT, 1.45))}
	res, err := e.Evaluate(q, f.fullAssign(), NeedCoords)
	if err != nil {
		b.Fatal(err)
	}
	if want := len(f.truth(q)); int(res.Sel.NHits) != want || want == 0 {
		b.Fatalf("%v: %d hits, want %d", s, res.Sel.NHits, want)
	}
	if s == shapeBitmap && (res.Stats.IndexBinsRead != 12 || res.Stats.CandChecks == 0) {
		b.Fatalf("window touches %d bins with %d candidate checks, want 12 bins and some checks", res.Stats.IndexBinsRead, res.Stats.CandChecks)
	}
	b.SetBytes(n * 4)
	b.ReportAllocs()
	b.ResetTimer()
	return e, q, f.fullAssign(), f.data[1]
}

func benchEvaluate(b *testing.B, s shape, need Need) {
	e, q, assign, _ := regionBench(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(q, assign, need); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalRegionScan is the whole per-region cost of an ids
// statement — prune, task, scan into scratch, exact-size copy, merge —
// which BenchmarkScanKernelFloat32 (a reused out buffer) never showed.
func BenchmarkEvalRegionScan(b *testing.B) { benchEvaluate(b, shapeScan, NeedCoords) }

// BenchmarkEvalRegionCount is the same region under a count statement:
// the counting kernel, no hit list.
func BenchmarkEvalRegionCount(b *testing.B) { benchEvaluate(b, shapeScan, NeedCount) }

// BenchmarkEvalRegionIndexIDs and BenchmarkEvalRegionIndexCount are the
// same statements resolved from the region's bitmap index: twelve bins
// ORed into the dense bitset, the two boundary bins checked against the
// data, then the coordinates emitted — or, for the count, a popcount.
func BenchmarkEvalRegionIndexIDs(b *testing.B) { benchEvaluate(b, shapeBitmap, NeedCoords) }

func BenchmarkEvalRegionIndexCount(b *testing.B) { benchEvaluate(b, shapeBitmap, NeedCount) }

var ceilingSink int

// BenchmarkScanCeiling is the machine ceiling the four above are read
// against: a plain loop over the same bytes with the same bounds.
func BenchmarkScanCeiling(b *testing.B) {
	_, _, _, vals := regionBench(b, shapeScan)
	lo, hi := float32(0.35), float32(1.45)
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
