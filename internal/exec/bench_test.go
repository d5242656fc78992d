package exec

import (
	"runtime"
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
	e, q, assign, vals := regionFixture(b, s)
	b.SetBytes(int64(4 * len(vals)))
	b.ReportAllocs()
	b.ResetTimer()
	return e, q, assign, vals
}

func regionFixture(b testing.TB, s shape) (planned, *query.Query, Assignment, []float32) {
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
	return e, q, f.fullAssign(), f.data[1]
}

func benchEvaluate(b *testing.B, s shape, need Need) {
	e, q, assign, _ := regionBench(b, s)
	for i := 0; i < b.N; i++ {
		res, err := e.Evaluate(q, assign, need)
		if err != nil {
			b.Fatal(err)
		}
		res.Release() // as the server does once a text statement's reply is encoded
	}
}

// BenchmarkEvalRegionScan is the whole per-region cost of an ids
// statement — prune, task, scan into scratch, pack the chunk, merge —
// which BenchmarkScanKernelFloat32 (a reused out buffer) never showed.
func BenchmarkEvalRegionScan(b *testing.B) { benchEvaluate(b, shapeScan, NeedCoords) }

// BenchmarkEvalRegionCount is the same region under a count statement:
// the counting kernel, no hit list.
func BenchmarkEvalRegionCount(b *testing.B) { benchEvaluate(b, shapeScan, NeedCount) }

// BenchmarkEvalRegionIndexIDs and BenchmarkEvalRegionIndexCount are the
// same statements resolved from the region's bitmap index: twelve bins
// ORed into the dense bitset, the two boundary bins checked against the
// data, then the bitset packed as the region's chunk — or, for the
// count, a popcount.
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

// TestIDsStatementAllocatesNoCoordinateList: on either access path a
// single-conjunct ids statement allocates what the count statement does
// plus its packed chunk — under one byte per hit, where a coordinate
// list costs eight (the parent allocated two: 40 KB on this region).
func TestIDsStatementAllocatesNoCoordinateList(t *testing.T) {
	for _, s := range []shape{shapeBitmap, shapeScan} {
		e, q, assign, _ := regionFixture(t, s)
		var hits uint64
		// The least any evaluation allocates: one that finds its pooled
		// buffers warm (the race detector makes sync.Pool drop some).
		bytesPerOp := func(need Need) uint64 {
			least := ^uint64(0)
			var before, after runtime.MemStats
			for i := 0; i < 50; i++ {
				runtime.ReadMemStats(&before)
				res, err := e.Evaluate(q, assign, need)
				if err != nil {
					t.Fatal(err)
				}
				hits = res.Sel.NHits
				res.Release()
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			return least
		}
		count, ids := bytesPerOp(NeedCount), bytesPerOp(NeedCoords)
		t.Logf("%v: %d hits; count %d B/op, ids %d B/op", s, hits, count, ids)
		if ids > count+hits || ids > 6<<10 {
			t.Errorf("%v: an ids statement of %d hits allocates %d B/op, the count %d: want under a byte per hit more, and 6 KB in all", s, hits, ids, count)
		}
	}
}
