package exec

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/query"
	"pdcquery/internal/wah"
	"pdcquery/internal/workload"
)

func BenchmarkScanKernelFloat32(b *testing.B) {
	const n = 1 << 20
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i%1000) / 10
	}
	data := dtype.Bytes(vals)
	p, _ := compile(dtype.Float32, query.Interval{Lo: 42, Hi: 43, LoIncl: false, HiIncl: false})
	set := make([]uint64, wah.DenseWords(n))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		markSink = p.mark(data, n, set)
	}
}

var markSink int64

// BenchmarkMarkWordBuild is the first-condition mark of one 64 KiB
// float32 region held in cache, through each word build of
// span[uint32]: "portable" is the Go carry chain, "mark" what mark runs
// on this CPU (the AVX2 routine where CPUID reports AVX2, else the
// same loop).
func BenchmarkMarkWordBuild(b *testing.B) {
	const n = 1 << 14
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i%1000) / 10
	}
	data := dtype.Bytes(vals)
	p, _ := compile(dtype.Float32, query.Interval{Lo: 20, Hi: 60})
	s, ok := p.(span[uint32])
	if !ok {
		b.Fatalf("compiled %T, want span[uint32]", p)
	}
	set := make([]uint64, wah.DenseWords(n))
	for _, k := range []struct {
		name string
		mark func([]byte, uint64, []uint64) int64
	}{{"portable", s.markPortable}, {"mark", s.mark}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				markSink = k.mark(data, n, set)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
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

// regionWindow selects 16 % of the benchmark region and touches ten sure
// bins and two candidate bins of the region's bitmap index (9.4 KB of
// index against the 64 KiB of data).
var regionWindow = query.And(query.Leaf(1, query.OpGT, 0.35), query.Leaf(1, query.OpLT, 1.45))

// bulkDensities are the shares of 2 M coordinates the bulk-ids
// thresholds select (Energy > 1.0, 0.3, 0.1).
var bulkDensities = []float64{0.04, 0.20, 0.57}

// regionElems is the benchmark workloads' region size in float32
// elements (64 KiB).
const regionElems = 1 << 14

func regionEnergy() []float32 { return workload.GenerateVPIC(regionElems, 1).Vars["Energy"] }

// bulkCondition selects the top share d of the benchmark region.
func bulkCondition(d float64) *query.Node {
	sorted := regionEnergy()
	slices.Sort(sorted)
	return query.Leaf(1, query.OpGT, float64(sorted[int(float64(len(sorted))*(1-d))]))
}

// regionBench is one 64 KiB region of VPIC Energy (the benchmark
// workloads' column and region size) behind a warm engine of the given
// strategy, and the statement root evaluated over it.
func regionBench(b *testing.B, s shape, root *query.Node) (planned, *query.Query, Assignment, []float32) {
	e, q, assign, vals := regionFixture(b, s, root)
	b.SetBytes(int64(4 * len(vals)))
	b.ReportAllocs()
	b.ResetTimer()
	return e, q, assign, vals
}

func regionFixture(b testing.TB, s shape, root *query.Node) (planned, *query.Query, Assignment, []float32) {
	energy := regionEnergy()
	f := buildFixture(b, []string{"Energy"}, func(_ string, i int) float32 { return energy[i] }, regionElems, regionElems, true, false)
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
	q := &query.Query{Root: root}
	res, err := e.Evaluate(q, f.fullAssign(), NeedCoords)
	if err != nil {
		b.Fatal(err)
	}
	if want := len(f.truth(q)); int(res.Sel.NHits) != want || want == 0 {
		b.Fatalf("%v: %d hits, want %d", s, res.Sel.NHits, want)
	}
	if s == shapeBitmap && root == regionWindow && (res.Stats.IndexBinsRead != 12 || res.Stats.CandChecks == 0) {
		b.Fatalf("window touches %d bins with %d candidate checks, want 12 bins and some checks", res.Stats.IndexBinsRead, res.Stats.CandChecks)
	}
	return e, q, f.fullAssign(), f.data[1]
}

func benchEvaluate(b *testing.B, s shape, root *query.Node, need Need) {
	e, q, assign, vals := regionBench(b, s, root)
	for i := 0; i < b.N; i++ {
		res, err := e.Evaluate(q, assign, need)
		if err != nil {
			b.Fatal(err)
		}
		res.Release() // as the server does once a text statement's reply is encoded
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/elem")
}

// benchBulkIDs runs an ids statement at each of the bulk densities.
func benchBulkIDs(b *testing.B, s shape) {
	for _, d := range bulkDensities {
		b.Run(fmt.Sprintf("%.0f%%", 100*d), func(b *testing.B) { benchEvaluate(b, s, bulkCondition(d), NeedCoords) })
	}
}

// BenchmarkEvalRegionScan is the whole per-region cost of an ids
// statement at the bulk densities — prune, task, mark the region bitset,
// pack the chunk from it, merge — which BenchmarkScanKernelFloat32 (the
// mark alone) never showed.
func BenchmarkEvalRegionScan(b *testing.B) { benchBulkIDs(b, shapeScan) }

// BenchmarkEvalRegionCount is a count statement over the 16 % window: a
// mark and its popcount for the first condition, the probe of the
// second.
func BenchmarkEvalRegionCount(b *testing.B) { benchEvaluate(b, shapeScan, regionWindow, NeedCount) }

// BenchmarkEvalRegionIndexIDs is BenchmarkEvalRegionScan's statements
// resolved from the region's bitmap index: the touched bins ORed into
// the dense bitset, the boundary bins checked against the data, then the
// bitset packed as the region's chunk. BenchmarkEvalRegionIndexCount is
// the 16 % window's count: twelve bins, two of them candidates, and a
// popcount.
func BenchmarkEvalRegionIndexIDs(b *testing.B) { benchBulkIDs(b, shapeBitmap) }

func BenchmarkEvalRegionIndexCount(b *testing.B) {
	benchEvaluate(b, shapeBitmap, regionWindow, NeedCount)
}

var ceilingSink int

// BenchmarkScanCeiling is a plain branchy loop over the same bytes with
// the same bounds, the reference the four above are read against. It is
// no ceiling: the mark's word build beats it (4-byte spans build eight
// lanes per instruction on AVX2), and on uniformly random values the
// branch predictor slows it several times over.
func BenchmarkScanCeiling(b *testing.B) {
	_, _, _, vals := regionBench(b, shapeScan, regionWindow)
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
		e, q, assign, _ := regionFixture(t, s, regionWindow)
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
