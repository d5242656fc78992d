package exec

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/histogram"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/selection"
	"pdcquery/internal/simio"
	"pdcquery/internal/sortstore"
	"pdcquery/internal/vclock"
)

// fixture is a miniature single-node deployment: objects imported into a
// store with per-region histograms, bitmap indexes, and a sorted replica
// of the first object.
type fixture struct {
	st   *simio.Store
	objs map[object.ID]*object.Object
	reps map[object.ID]*sortstore.Replica
	data map[object.ID][]float32
	dims []uint64
	nreg int
}

func buildFixture(t testing.TB, names []string, gen func(name string, i int) float32,
	n int, regionElems uint64, withIndex, withSorted bool) *fixture {
	t.Helper()
	f := &fixture{
		st:   simio.New(simio.DefaultModel()),
		objs: map[object.ID]*object.Object{},
		reps: map[object.ID]*sortstore.Replica{},
		data: map[object.ID][]float32{},
		dims: []uint64{uint64(n)},
	}
	for oi, name := range names {
		id := object.ID(oi + 1)
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = gen(name, i)
		}
		o := &object.Object{ID: id, Name: name, Type: dtype.Float32, Dims: f.dims}
		var hists []*histogram.Histogram
		for ri, r := range region.Split1D(uint64(n), regionElems) {
			lo, hi := r.Offset[0], r.Offset[0]+r.Count[0]
			raw := dtype.Bytes(vals[lo:hi])
			key := object.ExtentKey(id, ri)
			f.st.Write(nil, key, simio.PFS, raw)
			h := histogram.BuildBytes(o.Type, raw, 64)
			mn, mx := dtype.MinMax(o.Type, raw)
			rm := object.RegionMeta{
				Index: ri, Region: r, ExtentKey: key, Tier: simio.PFS,
				Min: mn, Max: mx, Hist: h,
			}
			if withIndex {
				x := bitindex.Build(o.Type, raw, mn, mx, 2)
				xkey := object.IndexExtentKey(id, ri)
				f.st.Write(nil, xkey, simio.PFS, x.Encode())
				rm.IndexKey = xkey
				rm.IndexBins = len(x.Bins)
			}
			o.Regions = append(o.Regions, rm)
			hists = append(hists, h)
		}
		o.Global = histogram.MergeAll(hists)
		f.objs[id] = o
		f.data[id] = vals
		f.nreg = len(o.Regions)
	}
	if withSorted {
		o := f.objs[1]
		rep, err := sortstore.Build(f.st, nil, o, regionElems, simio.PFS)
		if err != nil {
			t.Fatal(err)
		}
		f.reps[1] = rep
	}
	return f
}

// shape is one of the four plan shapes a forcing produces. internal/plan
// builds the real ones but imports this package, so the tests build the
// QueryPlan literals themselves, in testPlan and nowhere else.
type shape int

const (
	shapeFull   shape = iota // PDC-F
	shapeScan                // PDC-H
	shapeBitmap              // PDC-HI
	shapeSorted              // PDC-SH
)

func (s shape) String() string {
	return [...]string{"PDC-F", "PDC-H", "PDC-HI", "PDC-SH"}[s]
}

// testPlan is the plan of q under shape s: conditions by ascending
// global-histogram selectivity upper bound, stable on object ID (object-ID
// order for the full scan); every region of a bitmap plan probes.
func testPlan(q *query.Query, objs map[object.ID]*object.Object, s shape) *QueryPlan {
	pl := &QueryPlan{Label: s.String(), Full: s == shapeFull, IndexOnly: s == shapeBitmap}
	conjuncts, _ := query.Normalize(q.Root) // the engine reports the error
	for _, c := range conjuncts {
		cp := ConjunctPlan{Order: c.ObjectsSorted(), Sorted: s == shapeSorted}
		if s != shapeFull {
			upper := func(id object.ID) float64 {
				if o := objs[id]; o != nil && o.Global != nil {
					iv := c[id]
					_, hi := o.Global.SelectivityBounds(iv.Lo, iv.Hi, iv.LoIncl, iv.HiIncl)
					return hi
				}
				return 1
			}
			slices.SortStableFunc(cp.Order, func(x, y object.ID) int { return cmp.Compare(upper(x), upper(y)) })
		}
		if first := objs[cp.Order[0]]; s == shapeBitmap && first != nil {
			cp.Regions = make(map[int]RegionChoice, len(first.Regions))
			for r := range first.Regions {
				cp.Regions[r] = ChoiceProbe
			}
		}
		pl.Conjuncts = append(pl.Conjuncts, cp)
	}
	return pl
}

// planned is an engine bound to one plan shape: Evaluate plans the query
// with testPlan and executes it.
type planned struct {
	*Engine
	s    shape
	objs map[object.ID]*object.Object
}

func (p planned) Evaluate(q *query.Query, assign Assignment, need Need) (*Result, error) {
	return p.EvaluateToken(nil, q, testPlan(q, p.objs, p.s), assign, need, nil)
}

func (f *fixture) engine(s shape) (planned, *vclock.Account) {
	a := vclock.NewAccount()
	return planned{s: s, objs: f.objs, Engine: &Engine{
		Store: f.st,
		Acct:  a,
		Lookup: func(id object.ID) (*object.Object, bool) {
			o, ok := f.objs[id]
			return o, ok
		},
		Replica: func(id object.ID) *sortstore.Replica { return f.reps[id] },
		Cache:   NewCache(1 << 30),
	}}, a
}

func (f *fixture) fullAssign() Assignment {
	a := Assignment{}
	for i := 0; i < f.nreg; i++ {
		a.Orig = append(a.Orig, i)
	}
	if rep := f.reps[1]; rep != nil {
		for i := range rep.Regions {
			a.Sorted = append(a.Sorted, i)
		}
	}
	return a
}

// truth evaluates the query tree by brute force.
func (f *fixture) truth(q *query.Query) []uint64 {
	var eval func(n *query.Node, i int) bool
	eval = func(n *query.Node, i int) bool {
		switch n.Kind {
		case query.KindLeaf:
			return query.FromLeaf(n.Op, n.Value).Contains(float64(f.data[n.Obj][i]))
		case query.KindAnd:
			return eval(n.Left, i) && eval(n.Right, i)
		case query.KindOr:
			return eval(n.Left, i) || eval(n.Right, i)
		}
		return false
	}
	var out []uint64
	for i := range f.data[1] {
		if q.Constraint != nil && !q.Constraint.ContainsCoord([]uint64{uint64(i)}) {
			continue
		}
		if eval(q.Root, i) {
			out = append(out, uint64(i))
		}
	}
	return out
}

var allShapes = []shape{shapeFull, shapeScan, shapeBitmap, shapeSorted}

// coordsOf is the one place these tests turn a result's packed selection
// back into coordinates: it must unpack cleanly into a valid selection of
// as many hits as it says.
func coordsOf(t testing.TB, res *Result) []uint64 {
	t.Helper()
	coords, err := res.Sel.Coords(nil)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if res.Sel.CountOnly {
		return nil
	}
	sel := selection.New(coords, res.Sel.Dims)
	if err := sel.Validate(); err != nil || sel.NHits != res.Sel.NHits {
		t.Fatalf("unpacked %d coordinates of %d hits: %v", len(coords), res.Sel.NHits, err)
	}
	return coords
}

func checkQuery(t *testing.T, f *fixture, q *query.Query, label string) {
	t.Helper()
	want := f.truth(q)
	for _, s := range allShapes {
		e, _ := f.engine(s)
		res, err := e.Evaluate(q, f.fullAssign(), NeedCoords)
		if err != nil {
			t.Fatalf("%s/%v: %v", label, s, err)
		}
		if int(res.Sel.NHits) != len(want) {
			t.Errorf("%s/%v: %d hits, want %d", label, s, res.Sel.NHits, len(want))
			continue
		}
		for i, c := range coordsOf(t, res) {
			if c != want[i] {
				t.Errorf("%s/%v: coord %d = %d, want %d", label, s, i, c, want[i])
				break
			}
		}
	}
}

// vpicLike generates a small multi-variable dataset with a heavy-tailed
// energy and uniform coordinates.
func vpicLike(name string, i int) float32 {
	rng := rand.New(rand.NewSource(int64(i)*7 + int64(len(name))))
	switch name {
	case "energy":
		return float32(rng.ExpFloat64() * 0.8)
	case "x":
		return float32(rng.Float64() * 330)
	case "y":
		return float32(rng.Float64()*300 - 150)
	default: // z
		return float32(rng.Float64() * 132)
	}
}

func TestSingleObjectQueriesAllStrategies(t *testing.T) {
	f := buildFixture(t, []string{"energy"}, vpicLike, 20000, 1500, true, true)
	for _, w := range []struct{ lo, hi float64 }{
		{2.1, 2.2}, {0.5, 0.6}, {3.5, 3.6}, {0, 10}, {-1, 0.001}, {9.5, 11},
	} {
		q := &query.Query{Root: query.Between(1, w.lo, w.hi, false, false)}
		checkQuery(t, f, q, fmt.Sprintf("energy(%g,%g)", w.lo, w.hi))
	}
}

func TestSingleSidedAndEqualityQueries(t *testing.T) {
	f := buildFixture(t, []string{"energy"}, vpicLike, 5000, 700, true, true)
	for _, q := range []*query.Query{
		{Root: query.Leaf(1, query.OpGT, 2.0)},
		{Root: query.Leaf(1, query.OpLE, 0.1)},
		{Root: query.Leaf(1, query.OpGE, 4.0)},
		{Root: query.Leaf(1, query.OpEQ, float64(f.data[1][42]))},
	} {
		checkQuery(t, f, q, q.Root.String())
	}
}

func TestMultiObjectQueriesAllStrategies(t *testing.T) {
	f := buildFixture(t, []string{"energy", "x", "y", "z"}, vpicLike, 12000, 1000, true, true)
	queries := []*query.Query{
		{Root: query.And(query.Leaf(1, query.OpGT, 2.0),
			query.And(query.Between(2, 100, 200, false, false),
				query.And(query.Between(3, -90, 0, false, false), query.Between(4, 0, 66, false, false))))},
		{Root: query.And(query.Leaf(1, query.OpGT, 1.3), query.Between(2, 100, 140, false, false))},
		// Most selective condition NOT on the sorted object: exercises
		// PDC-SH's fallback (the paper's Fig. 4 last-two-queries case).
		{Root: query.And(query.Leaf(1, query.OpGT, 0.1), query.Between(2, 10, 11, false, false))},
	}
	for i, q := range queries {
		checkQuery(t, f, q, fmt.Sprintf("multi%d", i))
	}
}

func TestOrQueriesAllStrategies(t *testing.T) {
	f := buildFixture(t, []string{"energy", "x"}, vpicLike, 8000, 1000, true, true)
	q := &query.Query{Root: query.Or(
		query.Leaf(1, query.OpGT, 3.0),
		query.Between(2, 5, 15, false, false))}
	checkQuery(t, f, q, "or")
	// OR with overlapping terms must dedup.
	q = &query.Query{Root: query.Or(
		query.Leaf(1, query.OpGT, 1.0),
		query.Leaf(1, query.OpGT, 2.0))}
	checkQuery(t, f, q, "or-overlap")
}

func TestRegionConstraintAllStrategies(t *testing.T) {
	f := buildFixture(t, []string{"energy", "x"}, vpicLike, 10000, 800, true, true)
	q := &query.Query{Root: query.And(query.Leaf(1, query.OpGT, 1.0), query.Between(2, 50, 250, false, false))}
	q.SetRegion(region.New([]uint64{2500}, []uint64{3000}))
	checkQuery(t, f, q, "constrained")
	// Constraint fully outside any hits.
	q2 := &query.Query{Root: query.Leaf(1, query.OpGT, 0)}
	q2.SetRegion(region.New([]uint64{0}, []uint64{1}))
	checkQuery(t, f, q2, "tiny-constraint")
}

func TestHistogramPrunesClusteredData(t *testing.T) {
	// Values increase with position, so region extrema are disjoint and a
	// narrow query must prune most regions.
	gen := func(name string, i int) float32 { return float32(i) / 100 }
	f := buildFixture(t, []string{"v"}, gen, 10000, 1000, false, false)
	q := &query.Query{Root: query.Between(1, 42.0, 43.0, false, false)}

	e, _ := f.engine(shapeScan)
	res, err := e.Evaluate(q, f.fullAssign(), NeedCoords)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RegionsPruned < 8 {
		t.Errorf("pruned %d regions, want >= 8 of 10", res.Stats.RegionsPruned)
	}
	if res.Stats.RegionsEvaluated > 2 {
		t.Errorf("evaluated %d regions, want <= 2", res.Stats.RegionsEvaluated)
	}
	if int(res.Sel.NHits) != len(f.truth(q)) {
		t.Errorf("hits wrong after pruning")
	}

	// Full scan evaluates everything.
	e2, _ := f.engine(shapeFull)
	res2, err := e2.Evaluate(q, f.fullAssign(), NeedCoords)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.RegionsPruned != 0 || res2.Stats.RegionsEvaluated != 10 {
		t.Errorf("full scan stats = %+v", res2.Stats)
	}
}

func TestFullScanReadsEverything(t *testing.T) {
	f := buildFixture(t, []string{"energy", "x"}, vpicLike, 10000, 1000, false, false)
	q := &query.Query{Root: query.And(query.Leaf(1, query.OpGT, 100), query.Leaf(2, query.OpGT, 1000))}
	e, a := f.engine(shapeFull)
	if _, err := e.Evaluate(q, f.fullAssign(), NeedCoords); err != nil {
		t.Fatal(err)
	}
	// Both objects' full data: 2 * 10000 * 4 bytes.
	if got := a.Counter("read.bytes"); got < 80000 {
		t.Errorf("full scan read %d bytes, want >= 80000", got)
	}
}

func TestIndexReadsLessThanData(t *testing.T) {
	f := buildFixture(t, []string{"energy"}, vpicLike, 50000, 5000, true, false)
	q := &query.Query{Root: query.Between(1, 4.0, 4.1, false, false)} // very selective
	e, a := f.engine(shapeBitmap)
	res, err := e.Evaluate(q, f.fullAssign(), NeedCoords)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IndexBinsRead == 0 {
		t.Error("index strategy read no bins")
	}
	dataBytes := int64(50000 * 4)
	if got := a.Counter("read.bytes"); got > dataBytes/3 {
		t.Errorf("index path read %d bytes, want << %d", got, dataBytes)
	}
	if int(res.Sel.NHits) != len(f.truth(q)) {
		t.Error("index path wrong hits")
	}
}

func TestSortedTouchesFewRegions(t *testing.T) {
	f := buildFixture(t, []string{"energy"}, vpicLike, 50000, 2500, false, true)
	q := &query.Query{Root: query.Leaf(1, query.OpGT, 5.0)} // far tail
	e, _ := f.engine(shapeSorted)
	res, err := e.Evaluate(q, f.fullAssign(), NeedCoords)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SortedRegions > 2 {
		t.Errorf("sorted path read %d sorted regions, want <= 2", res.Stats.SortedRegions)
	}
	if int(res.Sel.NHits) != len(f.truth(q)) {
		t.Error("sorted path wrong hits")
	}
}

func TestValuesCollection(t *testing.T) {
	f := buildFixture(t, []string{"energy", "x"}, vpicLike, 9000, 1000, true, true)
	q := &query.Query{Root: query.And(query.Leaf(1, query.OpGT, 1.5), query.Between(2, 0, 200, false, false))}
	for _, s := range []shape{shapeFull, shapeScan, shapeSorted} {
		e, _ := f.engine(s)
		res, err := e.Evaluate(q, f.fullAssign(), NeedValues)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Values == nil {
			t.Fatalf("%v: no values collected", s)
		}
		for _, id := range []object.ID{1, 2} {
			buf := res.Values[id]
			if len(buf) != int(res.Sel.NHits)*4 {
				t.Fatalf("%v obj%d: %d value bytes for %d hits", s, id, len(buf), res.Sel.NHits)
			}
			vals := dtype.View[float32](buf)
			for i, c := range coordsOf(t, res) {
				if vals[i] != f.data[id][c] {
					t.Fatalf("%v obj%d: value[%d] = %v, want %v", s, id, i, vals[i], f.data[id][c])
				}
			}
		}
	}
}

func TestExtractValues(t *testing.T) {
	f := buildFixture(t, []string{"energy"}, vpicLike, 5000, 600, false, false)
	e, a := f.engine(shapeScan)
	q := &query.Query{Root: query.Leaf(1, query.OpGT, 2.0)}
	res, err := e.Evaluate(q, f.fullAssign(), NeedCoords)
	if err != nil {
		t.Fatal(err)
	}
	coords := coordsOf(t, res)
	buf, err := e.ExtractValues(nil, 1, coords)
	if err != nil {
		t.Fatal(err)
	}
	vals := dtype.View[float32](buf)
	for i, c := range coords {
		if vals[i] != f.data[1][c] {
			t.Fatalf("value[%d] = %v, want %v", i, vals[i], f.data[1][c])
		}
	}
	// The evaluation warmed the cache, so extraction must hit it.
	if a.Counter("cache.hits") == 0 {
		t.Error("ExtractValues after evaluation did not hit the cache")
	}
	if _, err := e.ExtractValues(nil, 99, nil); err == nil {
		t.Error("ExtractValues of unknown object succeeded")
	}
}

// TestExtractValuesRejectsBadCoords: coordinates come from outside (a
// get-data request names them), so one past the object's end and a
// descending pair are the typed ErrCoords. The first used to spin the
// region loop forever, the second to slice out of range.
func TestExtractValuesRejectsBadCoords(t *testing.T) {
	f := buildFixture(t, []string{"energy"}, vpicLike, 1000, 100, false, false)
	e, _ := f.engine(shapeScan)
	for _, coords := range [][]uint64{{5000}, {999, 1000}, {600, 5}} {
		done := make(chan error, 1)
		go func() {
			_, err := e.ExtractValues(nil, 1, coords)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrCoords) {
				t.Errorf("coords %v: err = %v, want ErrCoords", coords, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("coords %v: ExtractValues did not return", coords)
		}
	}
	// Equal neighbours are ascending: the same element read twice.
	if buf, err := e.ExtractValues(nil, 1, []uint64{7, 7, 999}); err != nil || len(buf) != 12 {
		t.Errorf("coords {7, 7, 999}: %d bytes, %v", len(buf), err)
	}
}

func TestPartitionedAssignmentsUnionToFullResult(t *testing.T) {
	// The parallel invariant: splitting regions across N servers and
	// merging partial selections equals the single-server result.
	f := buildFixture(t, []string{"energy", "x"}, vpicLike, 16000, 1000, true, true)
	q := &query.Query{Root: query.And(query.Leaf(1, query.OpGT, 1.0), query.Between(2, 50, 300, false, false))}
	want := f.truth(q)
	for _, s := range allShapes {
		for _, nsrv := range []int{2, 3, 7} {
			var parts []*selection.Packed
			for srv := 0; srv < nsrv; srv++ {
				var assign Assignment
				for r := srv; r < f.nreg; r += nsrv {
					assign.Orig = append(assign.Orig, r)
				}
				if rep := f.reps[1]; rep != nil {
					for r := srv; r < len(rep.Regions); r += nsrv {
						assign.Sorted = append(assign.Sorted, r)
					}
				}
				e, _ := f.engine(s)
				res, err := e.Evaluate(q, assign, NeedCoords)
				if err != nil {
					t.Fatalf("%v srv%d: %v", s, srv, err)
				}
				parts = append(parts, res.Sel)
			}
			// Region-sliced parts interleave without overlapping; the
			// sorted path's value-sliced parts overlap and are merged.
			merged, err := selection.MergePacked(parts)
			if err != nil {
				t.Fatalf("%v nsrv=%d: %v", s, nsrv, err)
			}
			if int(merged.NHits) != len(want) {
				t.Errorf("%v nsrv=%d: merged %d hits, want %d", s, nsrv, merged.NHits, len(want))
				continue
			}
			for i, c := range merged.Coords {
				if c != want[i] {
					t.Errorf("%v nsrv=%d: coord mismatch at %d", s, nsrv, i)
					break
				}
			}
		}
	}
}

func TestAndShortCircuit(t *testing.T) {
	f := buildFixture(t, []string{"energy", "x"}, vpicLike, 8000, 1000, false, false)
	// First condition (after ordering) can never match: x > 1e6.
	q := &query.Query{Root: query.And(query.Leaf(2, query.OpGT, 1e6), query.Leaf(1, query.OpGT, 0))}
	e, _ := f.engine(shapeScan)
	res, err := e.Evaluate(q, f.fullAssign(), NeedCoords)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel.NHits != 0 {
		t.Errorf("impossible query returned %d hits", res.Sel.NHits)
	}
	// All regions pruned by x's extrema: nothing scanned, nothing probed.
	if res.Stats.ElementsScanned != 0 || res.Stats.Probes != 0 {
		t.Errorf("short circuit stats = %+v", res.Stats)
	}
}

func TestContradictoryQueryIsFree(t *testing.T) {
	f := buildFixture(t, []string{"energy"}, vpicLike, 4000, 1000, false, false)
	q := &query.Query{Root: query.And(query.Leaf(1, query.OpGT, 5), query.Leaf(1, query.OpLT, 2))}
	e, a := f.engine(shapeScan)
	res, err := e.Evaluate(q, f.fullAssign(), NeedCoords)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel.NHits != 0 {
		t.Errorf("contradiction returned %d hits", res.Sel.NHits)
	}
	if a.Counter("read.bytes") != 0 {
		t.Errorf("contradiction read %d bytes", a.Counter("read.bytes"))
	}
}

func TestEvaluateErrors(t *testing.T) {
	f := buildFixture(t, []string{"energy"}, vpicLike, 1000, 500, false, false)
	e, _ := f.engine(shapeScan)
	// Unknown object.
	q := &query.Query{Root: query.Leaf(99, query.OpGT, 0)}
	if _, err := e.Evaluate(q, f.fullAssign(), NeedCoords); err == nil {
		t.Error("unknown object accepted")
	}
	// Missing extent surfaces as an error.
	f.st.Delete(object.ExtentKey(1, 0))
	q = &query.Query{Root: query.Leaf(1, query.OpGT, -100)}
	if _, err := e.Evaluate(q, f.fullAssign(), NeedCoords); err == nil {
		t.Error("missing extent not reported")
	}
}

func TestHistogramCostBelowFullScan(t *testing.T) {
	// The headline claim: PDC-H evaluates a selective query cheaper than
	// PDC-F in modeled time.
	gen := func(name string, i int) float32 { return float32(i) / 100 }
	f := buildFixture(t, []string{"v"}, gen, 100000, 5000, false, false)
	q := &query.Query{Root: query.Between(1, 10, 11, false, false)}

	eh, ah := f.engine(shapeScan)
	if _, err := eh.Evaluate(q, f.fullAssign(), NeedCoords); err != nil {
		t.Fatal(err)
	}
	ef, af := f.engine(shapeFull)
	if _, err := ef.Evaluate(q, f.fullAssign(), NeedCoords); err != nil {
		t.Fatal(err)
	}
	// The histogram strategy must touch a small fraction of the bytes the
	// full scan reads (elapsed ratios depend on the latency/bandwidth
	// regime, which the bench harness calibrates; here we assert the
	// underlying driver).
	hBytes, fBytes := ah.Counter("read.bytes"), af.Counter("read.bytes")
	if hBytes*5 > fBytes {
		t.Errorf("PDC-H read %d bytes, PDC-F %d; want at least 5x reduction", hBytes, fBytes)
	}
	if ah.Cost().Total() > af.Cost().Total() {
		t.Errorf("PDC-H cost %v above PDC-F %v", ah.Cost().Total(), af.Cost().Total())
	}
}

func TestIndexStrategyWithoutIndexesFallsBack(t *testing.T) {
	// PDC-HI on a deployment with no indexes must degrade to scans and
	// stay correct.
	f := buildFixture(t, []string{"energy", "x"}, vpicLike, 8000, 1000, false, false)
	q := &query.Query{Root: query.And(
		query.Between(1, 1.0, 2.0, false, false),
		query.Between(2, 50, 250, false, false))}
	want := f.truth(q)
	e, _ := f.engine(shapeBitmap)
	res, err := e.Evaluate(q, f.fullAssign(), NeedCoords)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Sel.NHits) != len(want) {
		t.Errorf("fallback hits = %d, want %d", res.Sel.NHits, len(want))
	}
	if res.Stats.IndexBinsRead != 0 {
		t.Errorf("read %d index bins without any index", res.Stats.IndexBinsRead)
	}
	if res.Stats.ElementsScanned == 0 {
		t.Error("fallback did not scan")
	}
}

func TestIndexStrategyWithPartialIndexes(t *testing.T) {
	// Some regions indexed, some not (e.g. freshly written data whose
	// index build lags): PDC-HI mixes index lookups and scans per region.
	f := buildFixture(t, []string{"energy"}, vpicLike, 12000, 1000, true, false)
	o := f.objs[1]
	for i := 0; i < len(o.Regions); i += 2 {
		o.Regions[i].IndexKey = ""
		o.Regions[i].IndexBins = 0
		o.Regions[i].IndexDir = nil
	}
	q := &query.Query{Root: query.Between(1, 0.5, 1.5, false, false)}
	want := f.truth(q)
	e, _ := f.engine(shapeBitmap)
	res, err := e.Evaluate(q, f.fullAssign(), NeedCoords)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Sel.NHits) != len(want) {
		t.Errorf("partial-index hits = %d, want %d", res.Sel.NHits, len(want))
	}
	if res.Stats.IndexBinsRead == 0 || res.Stats.ElementsScanned == 0 {
		t.Errorf("expected mixed evaluation, stats = %+v", res.Stats)
	}
}
