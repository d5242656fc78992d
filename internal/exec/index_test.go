package exec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/histogram"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/sched"
	"pdcquery/internal/simio"
	"pdcquery/internal/vclock"
	"pdcquery/internal/wah"
)

// typedFixture is buildFixture for objects of any element type: one 1-D
// object per type over the same n elements, each region indexed except
// those in noIndex. dirInMeta keeps the index directory in the region
// metadata (what import does); otherwise the engine reads it from the
// index extent.
type typedFixture struct {
	st   *simio.Store
	objs map[object.ID]*object.Object
	vals map[object.ID][]float64 // what the oracle sees: float64(v)
	n    int
}

func buildTypedFixture(rng *rand.Rand, types []dtype.Type, n int, regionElems uint64, noIndex map[int]bool, dirInMeta bool) *typedFixture {
	f := &typedFixture{
		st: simio.New(simio.DefaultModel()), n: n,
		objs: map[object.ID]*object.Object{}, vals: map[object.ID][]float64{},
	}
	for oi, typ := range types {
		id := object.ID(oi + 1)
		raw := make([]byte, n*typ.Size())
		// A few hundred distinct values, so query bounds drawn from the
		// data land on elements (candidate bins) and bins hold runs.
		scale := 50 + rng.Float64()*500
		for i := 0; i < n; i++ {
			v := math.Round(rng.NormFloat64()*scale) / 4
			if typ.IsFloat() && rng.Intn(400) == 0 {
				v = math.NaN()
			}
			dtype.Put(typ, raw, i, v)
			f.vals[id] = append(f.vals[id], dtype.At(typ, raw, i))
		}
		o := &object.Object{ID: id, Name: typ.String(), Type: typ, Dims: []uint64{uint64(n)}}
		for ri, r := range region.Split1D(uint64(n), regionElems) {
			part := raw[int(r.Offset[0])*typ.Size() : int(r.Offset[0]+r.Count[0])*typ.Size()]
			key := object.ExtentKey(id, ri)
			f.st.Write(nil, key, simio.PFS, part)
			mn, mx := dtype.MinMax(typ, part)
			rm := object.RegionMeta{
				Index: ri, Region: r, ExtentKey: key, Tier: simio.PFS,
				Min: mn, Max: mx, Hist: histogram.BuildBytes(typ, part, 32),
			}
			if !noIndex[ri] {
				x := bitindex.Build(typ, part, mn, mx, 2)
				rm.IndexKey = object.IndexExtentKey(id, ri)
				rm.IndexBins = len(x.Bins)
				f.st.Write(nil, rm.IndexKey, simio.PFS, x.Encode())
				if dirInMeta {
					rm.IndexDir = x.Directory()
				}
			}
			o.Regions = append(o.Regions, rm)
		}
		f.objs[id] = o
	}
	return f
}

func (f *typedFixture) engine(s shape, workers int) (planned, *vclock.Account) {
	a := vclock.NewAccount()
	e := &Engine{
		Store: f.st, Acct: a, Cache: NewCache(1 << 30),
		Lookup: func(id object.ID) (*object.Object, bool) { o, ok := f.objs[id]; return o, ok },
	}
	if workers > 0 {
		e.Pool = sched.NewPool(workers)
	}
	return planned{Engine: e, s: s, objs: f.objs}, a
}

func (f *typedFixture) assign() Assignment {
	var a Assignment
	for i := range f.objs[1].Regions {
		a.Orig = append(a.Orig, i)
	}
	return a
}

// randInterval draws bounds from the object's own values (so they hit
// boundary bins), with open, closed and missing ends: between two random
// values, wide (both ends in the outer tenths of the values, so most of
// each region's bins are sure and the index path reads the rest), or
// narrow (one value, or two close ones).
func (f *typedFixture) randInterval(rng *rand.Rand, id object.ID) query.Interval {
	nudge := func(v float64) float64 { return v + float64(rng.Intn(3)-1)*0.125*float64(rng.Intn(2)) }
	pick := func() float64 {
		for {
			if v := f.vals[id][rng.Intn(f.n)]; !math.IsNaN(v) {
				return nudge(v)
			}
		}
	}
	lo, hi := pick(), pick()
	switch rng.Intn(4) {
	case 0:
		sorted := slices.DeleteFunc(slices.Clone(f.vals[id]), math.IsNaN)
		slices.Sort(sorted)
		tenth := len(sorted) / 10
		lo, hi = nudge(sorted[rng.Intn(tenth)]), nudge(sorted[len(sorted)-1-rng.Intn(tenth)])
	case 1:
		hi = lo + float64(rng.Intn(2))*0.25
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	iv := query.Interval{Lo: lo, Hi: hi, LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0}
	switch rng.Intn(6) {
	case 0:
		iv.Lo, iv.LoIncl = math.Inf(-1), false
	case 1:
		iv.Hi, iv.HiIncl = math.Inf(1), false
	}
	return iv
}

// sides counts the index conditions a conjunct over elements [lo, hi)
// resolves on each side of its regions' indexes — the sure bins, or the
// rest inverted — as bitindex.Directory.Select decides for the directory
// the engine reads, over the indexed regions the window overlaps and the
// condition does not prune. It fails t if a region holding a NaN would
// be inverted: a NaN is in no bin, so the complement would claim it.
func (f *typedFixture) sides(t *testing.T, conds map[object.ID]query.Interval, lo, hi int) (direct, inverted int) {
	t.Helper()
	for id, iv := range conds {
		for _, rm := range f.objs[id].Regions {
			start := int(rm.Region.Offset[0])
			end := start + int(rm.Region.NumElems())
			if rm.IndexKey == "" || end <= lo || start >= hi || Prunable(&rm, iv) {
				continue
			}
			dir := rm.IndexDir
			if dir == nil {
				raw, err := f.st.ReadAll(nil, rm.IndexKey)
				if err != nil {
					t.Fatal(err)
				}
				if dir, err = bitindex.DecodeDirectory(raw); err != nil {
					t.Fatal(err)
				}
			}
			_, _, invert := dir.Select(nil, nil, iv.Lo, iv.Hi, iv.LoIncl, iv.HiIncl)
			if !invert {
				direct++
				continue
			}
			inverted++
			if slices.ContainsFunc(f.vals[id][start:end], math.IsNaN) {
				t.Fatalf("object %d region %d holds a NaN and inverted %v", id, rm.Index, iv)
			}
		}
	}
	return direct, inverted
}

func between(id object.ID, iv query.Interval) *query.Node {
	return query.Between(id, iv.Lo, iv.Hi, iv.LoIncl, iv.HiIncl)
}

// TestIndexPathDifferential holds the index path to the scan path and to
// a plain Interval.Contains loop: count and ids, over float32, float64
// and int32 regions whose lengths are multiples of neither 31 nor 64,
// with open and closed ends, with and without a spatial constraint, one
// region without an index, the directory in metadata and in storage,
// and conjuncts of one to three conditions (some of which short-circuit),
// over wide, narrow and open-ended intervals: the random cases must
// resolve region-conditions on both sides of the index (the sure bins,
// and the rest inverted), and never invert a region holding a NaN.
// Fixed cases then take the bulk statements' densities (4, 20 and 57 %
// of the first condition's object), alone and as the first of three
// conditions, under spatial constraints whose runs start and end
// mid-word. Every conjunct runs twice on one index-path engine, as ids
// and as a count, at 0, 1, 4 and 16 workers: the first pass decodes the
// bins past binCacheMinWords into the region cache, the second ORs them
// from it, and the last four trials' regions (2000 to 3500 elements)
// are large enough to hold such bins, so the test fails unless some
// second pass found its bins cached.
func TestIndexPathDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	types := []dtype.Type{dtype.Float32, dtype.Float64, dtype.Int32}
	var direct, inverted int
	var warmHits int64
	for trial := 0; trial < 16; trial++ {
		n := 2500 + rng.Intn(1500)
		regionElems := uint64(600 + rng.Intn(300))
		if trial >= 12 {
			regionElems = uint64(2000 + rng.Intn(1500))
		}
		f := buildTypedFixture(rng, types, n, regionElems, map[int]bool{2: true}, trial%2 == 0)
		for k := 0; k < 25; k++ {
			ids := []object.ID{1, 2, 3}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			ids = ids[:1+rng.Intn(3)]
			conds := map[object.ID]query.Interval{}
			for ci, id := range ids {
				iv := f.randInterval(rng, id)
				if ci > 0 && rng.Intn(5) == 0 {
					iv = query.Interval{Lo: 1e9, Hi: 2e9} // no hit: short-circuits
				}
				conds[id] = iv
			}
			lo, hi := 0, n
			if rng.Intn(2) == 0 {
				lo = rng.Intn(n)
				hi = lo + 1 + rng.Intn(n-lo)
			}
			warmHits += checkPathsAgree(t, f, ids, conds, lo, hi, fmt.Sprintf("trial %d query %d", trial, k))
			d, i := f.sides(t, conds, lo, hi)
			direct, inverted = direct+d, inverted+i
		}
	}
	if direct == 0 || inverted == 0 {
		t.Fatalf("region-conditions read %d times from the sure bins and %d times from the rest: want both sides", direct, inverted)
	}
	t.Logf("region-conditions: %d direct, %d inverted", direct, inverted)

	// Regions of 1000 elements: 15 words and 40 bits, the last region's
	// index missing. Both constraints start and end inside a word, one
	// within a region and one across two.
	f := buildTypedFixture(rng, types, 4000, 1000, map[int]bool{2: true}, true)
	above := func(id object.ID, share float64) query.Interval {
		vals := slices.DeleteFunc(slices.Clone(f.vals[id]), math.IsNaN)
		slices.Sort(vals)
		return query.Interval{Lo: vals[int(float64(len(vals))*(1-share))], Hi: math.Inf(1)}
	}
	for _, share := range []float64{0.04, 0.20, 0.57} {
		for _, ids := range [][]object.ID{{1}, {1, 2, 3}} {
			conds := map[object.ID]query.Interval{1: above(1, share), 2: above(2, 0.8), 3: above(3, 0.9)}
			for id := range conds {
				if !slices.Contains(ids, id) {
					delete(conds, id)
				}
			}
			for _, w := range [][2]int{{0, 4000}, {130, 900}, {1037, 2979}} {
				label := fmt.Sprintf("%.0f %% of object 1, %d conditions, [%d,%d)", 100*share, len(ids), w[0], w[1])
				warmHits += checkPathsAgree(t, f, ids, conds, w[0], w[1], label)
			}
		}
	}
	if warmHits == 0 {
		t.Fatal("no second pass found a decoded bin in the cache")
	}
	t.Logf("second passes ORed %d decoded bins from the cache", warmHits)
}

// checkPathsAgree runs the conjunct of conds over elements [lo, hi) of
// f on the index, scan and full-scan paths, as ids and as a count on
// one engine: every answer is the plain Contains loop's, and the packed
// chunk streams are the same bytes. The index path runs at 0, 1, 4 and
// 16 workers, the ids first at two of them and the count first at the
// others; it returns how many decoded bins the second passes found in
// the cache.
func checkPathsAgree(t *testing.T, f *typedFixture, ids []object.ID, conds map[object.ID]query.Interval, lo, hi int, label string) (warmHits int64) {
	t.Helper()
	var root *query.Node
	for _, id := range ids {
		if root == nil {
			root = between(id, conds[id])
		} else {
			root = query.And(root, between(id, conds[id]))
		}
	}
	q := &query.Query{Root: root}
	if lo != 0 || hi != f.n {
		q.SetRegion(region.New([]uint64{uint64(lo)}, []uint64{uint64(hi - lo)}))
	}
	var want []uint64
	for i := lo; i < hi; i++ {
		ok := true
		for id, iv := range conds {
			ok = ok && iv.Contains(f.vals[id][i])
		}
		if ok {
			want = append(want, uint64(i))
		}
	}
	label = fmt.Sprintf("%s (%v in [%d,%d))", label, q.Root, lo, hi)
	var packed []byte
	havePacked := false
	check := func(e planned, s shape, workers int, need Need) {
		res, err := e.Evaluate(q, f.assign(), need)
		if need == NeedCount {
			if err != nil {
				t.Fatalf("%s %v, %d workers, count: %v", label, s, workers, err)
			}
			if res.Sel.NHits != uint64(len(want)) {
				t.Fatalf("%s %v, %d workers: count %d, want %d", label, s, workers, res.Sel.NHits, len(want))
			}
			if !res.Sel.CountOnly || len(res.Sel.Chunks) != 0 {
				t.Fatalf("%s %v: select count packed %d chunk bytes", label, s, len(res.Sel.Chunks))
			}
			return
		}
		if err != nil {
			t.Fatalf("%s %v, %d workers, ids: %v", label, s, workers, err)
		}
		if got := coordsOf(t, res); !slices.Equal(got, want) {
			t.Fatalf("%s %v, %d workers: %d ids, want %d", label, s, workers, len(got), len(want))
		}
		// Every path packs from its region bitset: the same set gives the
		// same bytes.
		if !havePacked {
			packed, havePacked = res.Sel.Chunks, true
		} else if !bytes.Equal(res.Sel.Chunks, packed) {
			t.Fatalf("%s: %v at %d workers packed %d bytes, the index path %d, not the same", label, s, workers, len(res.Sel.Chunks), len(packed))
		}
	}
	for _, s := range []shape{shapeBitmap, shapeScan, shapeFull} {
		workers := []int{0}
		if s == shapeBitmap {
			workers = []int{0, 1, 4, 16}
		}
		for wi, w := range workers {
			e, _ := f.engine(s, w)
			needs := [2]Need{NeedCoords, NeedCount}
			if wi%2 == 1 {
				needs = [2]Need{NeedCount, NeedCoords}
			}
			check(e, s, w, needs[0])
			before := e.Cache.Stats().BinHits
			check(e, s, w, needs[1])
			warmHits += e.Cache.Stats().BinHits - before
			if e.Pool != nil {
				e.Pool.Close()
			}
		}
	}
	return warmHits
}

// TestCorruptIndexExtentIsTypedError damages one bin of one region's
// index extent in storage: the query fails with wah.ErrCorrupt, serially
// and under a worker pool, and never panics or answers.
func TestCorruptIndexExtentIsTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	f := buildTypedFixture(rng, []dtype.Type{dtype.Float32}, 4000, 1000, nil, true)
	rm := &f.objs[1].Regions[1]
	q := &query.Query{Root: query.Leaf(1, query.OpGT, -1e12)} // touches every bin
	damage := map[string]func(blob []byte){
		"truncated word count": func(blob []byte) { blob[8]-- },
		"lying bit count":      func(blob []byte) { blob[0]++ },
		"overrunning fill":     func(blob []byte) { copy(blob[12:], []byte{0xff, 0xff, 0x00, 0x80}) },
	}
	for name, corrupt := range damage {
		raw, err := f.st.ReadAll(nil, rm.IndexKey)
		if err != nil {
			t.Fatal(err)
		}
		orig, enc := raw.Clone(), raw.Clone()
		bin := rm.IndexDir.Bins[len(rm.IndexDir.Bins)/2]
		corrupt(enc[bin.BlobOff : bin.BlobOff+bin.BlobLen])
		f.st.Write(nil, rm.IndexKey, simio.PFS, enc)
		for _, workers := range []int{1, 4} {
			e, _ := f.engine(shapeBitmap, workers)
			for _, need := range []Need{NeedCount, NeedCoords} {
				if _, err := e.Evaluate(q, f.assign(), need); !errors.Is(err, wah.ErrCorrupt) {
					t.Errorf("%s, %d workers: err = %v, want wah.ErrCorrupt", name, workers, err)
				}
			}
		}
		f.st.Write(nil, rm.IndexKey, simio.PFS, orig)
	}
	e, _ := f.engine(shapeBitmap, 4)
	if res, err := e.Evaluate(q, f.assign(), NeedCount); err != nil || res.Sel.NHits == 0 {
		t.Fatalf("restored index: %v", err)
	}
}

// TestCandidateChecksChargedPerCondition: each index condition pays
// candNsPerElem for its own boundary candidates only, so a conjunct's
// Compute charge is the sum of its conditions evaluated alone.
func TestCandidateChecksChargedPerCondition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := buildTypedFixture(rng, []dtype.Type{dtype.Float32, dtype.Float32}, 2000, 2000, nil, true)
	compute := func(root *query.Node) (vclockNs int64, checks int64) {
		e, a := f.engine(shapeBitmap, 0)
		res, err := e.Evaluate(&query.Query{Root: root}, f.assign(), NeedCoords)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sel.NHits == 0 {
			t.Fatalf("%v: no hit, the conjunct would short-circuit", root)
		}
		return a.Cost().Part(vclock.Compute).Nanoseconds(), res.Stats.CandChecks
	}
	// Bounds strictly inside the data's range fall inside a bin's
	// observed extrema, so both ends are candidate bins.
	c1 := query.Between(1, -40.1, 60.1, true, true)
	c2 := query.Between(2, -70.1, 30.1, true, true)
	ns1, checks1 := compute(c1)
	ns2, checks2 := compute(c2)
	if checks1 < 2 || checks2 < 2 {
		t.Fatalf("fixture has no candidates to charge: %d and %d checks", checks1, checks2)
	}
	ns, checks := compute(query.And(c1, c2))
	if checks != checks1+checks2 {
		t.Fatalf("conjunct made %d candidate checks, want %d+%d", checks, checks1, checks2)
	}
	if ns != ns1+ns2 {
		t.Errorf("conjunct Compute charge = %d ns, want %d + %d = %d", ns, ns1, ns2, ns1+ns2)
	}
}

// TestPlanMustCoverQuery: the engine executes the order it is handed or
// refuses the plan with ErrPlan — a missing plan, a missing or extra
// conjunct, and an order that omits, repeats or invents a condition are
// never papered over with an order of the engine's own.
func TestPlanMustCoverQuery(t *testing.T) {
	f := buildFixture(t, []string{"energy", "x"}, vpicLike, 4000, 1000, true, false)
	q := &query.Query{Root: query.And(query.Leaf(1, query.OpGT, 1.0), query.Between(2, 50, 250, false, false))}
	want := f.truth(q)
	e, _ := f.engine(shapeScan)
	for _, order := range [][]object.ID{{1, 2}, {2, 1}} {
		res, err := e.EvaluateToken(nil, q, &QueryPlan{Conjuncts: []ConjunctPlan{{Order: order}}}, f.fullAssign(), NeedCoords, nil)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if !slices.Equal(coordsOf(t, res), want) {
			t.Errorf("order %v: wrong answer", order)
		}
	}
	for name, pl := range map[string]*QueryPlan{
		"no plan":           nil,
		"no conjunct":       {},
		"extra conjunct":    {Conjuncts: []ConjunctPlan{{Order: []object.ID{1, 2}}, {Order: []object.ID{1, 2}}}},
		"omits a condition": {Conjuncts: []ConjunctPlan{{Order: []object.ID{2}}}},
		"repeats one":       {Conjuncts: []ConjunctPlan{{Order: []object.ID{2, 2}}}},
		"invents one":       {Conjuncts: []ConjunctPlan{{Order: []object.ID{2, 3}}}},
		"one too many":      {Conjuncts: []ConjunctPlan{{Order: []object.ID{1, 2, 2}}}},
	} {
		if res, err := e.EvaluateToken(nil, q, pl, f.fullAssign(), NeedCoords, nil); !errors.Is(err, ErrPlan) {
			t.Errorf("%s: result %v, err %v; want ErrPlan", name, res, err)
		}
	}
}
