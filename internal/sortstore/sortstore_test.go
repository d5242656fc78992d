package sortstore

import (
	"math"
	"math/rand"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/simio"
	"pdcquery/internal/vclock"
)

// makeObject stores vals as a 1-D float32 object with the given region
// size (in elements) and returns its metadata.
func makeObject(t *testing.T, st *simio.Store, vals []float32, regionElems uint64) *object.Object {
	t.Helper()
	o := &object.Object{ID: 1, Name: "energy", Type: dtype.Float32, Dims: []uint64{uint64(len(vals))}}
	for i, r := range region.Split1D(uint64(len(vals)), regionElems) {
		lo := r.Offset[0]
		hi := lo + r.Count[0]
		key := object.ExtentKey(o.ID, i)
		st.Write(nil, key, simio.PFS, dtype.Bytes(vals[lo:hi]))
		o.Regions = append(o.Regions, object.RegionMeta{Index: i, Region: r, ExtentKey: key, Tier: simio.PFS})
	}
	if err := o.CheckRegionCover(); err != nil {
		t.Fatal(err)
	}
	return o
}

func randVals(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * 2)
	}
	return out
}

func buildReplica(t *testing.T, vals []float32, objRegion, sortRegion uint64) (*simio.Store, *object.Object, *Replica, *vclock.Account) {
	t.Helper()
	st := simio.New(simio.DefaultModel())
	o := makeObject(t, st, vals, objRegion)
	a := vclock.NewAccount()
	rep, err := Build(st, a, o, sortRegion, simio.PFS)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return st, o, rep, a
}

func TestBuildSortsGlobally(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := randVals(rng, 10000)
	st, o, rep, a := buildReplica(t, vals, 1024, 2000)

	if rep.N != 10000 || rep.Key != o.ID {
		t.Fatalf("replica N=%d key=%d", rep.N, rep.Key)
	}
	if len(rep.Regions) != 5 {
		t.Fatalf("sorted regions = %d, want 5", len(rep.Regions))
	}
	// Walk all sorted regions: values ascending globally, permutation maps
	// back to the original values.
	prev := math.Inf(-1)
	seen := make(map[uint64]bool)
	for _, ri := range rep.Regions {
		vbytes, err := st.ReadAll(nil, object.SortedValKey(o.ID, ri.Index))
		if err != nil {
			t.Fatal(err)
		}
		pbytes, err := st.ReadAll(nil, object.SortedPermKey(o.ID, ri.Index))
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(pbytes)) != ri.Count*uint64(rep.PermWidth()) {
			t.Fatalf("region %d perm bytes %d != count %d x width %d", ri.Index, len(pbytes), ri.Count, rep.PermWidth())
		}
		for i := uint64(0); i < ri.Count; i++ {
			v := dtype.At(rep.Type, vbytes, int(i))
			if v < prev {
				t.Fatalf("region %d: value %v < previous %v", ri.Index, v, prev)
			}
			prev = v
			orig := rep.PermAt(pbytes, int(i))
			if seen[orig] {
				t.Fatalf("duplicate original index %d", orig)
			}
			seen[orig] = true
			if float64(vals[orig]) != v {
				t.Fatalf("perm mismatch: sorted %v != original %v", v, vals[orig])
			}
		}
	}
	if len(seen) != len(vals) {
		t.Fatalf("permutation covers %d of %d", len(seen), len(vals))
	}
	if a.Cost().Total() == 0 {
		t.Error("build charged no cost")
	}
	if a.Counter("sort.elems") != 10000 {
		t.Errorf("sort.elems = %d", a.Counter("sort.elems"))
	}
}

func TestBuildErrors(t *testing.T) {
	st := simio.New(simio.DefaultModel())
	o := makeObject(t, st, []float32{1, 2, 3}, 2)
	if _, err := Build(st, vclock.NewAccount(), o, 0, simio.PFS); err == nil {
		t.Error("zero region size accepted")
	}
	// Missing extent.
	st.Delete(object.ExtentKey(o.ID, 0))
	if _, err := Build(st, vclock.NewAccount(), o, 2, simio.PFS); err == nil {
		t.Error("missing extent accepted")
	}
}

func TestRegionsOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := randVals(rng, 5000)
	_, _, rep, _ := buildReplica(t, vals, 1000, 500)

	full := query.Full()
	if first, last := rep.RegionsOverlapping(full); first != 0 || last != len(rep.Regions) {
		t.Errorf("full interval overlaps [%d, %d) of %d regions", first, last, len(rep.Regions))
	}
	// A narrow interval touches a small run of regions, each of which
	// can hold a value of it.
	iv := query.FromLeaf(query.OpGT, 1.0).Intersect(query.FromLeaf(query.OpLT, 1.1))
	first, last := rep.RegionsOverlapping(iv)
	if first >= last {
		t.Fatal("narrow interval overlaps nothing")
	}
	if last-first > 2 {
		t.Errorf("narrow interval overlaps %d regions, want <= 2", last-first)
	}
	for i := first; i < last; i++ {
		if ri := rep.Regions[i]; ri.Max <= iv.Lo || ri.Min >= iv.Hi {
			t.Errorf("region %d [%v, %v] cannot hold a value of (%v, %v)", i, ri.Min, ri.Max, iv.Lo, iv.Hi)
		}
	}
	// Interval beyond the data.
	iv = query.FromLeaf(query.OpGT, 1e9)
	if first, last := rep.RegionsOverlapping(iv); first != last {
		t.Errorf("out-of-range interval overlaps [%d, %d)", first, last)
	}
	// Empty interval.
	if first, last := rep.RegionsOverlapping(query.Interval{Lo: 5, Hi: 1}); first != last {
		t.Errorf("empty interval overlaps [%d, %d)", first, last)
	}
}

func TestEvaluateRegionMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := randVals(rng, 4000)
	st, o, rep, _ := buildReplica(t, vals, 1000, 1000)

	for _, q := range []struct{ lo, hi float64 }{
		{0.5, 1.5}, {-10, 10}, {-0.001, 0.001}, {3, 4}, {-4, -3},
	} {
		iv := query.Interval{Lo: q.lo, Hi: q.hi, LoIncl: false, HiIncl: false}
		var got []uint64
		first, last := rep.RegionsOverlapping(iv)
		for ri := first; ri < last; ri++ {
			vbytes, _ := st.ReadAll(nil, object.SortedValKey(o.ID, ri))
			pbytes, _ := st.ReadAll(nil, object.SortedPermKey(o.ID, ri))
			lo, hi := rep.EvaluateRegion(vbytes, iv)
			for i := lo; i < hi; i++ {
				got = append(got, rep.PermAt(pbytes, i))
			}
		}
		want := 0
		for _, v := range vals {
			if iv.Contains(float64(v)) {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("query (%v,%v): %d hits, want %d", q.lo, q.hi, len(got), want)
		}
		for _, orig := range got {
			if !iv.Contains(float64(vals[orig])) {
				t.Errorf("hit %d value %v outside (%v,%v)", orig, vals[orig], q.lo, q.hi)
			}
		}
	}
}

func TestSelectiveQueryTouchesFewRegions(t *testing.T) {
	// The PDC-SH payoff: a highly selective query touches O(1) sorted
	// regions instead of all of them.
	rng := rand.New(rand.NewSource(4))
	vals := randVals(rng, 100000)
	_, _, rep, _ := buildReplica(t, vals, 10000, 5000)
	if len(rep.Regions) != 20 {
		t.Fatalf("regions = %d", len(rep.Regions))
	}
	// Top ~0.1% of a normal distribution.
	iv := query.FromLeaf(query.OpGT, 6.0)
	if first, last := rep.RegionsOverlapping(iv); last-first > 1 {
		t.Errorf("0.1%% query touches %d of 20 regions", last-first)
	}
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := randVals(rng, 1000)
	_, _, rep, _ := buildReplica(t, vals, 500, 250)

	bad := *rep
	bad.Regions = append([]RegionInfo(nil), rep.Regions...)
	bad.Regions[1].Min = bad.Regions[0].Max - 1
	if err := bad.CheckInvariants(); err == nil {
		t.Error("overlap corruption accepted")
	}
	bad = *rep
	bad.N++
	if err := bad.CheckInvariants(); err == nil {
		t.Error("count corruption accepted")
	}
}

func TestDuplicateValues(t *testing.T) {
	vals := make([]float32, 100)
	for i := range vals {
		vals[i] = float32(i % 5)
	}
	st, o, rep, _ := buildReplica(t, vals, 50, 30)
	iv := query.Interval{Lo: 2, Hi: 2, LoIncl: true, HiIncl: true}
	var hits int
	first, last := rep.RegionsOverlapping(iv)
	for ri := first; ri < last; ri++ {
		vbytes, _ := st.ReadAll(nil, object.SortedValKey(o.ID, ri))
		lo, hi := rep.EvaluateRegion(vbytes, iv)
		hits += hi - lo
	}
	if hits != 20 {
		t.Errorf("equality on duplicates: %d hits, want 20", hits)
	}
}

func TestAddCompanions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	key := randVals(rng, 3000)
	comp := randVals(rng, 3000)
	st := simio.New(simio.DefaultModel())
	keyObj := makeObject(t, st, key, 500)
	compObj := &object.Object{ID: 2, Name: "x", Type: dtype.Float32, Dims: []uint64{3000}}
	for i, r := range region.Split1D(3000, 500) {
		k := object.ExtentKey(compObj.ID, i)
		st.Write(nil, k, simio.PFS, dtype.Bytes(comp[r.Offset[0]:r.Offset[0]+r.Count[0]]))
		compObj.Regions = append(compObj.Regions, object.RegionMeta{Index: i, Region: r, ExtentKey: k})
	}
	lookup := func(id object.ID) (*object.Object, bool) {
		switch id {
		case 1:
			return keyObj, true
		case 2:
			return compObj, true
		}
		return nil, false
	}
	rep, err := Build(st, vclock.NewAccount(), keyObj, 750, simio.PFS)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.AddCompanions(st, nil, lookup, []object.ID{2}, simio.PFS); err != nil {
		t.Fatal(err)
	}
	if !rep.HasCompanion(2) || rep.HasCompanion(3) {
		t.Error("companion registry wrong")
	}
	// Idempotent.
	if err := rep.AddCompanions(st, nil, lookup, []object.ID{2}, simio.PFS); err != nil {
		t.Fatal(err)
	}
	if len(rep.Companions) != 1 {
		t.Errorf("duplicate companion registered: %v", rep.Companions)
	}
	// The co-sorted values line up with the permutation.
	for _, ri := range rep.Regions {
		co, err := st.ReadAll(nil, CompanionValKey(1, 2, ri.Index))
		if err != nil {
			t.Fatal(err)
		}
		perm, err := st.ReadAll(nil, object.SortedPermKey(1, ri.Index))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(ri.Count); i++ {
			orig := rep.PermAt(perm, i)
			if got := dtype.View[float32](co)[i]; got != comp[orig] {
				t.Fatalf("region %d pos %d: co-sorted %v, want %v", ri.Index, i, got, comp[orig])
			}
		}
	}
	// Errors.
	if err := rep.AddCompanions(st, nil, lookup, []object.ID{99}, simio.PFS); err == nil {
		t.Error("unknown companion accepted")
	}
	short := &object.Object{ID: 3, Name: "s", Type: dtype.Float32, Dims: []uint64{10}}
	lookup2 := func(id object.ID) (*object.Object, bool) {
		if id == 3 {
			return short, true
		}
		return lookup(id)
	}
	if err := rep.AddCompanions(st, nil, lookup2, []object.ID{3}, simio.PFS); err == nil {
		t.Error("size-mismatched companion accepted")
	}
}
