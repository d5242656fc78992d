package core

import (
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/selection"
	"pdcquery/internal/simio"
	"pdcquery/internal/workload"
)

func TestMigrateObjectToBurstBuffer(t *testing.T) {
	d, ids := vpicDeployment(t, 20000, Options{
		Servers: 4, RegionBytes: 8 << 10, BuildIndex: true,
	}, plan.ForceSorted)
	energy := ids["Energy"]
	q := &query.Query{Root: query.Between(energy, 2.1, 2.5, false, false)}

	// Cold query from the PFS tier.
	d.ResetCaches()
	resPFS, err := d.Client().Run(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}

	// Stage the object (data, index, sorted replica) into the burst
	// buffer; the answer must not change and the cold query must get
	// faster (the burst buffer's latency and bandwidth are better).
	if err := d.MigrateObject(energy, simio.BurstBuffer); err != nil {
		t.Fatal(err)
	}
	o, _ := d.Meta().Get(energy)
	for _, rm := range o.Regions {
		tier, err := d.Store().TierOf(rm.ExtentKey)
		if err != nil {
			t.Fatal(err)
		}
		if tier != simio.BurstBuffer {
			t.Fatalf("region %d still on %v", rm.Index, tier)
		}
		if rm.Tier != simio.BurstBuffer {
			t.Fatalf("region %d metadata tier not updated", rm.Index)
		}
	}
	d.ResetCaches()
	resBB, err := d.Client().Run(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	if resBB.Sel.NHits != resPFS.Sel.NHits {
		t.Fatalf("migration changed hits: %d vs %d", resBB.Sel.NHits, resPFS.Sel.NHits)
	}
	if resBB.Info.Elapsed.Total() >= resPFS.Info.Elapsed.Total() {
		t.Errorf("burst buffer (%v) not faster than PFS (%v)",
			resBB.Info.Elapsed.Total(), resPFS.Info.Elapsed.Total())
	}
	// Unknown object.
	if err := d.MigrateObject(9999, simio.BurstBuffer); err == nil {
		t.Error("migrating unknown object succeeded")
	}
}

func TestEstimateNHitsBracketsTruth(t *testing.T) {
	d, ids := vpicDeployment(t, 30000, Options{Servers: 4, RegionBytes: 8 << 10})
	cli := d.Client()
	for k, q := range workload.SingleObjectQueries(ids["Energy"]) {
		lower, upper, err := cli.EstimateNHits(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cli.RunCount(q, plan.ForceScan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sel.NHits < lower || res.Sel.NHits > upper {
			t.Errorf("query %d: truth %d outside estimate [%d, %d]", k, res.Sel.NHits, lower, upper)
		}
	}
}

func TestEstimateNHitsMultiObjectAndOr(t *testing.T) {
	d, ids := vpicDeployment(t, 20000, Options{Servers: 2, RegionBytes: 8 << 10})
	cli := d.Client()

	// AND: upper bound is the tightest single condition.
	q := workload.MultiObjectQueries(ids["Energy"], ids["x"], ids["y"], ids["z"])[2]
	lower, upper, err := cli.EstimateNHits(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := cli.RunCount(q, plan.ForceScan)
	if res.Sel.NHits < lower || res.Sel.NHits > upper {
		t.Errorf("multi: truth %d outside [%d, %d]", res.Sel.NHits, lower, upper)
	}

	// OR of two windows.
	or := &query.Query{Root: query.Or(
		query.Between(ids["Energy"], 2.1, 2.2, false, false),
		query.Between(ids["Energy"], 3.0, 3.2, false, false))}
	lower, upper, err = cli.EstimateNHits(or)
	if err != nil {
		t.Fatal(err)
	}
	res, _ = cli.RunCount(or, plan.ForceScan)
	if res.Sel.NHits < lower || res.Sel.NHits > upper {
		t.Errorf("or: truth %d outside [%d, %d]", res.Sel.NHits, lower, upper)
	}

	// Constraint: lower bound degrades to zero but still brackets.
	cq := &query.Query{Root: query.Leaf(ids["Energy"], query.OpGT, 1.0)}
	cq.SetRegion(region.New([]uint64{1000}, []uint64{2000}))
	lower, upper, err = cli.EstimateNHits(cq)
	if err != nil {
		t.Fatal(err)
	}
	if lower != 0 {
		t.Errorf("constrained lower = %d, want 0", lower)
	}
	res, _ = cli.RunCount(cq, plan.ForceScan)
	if res.Sel.NHits > upper {
		t.Errorf("constrained: truth %d above upper %d", res.Sel.NHits, upper)
	}

	// Errors.
	if _, _, err := cli.EstimateNHits(&query.Query{Root: query.Leaf(9999, query.OpGT, 0)}); err == nil {
		t.Error("unknown object accepted")
	}
}

func TestTwoDimensionalObjectEndToEnd(t *testing.T) {
	// A 2-D object (rows x cols) with a rectangular spatial constraint,
	// exercising the N-D region paths through the whole stack.
	const rows, cols = 200, 150
	d := NewDeployment(Options{Servers: 3, RegionBytes: 4 << 10, BuildIndex: true})
	c := d.CreateContainer("matrix")
	vals := make([]float32, rows*cols)
	for r := 0; r < rows; r++ {
		for cc := 0; cc < cols; cc++ {
			vals[r*cols+cc] = float32(r + cc)
		}
	}
	o, err := d.ImportObject(c.ID, object.Property{
		Name: "temp", Type: dtype.Float32, Dims: []uint64{rows, cols},
	}, dtype.Bytes(vals))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.BuildSortedReplica(o.ID); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	q := &query.Query{Root: query.Between(o.ID, 100, 120, false, false)}
	q.SetRegion(region.New([]uint64{50, 30}, []uint64{40, 60}))
	want, err := d.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Client().Run(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel.NHits != want.NHits {
		t.Fatalf("2-D constrained query: %d hits, want %d", res.Sel.NHits, want.NHits)
	}
	// Every strategy handles the 2-D constraint identically.
	for _, s := range []plan.Force{plan.ForceFull, plan.ForceBitmap, plan.ForceSorted} {
		d.ResetCaches()
		r2, err := d.Client().Run(q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if r2.Sel.NHits != want.NHits {
			t.Errorf("%v: 2-D query %d hits, want %d", s, r2.Sel.NHits, want.NHits)
		}
	}
	d.ResetCaches()
	if want.NHits == 0 {
		t.Fatal("test query selected nothing; choose different windows")
	}
	// Coordinates decode to in-constraint 2-D positions.
	buf := make([]uint64, 2)
	for i := 0; i < int(res.Sel.NHits); i++ {
		coord := res.Sel.Coord(i, buf)
		if coord[0] < 50 || coord[0] >= 90 || coord[1] < 30 || coord[1] >= 90 {
			t.Fatalf("hit %d at %v outside the constraint", i, coord)
		}
		v := vals[coord[0]*cols+coord[1]]
		if v <= 100 || v >= 120 {
			t.Fatalf("hit %d value %v outside the range", i, v)
		}
	}
	// Get-data on the 2-D selection.
	data, _, err := res.GetData(o.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := dtype.View[float32](data)
	for i, lin := range res.Sel.Coords {
		if got[i] != vals[lin] {
			t.Fatalf("2-D get-data mismatch at %d", i)
		}
	}
}

func TestGetDataAfterOrQuery(t *testing.T) {
	// OR results skip the server-side value stash (values cannot be
	// aligned across conjuncts), so get-data falls back to extraction —
	// the answer must be identical either way.
	d, ids := vpicDeployment(t, 20000, Options{Servers: 3, RegionBytes: 8 << 10})
	v := workload.GenerateVPIC(20000, 42)
	q := &query.Query{Root: query.Or(
		query.Between(ids["Energy"], 2.1, 2.3, false, false),
		query.Between(ids["Energy"], 3.0, 3.4, false, false))}
	res, err := d.Client().Run(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel.NHits == 0 {
		t.Fatal("no hits")
	}
	data, _, err := res.GetData(ids["Energy"])
	if err != nil {
		t.Fatal(err)
	}
	got := dtype.View[float32](data)
	for i, c := range res.Sel.Coords {
		if got[i] != v.Vars["Energy"][c] {
			t.Fatalf("or get-data[%d] = %v, want %v", i, got[i], v.Vars["Energy"][c])
		}
		e := float64(got[i])
		if !((e > 2.1 && e < 2.3) || (e > 3.0 && e < 3.4)) {
			t.Fatalf("hit %d value %v outside both windows", i, e)
		}
	}
	// Batched retrieval over the OR selection.
	var rebuilt []float32
	if _, err := res.GetDataBatch(ids["Energy"], 50, func(_ *selection.Selection, b []byte) error {
		rebuilt = append(rebuilt, dtype.View[float32](b)...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != int(res.Sel.NHits) {
		t.Fatalf("batched %d values, want %d", len(rebuilt), res.Sel.NHits)
	}
	for i := range rebuilt {
		if rebuilt[i] != got[i] {
			t.Fatalf("batch value %d differs", i)
		}
	}
}

func TestDeploymentStats(t *testing.T) {
	d, ids := vpicDeployment(t, 10000, Options{Servers: 3, RegionBytes: 4 << 10})
	if s := d.Stats(); s.ReadBytes != 0 || s.StoredBytes == 0 {
		t.Fatalf("pre-query stats = %+v", s)
	}
	q := &query.Query{Root: query.Between(ids["Energy"], 2.1, 2.5, false, false)}
	if _, err := d.Client().Run(q, plan.ForceScan); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.ReadOps == 0 || s.ReadBytes == 0 || s.BusiestServer == 0 {
		t.Errorf("post-query stats = %+v", s)
	}
	if s.CachedBytes == 0 {
		t.Error("no regions cached after evaluation")
	}
	// A repeat of the same query hits the cache.
	before := s.CacheHits
	if _, err := d.Client().Run(q, plan.ForceScan); err != nil {
		t.Fatal(err)
	}
	if d.Stats().CacheHits <= before {
		t.Error("repeat query did not hit the cache")
	}
	d.ResetCaches()
	if s := d.Stats(); s.ReadBytes != 0 || s.CachedBytes != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}
