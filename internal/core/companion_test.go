package core

import (
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/workload"
)

// companionDeployment imports VPIC with an Energy-sorted replica plus
// co-sorted x, y, z companions.
func companionDeployment(t *testing.T, n int) (*Deployment, map[string]object.ID) {
	t.Helper()
	d := NewDeployment(Options{Servers: 4, RegionBytes: 8 << 10})
	c := d.CreateContainer("vpic")
	v := workload.GenerateVPIC(n, 42)
	ids := make(map[string]object.ID)
	for _, name := range workload.VPICNames {
		o, err := d.ImportObject(c.ID, object.Property{
			Name: name, Type: dtype.Float32, Dims: []uint64{uint64(n)},
		}, dtype.Bytes(v.Vars[name]))
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = o.ID
	}
	if err := d.BuildSortedReplica(ids["Energy"]); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCompanions(ids["Energy"], ids["x"], ids["y"], ids["z"]); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, ids
}

func TestCompanionQueriesMatchTruth(t *testing.T) {
	d, ids := companionDeployment(t, 25000)
	queries := workload.MultiObjectQueries(ids["Energy"], ids["x"], ids["y"], ids["z"])
	for k, q := range queries {
		want, err := d.GroundTruth(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Client().Run(q, plan.ForceSorted)
		if err != nil {
			t.Fatalf("query %d: %v", k, err)
		}
		if res.Sel.NHits != want.NHits {
			t.Fatalf("query %d: %d hits, want %d", k, res.Sel.NHits, want.NHits)
		}
		for i := range want.Coords {
			if res.Sel.Coords[i] != want.Coords[i] {
				t.Fatalf("query %d: coord %d mismatch", k, i)
			}
		}
	}
}

func TestCompanionGetData(t *testing.T) {
	d, ids := companionDeployment(t, 20000)
	v := workload.GenerateVPIC(20000, 42)
	q := workload.MultiObjectQueries(ids["Energy"], ids["x"], ids["y"], ids["z"])[1]
	res, err := d.Client().Run(q, plan.ForceSorted)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel.NHits == 0 {
		t.Skip("no hits at this scale")
	}
	for _, name := range []string{"Energy", "x", "y"} {
		data, _, err := res.GetData(ids[name])
		if err != nil {
			t.Fatal(err)
		}
		got := dtype.View[float32](data)
		for i, c := range res.Sel.Coords {
			if got[i] != v.Vars[name][c] {
				t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], v.Vars[name][c])
			}
		}
	}
}

func TestCompanionMixedConditions(t *testing.T) {
	// A query mixing companion (x) and non-companion (Ux) conditions
	// exercises both probe paths in one conjunct.
	d, ids := companionDeployment(t, 20000)
	q := &query.Query{Root: query.And(
		query.Leaf(ids["Energy"], query.OpGT, 2.0),
		query.And(
			query.Between(ids["x"], 100, 200, false, false),
			query.Leaf(ids["Ux"], query.OpGT, 0)))}
	want, err := d.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Client().Run(q, plan.ForceSorted)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel.NHits != want.NHits {
		t.Fatalf("%d hits, want %d", res.Sel.NHits, want.NHits)
	}
}

func TestCompanionReducesOriginalRegionReads(t *testing.T) {
	// The point of the reorganization: with companions, the sorted path's
	// probe traffic against original regions disappears for the covered
	// conditions.
	const n = 30000
	v := workload.GenerateVPIC(n, 42)
	build := func(withCompanions bool) (*Deployment, map[string]object.ID) {
		d := NewDeployment(Options{Servers: 4, RegionBytes: 8 << 10})
		c := d.CreateContainer("vpic")
		ids := make(map[string]object.ID)
		for _, name := range workload.VPICNames {
			o, err := d.ImportObject(c.ID, object.Property{
				Name: name, Type: dtype.Float32, Dims: []uint64{uint64(n)},
			}, dtype.Bytes(v.Vars[name]))
			if err != nil {
				t.Fatal(err)
			}
			ids[name] = o.ID
		}
		if err := d.BuildSortedReplica(ids["Energy"]); err != nil {
			t.Fatal(err)
		}
		if withCompanions {
			if err := d.AddCompanions(ids["Energy"], ids["x"], ids["y"], ids["z"]); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		return d, ids
	}

	run := func(withCompanions bool) (uint64, int64) {
		d, ids := build(withCompanions)
		defer d.Close()
		q := workload.MultiObjectQueries(ids["Energy"], ids["x"], ids["y"], ids["z"])[0]
		res, err := d.Client().Run(q, plan.ForceSorted)
		if err != nil {
			t.Fatal(err)
		}
		var ops int64
		for _, s := range d.Servers() {
			ops += s.Account().Counter("read.ops")
		}
		return res.Sel.NHits, ops
	}

	hitsWithout, opsWithout := run(false)
	hitsWith, opsWith := run(true)
	if hitsWith != hitsWithout {
		t.Fatalf("companions changed the answer: %d vs %d", hitsWith, hitsWithout)
	}
	if opsWith >= opsWithout {
		t.Errorf("companions did not reduce read ops: %d vs %d", opsWith, opsWithout)
	}
}

func TestAddCompanionsErrors(t *testing.T) {
	d := NewDeployment(Options{Servers: 2, RegionBytes: 4 << 10})
	c := d.CreateContainer("c")
	a, err := d.ImportObject(c.ID, object.Property{Name: "a", Type: dtype.Float32, Dims: []uint64{100}}, make([]byte, 400))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.ImportObject(c.ID, object.Property{Name: "b", Type: dtype.Float32, Dims: []uint64{50}}, make([]byte, 200))
	if err != nil {
		t.Fatal(err)
	}
	// No replica yet.
	if err := d.AddCompanions(a.ID, b.ID); err == nil {
		t.Error("companions without a replica accepted")
	}
	if err := d.BuildSortedReplica(a.ID); err != nil {
		t.Fatal(err)
	}
	// Size mismatch.
	if err := d.AddCompanions(a.ID, b.ID); err == nil {
		t.Error("mismatched companion accepted")
	}
	// Unknown object.
	if err := d.AddCompanions(a.ID, 999); err == nil {
		t.Error("unknown companion accepted")
	}
	// Idempotent add of the key itself as companion of same shape.
	if err := d.AddCompanions(a.ID, a.ID); err != nil {
		t.Errorf("self companion rejected: %v", err)
	}
	if err := d.AddCompanions(a.ID, a.ID); err != nil {
		t.Errorf("repeated add not idempotent: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.AddCompanions(a.ID, a.ID); err == nil {
		t.Error("companions after Start accepted")
	}
}
