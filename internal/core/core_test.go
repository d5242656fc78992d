package core

import (
	"fmt"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/selection"
	"pdcquery/internal/workload"
)

// vpicDeployment imports a small VPIC dataset and starts the system,
// laid out for the strategy its test will run statements under (PDC-SH
// builds the Energy sorted replica; the strategy itself rides on each
// call).
func vpicDeployment(t *testing.T, n int, opts Options, strategy ...plan.Force) (*Deployment, map[string]object.ID) {
	t.Helper()
	force := plan.ForceScan
	if len(strategy) > 0 {
		force = strategy[0]
	}
	d := NewDeployment(opts)
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
	if force == plan.ForceSorted {
		if err := d.BuildSortedReplica(ids["Energy"]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, ids
}

func checkAgainstTruth(t *testing.T, d *Deployment, q *query.Query, f plan.Force, label string) {
	t.Helper()
	want, err := d.GroundTruth(q)
	if err != nil {
		t.Fatalf("%s: truth: %v", label, err)
	}
	res, err := d.Client().Run(q, f)
	if err != nil {
		t.Fatalf("%s: run: %v", label, err)
	}
	if res.Sel.NHits != want.NHits {
		t.Fatalf("%s: %d hits, want %d", label, res.Sel.NHits, want.NHits)
	}
	for i := range want.Coords {
		if res.Sel.Coords[i] != want.Coords[i] {
			t.Fatalf("%s: coord %d mismatch", label, i)
		}
	}
	if res.Info.Elapsed.Total() <= 0 {
		t.Errorf("%s: no modeled elapsed time", label)
	}
}

func TestEndToEndAllStrategies(t *testing.T) {
	for _, s := range []plan.Force{plan.ForceFull, plan.ForceScan, plan.ForceBitmap, plan.ForceSorted} {
		t.Run(s.String(), func(t *testing.T) {
			d, ids := vpicDeployment(t, 30000, Options{
				Servers: 4, RegionBytes: 8 << 10, BuildIndex: true,
			}, s)
			if s == plan.ForceSorted {
				// replica built in helper only for SortedHistogram; ensure set
				if d.replicas[ids["Energy"]] == nil {
					t.Fatal("no replica")
				}
			}
			for _, q := range workload.SingleObjectQueries(ids["Energy"])[:4] {
				checkAgainstTruth(t, d, q, s, s.String())
			}
			qs := workload.MultiObjectQueries(ids["Energy"], ids["x"], ids["y"], ids["z"])
			checkAgainstTruth(t, d, qs[0], s, s.String()+"/multi0")
			checkAgainstTruth(t, d, qs[5], s, s.String()+"/multi5")
		})
	}
}

func TestRunCountMatchesRun(t *testing.T) {
	d, ids := vpicDeployment(t, 20000, Options{Servers: 3, RegionBytes: 8 << 10})
	q := &query.Query{Root: query.Leaf(ids["Energy"], query.OpGT, 1.5)}
	full, err := d.Client().Run(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := d.Client().RunCount(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Sel.NHits != full.Sel.NHits {
		t.Errorf("count %d != selection %d", cnt.Sel.NHits, full.Sel.NHits)
	}
	if !cnt.Sel.CountOnly || cnt.Sel.Coords != nil {
		t.Error("RunCount returned coordinates")
	}
}

func TestGetDataAllStrategies(t *testing.T) {
	for _, s := range []plan.Force{plan.ForceFull, plan.ForceScan, plan.ForceBitmap, plan.ForceSorted} {
		t.Run(s.String(), func(t *testing.T) {
			d, ids := vpicDeployment(t, 25000, Options{
				Servers: 4, RegionBytes: 8 << 10, BuildIndex: true,
			}, s)
			v := workload.GenerateVPIC(25000, 42)
			q := &query.Query{Root: query.Between(ids["Energy"], 1.5, 2.5, false, false)}
			res, err := d.Client().Run(q, s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sel.NHits == 0 {
				t.Fatal("query matched nothing; test needs hits")
			}
			// Values of the queried object.
			data, info, err := res.GetData(ids["Energy"])
			if err != nil {
				t.Fatal(err)
			}
			vals := dtype.View[float32](data)
			for i, c := range res.Sel.Coords {
				if vals[i] != v.Vars["Energy"][c] {
					t.Fatalf("energy[%d] = %v, want %v", i, vals[i], v.Vars["Energy"][c])
				}
			}
			if info.Elapsed.Total() <= 0 {
				t.Error("no modeled get-data time")
			}
			// Values of an object NOT in the query condition (the paper's
			// "memory objects may differ from the query objects").
			data, _, err = res.GetData(ids["Uy"])
			if err != nil {
				t.Fatal(err)
			}
			vals = dtype.View[float32](data)
			for i, c := range res.Sel.Coords {
				if vals[i] != v.Vars["Uy"][c] {
					t.Fatalf("Uy[%d] mismatch", i)
				}
			}
		})
	}
}

func TestGetDataBatch(t *testing.T) {
	d, ids := vpicDeployment(t, 20000, Options{Servers: 3, RegionBytes: 8 << 10})
	v := workload.GenerateVPIC(20000, 42)
	q := &query.Query{Root: query.Leaf(ids["Energy"], query.OpGT, 1.0)}
	res, err := d.Client().Run(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	var got []float32
	var gotCoords []uint64
	batches := 0
	_, err = res.GetDataBatch(ids["Energy"], 100, func(batch *selection.Selection, data []byte) error {
		batches++
		if batch.NHits > 100 {
			return fmt.Errorf("batch of %d hits exceeds limit", batch.NHits)
		}
		got = append(got, dtype.View[float32](data)...)
		gotCoords = append(gotCoords, batch.Coords...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches < 2 {
		t.Errorf("only %d batches for %d hits", batches, res.Sel.NHits)
	}
	if uint64(len(got)) != res.Sel.NHits {
		t.Fatalf("batched %d values, want %d", len(got), res.Sel.NHits)
	}
	for i, c := range res.Sel.Coords {
		if gotCoords[i] != c {
			t.Fatalf("batch coord %d mismatch", i)
		}
		if got[i] != v.Vars["Energy"][c] {
			t.Fatalf("batch value %d = %v, want %v", i, got[i], v.Vars["Energy"][c])
		}
	}
	// Count-only results cannot be batched.
	cnt, err := d.Client().RunCount(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cnt.GetDataBatch(ids["Energy"], 100, func(*selection.Selection, []byte) error { return nil }); err == nil {
		t.Error("batching a count-only result succeeded")
	}
}

func TestScalabilityConsistency(t *testing.T) {
	// Fig. 6's invariant: the answer does not depend on the server count.
	var baseline uint64
	for _, nsrv := range []int{1, 2, 8, 16} {
		d, ids := vpicDeployment(t, 20000, Options{Servers: nsrv, RegionBytes: 4 << 10})
		q := workload.MultiObjectQueries(ids["Energy"], ids["x"], ids["y"], ids["z"])[2]
		res, err := d.Client().Run(q, plan.ForceScan)
		if err != nil {
			t.Fatal(err)
		}
		if nsrv == 1 {
			baseline = res.Sel.NHits
		} else if res.Sel.NHits != baseline {
			t.Errorf("nsrv=%d: %d hits, baseline %d", nsrv, res.Sel.NHits, baseline)
		}
		d.Close()
	}
}

func TestRegionConstraintEndToEnd(t *testing.T) {
	d, ids := vpicDeployment(t, 15000, Options{Servers: 3, RegionBytes: 4 << 10})
	q := &query.Query{Root: query.Leaf(ids["Energy"], query.OpGT, 1.0)}
	q.SetRegion(region.New([]uint64{3000}, []uint64{5000}))
	checkAgainstTruth(t, d, q, plan.ForceScan, "constrained")
}

func TestGetHistogram(t *testing.T) {
	d, ids := vpicDeployment(t, 10000, Options{Servers: 4, RegionBytes: 4 << 10})
	h, info, err := d.Client().GetHistogram(ids["Energy"])
	if err != nil {
		t.Fatal(err)
	}
	if h == nil || h.Total != 10000 {
		t.Fatalf("histogram total = %v", h)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if info.Elapsed.Total() <= 0 {
		t.Error("no modeled histogram time")
	}
	if _, _, err := d.Client().GetHistogram(9999); err == nil {
		t.Error("histogram of unknown object succeeded")
	}
}

func TestTagQueryEndToEnd(t *testing.T) {
	d := NewDeployment(Options{Servers: 5, RegionBytes: 1 << 20})
	c := d.CreateContainer("boss")
	objs := workload.GenerateBOSS(3000, 10, 7)
	for _, bo := range objs {
		_, err := d.ImportObject(c.ID, object.Property{
			Name: bo.Name, Type: dtype.Float32, Dims: []uint64{uint64(len(bo.Flux))},
			Tags: map[string]string{"RADEG": bo.RADeg, "DECDEG": bo.DECDeg},
		}, dtype.Bytes(bo.Flux))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ids, info, err := d.Client().QueryTag([]metadata.TagCond{
		{Key: "RADEG", Value: objs[0].RADeg}, {Key: "DECDEG", Value: objs[0].DECDeg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != workload.BOSSGroupSize {
		t.Errorf("tag query found %d objects, want %d", len(ids), workload.BOSSGroupSize)
	}
	if info.Elapsed.Total() <= 0 {
		t.Error("no modeled tag query time")
	}
	// Union across servers must be duplicate-free and sorted.
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("tag result not sorted/unique")
		}
	}
}

func TestTCPDeployment(t *testing.T) {
	d, ids := vpicDeployment(t, 8000, Options{
		Servers: 3, RegionBytes: 4 << 10, TCP: true,
	})
	q := &query.Query{Root: query.Between(ids["Energy"], 1.0, 2.0, false, false)}
	checkAgainstTruth(t, d, q, plan.ForceScan, "tcp")
	// SyncMeta over the wire.
	if err := d.Client().SyncMeta(); err != nil {
		t.Fatal(err)
	}
	if d.Client().Meta().NumObjects() != 7 {
		t.Errorf("synced metadata has %d objects", d.Client().Meta().NumObjects())
	}
}

func TestStrategySwitchAndCacheReset(t *testing.T) {
	d, ids := vpicDeployment(t, 10000, Options{Servers: 2, RegionBytes: 4 << 10}, plan.ForceFull)
	q := &query.Query{Root: query.Leaf(ids["Energy"], query.OpGT, 2.0)}
	r1, err := d.Client().Run(q, plan.ForceFull)
	if err != nil {
		t.Fatal(err)
	}
	d.ResetCaches()
	r2, err := d.Client().Run(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sel.NHits != r2.Sel.NHits {
		t.Errorf("strategy switch changed hits: %d vs %d", r1.Sel.NHits, r2.Sel.NHits)
	}
	// After reset the caches were cold again; the second run must have
	// re-read from storage (accounts were reset, so cost > 0).
	if d.Servers()[0].Account().Cost().Total() == 0 && d.Servers()[1].Account().Cost().Total() == 0 {
		t.Error("no server cost after cache reset")
	}
}

func TestImportErrors(t *testing.T) {
	d := NewDeployment(Options{})
	c := d.CreateContainer("c")
	if _, err := d.ImportObject(c.ID, object.Property{Name: "o", Type: dtype.Float32, Dims: []uint64{10}}, make([]byte, 39)); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := d.ImportObject(c.ID, object.Property{Name: "", Type: dtype.Float32, Dims: []uint64{10}}, make([]byte, 40)); err == nil {
		t.Error("invalid property accepted")
	}
	if err := d.BuildSortedReplica(99); err == nil {
		t.Error("replica of unknown object accepted")
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Start(); err == nil {
		t.Error("double start accepted")
	}
	if _, err := d.ImportObject(c.ID, object.Property{Name: "late", Type: dtype.Float32, Dims: []uint64{10}}, make([]byte, 40)); err == nil {
		t.Error("import after start accepted")
	}
	if err := d.BuildSortedReplica(1); err == nil {
		t.Error("replica after start accepted")
	}
}

func TestIndexBytesReported(t *testing.T) {
	d, _ := vpicDeployment(t, 10000, Options{Servers: 2, RegionBytes: 8 << 10, BuildIndex: true}, plan.ForceBitmap)
	if d.IndexBytes() == 0 {
		t.Error("no index bytes reported")
	}
	if d.ImportCost().Total() == 0 {
		t.Error("no import cost recorded")
	}
}

func TestQueryValidationErrorPropagates(t *testing.T) {
	d, ids := vpicDeployment(t, 5000, Options{Servers: 2, RegionBytes: 4 << 10})
	_ = ids
	q := &query.Query{Root: query.Leaf(12345, query.OpGT, 0)}
	if _, err := d.Client().Run(q, plan.ForceScan); err == nil {
		t.Error("query on unknown object succeeded")
	}
}

func TestManyQueriesSequentially(t *testing.T) {
	// The Fig. 3 pattern: 15 queries executed sequentially on one warm
	// deployment; later queries benefit from the region cache.
	d, ids := vpicDeployment(t, 30000, Options{Servers: 4, RegionBytes: 8 << 10})
	var prev uint64 = 1 << 62
	for k, q := range workload.SingleObjectQueries(ids["Energy"]) {
		res, err := d.Client().RunCount(q, plan.ForceScan)
		if err != nil {
			t.Fatalf("query %d: %v", k, err)
		}
		// Selectivity decreases with k (statistically; allow slack for
		// the sparse tail).
		if k < 6 && res.Sel.NHits > prev*2 {
			t.Errorf("query %d: hits %d not decreasing (prev %d)", k, res.Sel.NHits, prev)
		}
		if res.Sel.NHits > 0 {
			prev = res.Sel.NHits
		}
	}
}

func TestLabelHelpers(t *testing.T) {
	if workload.SingleQueryLabel(14) != "3.5<E<3.6" {
		t.Errorf("label = %q", workload.SingleQueryLabel(14))
	}
	if fmt.Sprint(workload.MultiQueryLabel(0)) == "" {
		t.Error("empty multi label")
	}
}

// TestReplicasSnapshotIsCopy pins the aliasguard fix on
// Deployment.Replicas: the returned registry map is the caller's copy,
// so deleting from it must not detach replicas from the deployment.
func TestReplicasSnapshotIsCopy(t *testing.T) {
	d, ids := vpicDeployment(t, 64, Options{Servers: 2}, plan.ForceSorted)
	_ = ids
	snap := d.Replicas()
	if len(snap) == 0 {
		t.Fatal("expected at least one replica")
	}
	for id := range snap {
		delete(snap, id)
	}
	if got := d.Replicas(); len(got) == 0 {
		t.Fatal("mutating the snapshot emptied the deployment's registry: Replicas leaked an alias")
	}
}

// TestDeploymentClosePropagatesTeardownErrors pins the errflow fix:
// Deployment.Close used to drop the client's and every listener's close
// error and return nil unconditionally. Closing twice makes the second
// teardown fail (sockets and listeners are already gone), and that
// failure must now surface instead of silently reporting success.
func TestDeploymentClosePropagatesTeardownErrors(t *testing.T) {
	d := NewDeployment(Options{Servers: 2, TCP: true})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("first Close() = %v, want nil", err)
	}
	if err := d.Close(); err == nil {
		t.Fatal("second Close() = nil, want the double-close errors to propagate")
	}
}
