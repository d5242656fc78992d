package core

import (
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
)

func TestWritePathMatchesImport(t *testing.T) {
	const n = 20000
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32((i*7919)%10000) / 100
	}

	// Reference: bulk import.
	dRef := NewDeployment(Options{Servers: 3, RegionBytes: 8 << 10, BuildIndex: true})
	cRef := dRef.CreateContainer("c")
	oRef, err := dRef.ImportObject(cRef.ID, object.Property{Name: "v", Type: dtype.Float32, Dims: []uint64{n}}, dtype.Bytes(vals))
	if err != nil {
		t.Fatal(err)
	}
	if err := dRef.Start(); err != nil {
		t.Fatal(err)
	}
	defer dRef.Close()

	// Write path: region by region, out of order.
	d := NewDeployment(Options{Servers: 3, RegionBytes: 8 << 10, BuildIndex: true})
	c := d.CreateContainer("c")
	o, err := d.CreateObject(c.ID, object.Property{Name: "v", Type: dtype.Float32, Dims: []uint64{n}})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Regions) < 2 {
		t.Fatalf("expected multiple regions, got %d", len(o.Regions))
	}
	// Finalize before writing must fail.
	if err := d.FinalizeObject(o.ID); err == nil {
		t.Fatal("finalize of unwritten object succeeded")
	}
	// Write regions in reverse order.
	for i := len(o.Regions) - 1; i >= 0; i-- {
		r := o.Regions[i].Region
		lo := r.Offset[0]
		hi := lo + r.Count[0]
		if err := d.WriteRegion(o.ID, i, dtype.Bytes(vals[lo:hi])); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FinalizeObject(o.ID); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Identical answers through every strategy-relevant artifact.
	for _, w := range [][2]float64{{42, 43}, {0, 5}, {99, 100}} {
		q := &query.Query{Root: query.Between(1, w[0], w[1], false, false)}
		want, err := dRef.Client().RunCount(&query.Query{Root: query.Between(oRef.ID, w[0], w[1], false, false)}, plan.ForceScan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Client().RunCount(q, plan.ForceScan)
		if err != nil {
			t.Fatal(err)
		}
		if got.Sel.NHits != want.Sel.NHits {
			t.Errorf("window %v: write path %d hits, import %d", w, got.Sel.NHits, want.Sel.NHits)
		}
	}
	// The global histogram was merged at finalize.
	if o.Global == nil || o.Global.Total != n {
		t.Errorf("finalized global histogram = %+v", o.Global)
	}
	// The index strategy works on written regions too.
	d.ResetCaches()
	got, err := d.Client().RunCount(&query.Query{Root: query.Between(o.ID, 42, 43, false, false)}, plan.ForceBitmap)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := dRef.Client().RunCount(&query.Query{Root: query.Between(oRef.ID, 42, 43, false, false)}, plan.ForceScan)
	if got.Sel.NHits != want.Sel.NHits {
		t.Errorf("index strategy on written object: %d hits, want %d", got.Sel.NHits, want.Sel.NHits)
	}
}

func TestWriteRegionErrors(t *testing.T) {
	d := NewDeployment(Options{Servers: 2, RegionBytes: 4 << 10})
	c := d.CreateContainer("c")
	o, err := d.CreateObject(c.ID, object.Property{Name: "v", Type: dtype.Float32, Dims: []uint64{5000}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRegion(999, 0, nil); err == nil {
		t.Error("unknown object accepted")
	}
	if err := d.WriteRegion(o.ID, 99, nil); err == nil {
		t.Error("out-of-range region accepted")
	}
	if err := d.WriteRegion(o.ID, 0, make([]byte, 10)); err == nil {
		t.Error("short write accepted")
	}
	// Rewriting a region before finalize is allowed.
	size := int(o.Regions[0].Region.NumElems()) * 4
	if err := d.WriteRegion(o.ID, 0, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRegion(o.ID, 0, make([]byte, size)); err != nil {
		t.Errorf("rewrite rejected: %v", err)
	}
	if err := d.FinalizeObject(999); err == nil {
		t.Error("finalize of unknown object accepted")
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.CreateObject(c.ID, object.Property{Name: "late", Type: dtype.Float32, Dims: []uint64{10}}); err == nil {
		t.Error("create after start accepted")
	}
	if err := d.WriteRegion(o.ID, 0, make([]byte, size)); err == nil {
		t.Error("write after start accepted")
	}
}
