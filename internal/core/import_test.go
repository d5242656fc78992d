package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/histogram"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/simio"
	"pdcquery/internal/vclock"
)

// importedState is everything an import leaves behind: the object, the
// store and metadata snapshots, and the import account's charges.
type importedState struct {
	obj              *object.Object
	store, meta      []byte
	cost             vclock.Cost
	writeOps, writeB int64
}

// referenceImport imports data the plain way, one region at a time with
// each step spelled out, into a fresh store built on model: the state
// ImportObject must reproduce byte for byte.
func referenceImport(t *testing.T, model simio.Model, opts Options, prop object.Property, data []byte) importedState {
	t.Helper()
	st, acct, ms := simio.New(model), vclock.NewAccount(), metadata.NewService()
	c := ms.CreateContainer("c")
	o, err := ms.CreateObject(c.ID, prop)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(o.Type.Size())
	var hists []*histogram.Histogram
	for i, r := range object.Partition(o.Dims, o.Type, opts.RegionBytes) {
		lo := r.Offset[0] * (o.NumElems() / o.Dims[0]) * size
		raw := data[lo : lo+r.NumElems()*size]
		rm := object.RegionMeta{Index: i, Region: r, ExtentKey: object.ExtentKey(o.ID, i), Tier: simio.PFS}
		st.Write(acct, rm.ExtentKey, simio.PFS, raw)
		rm.Min, rm.Max = dtype.MinMax(o.Type, raw)
		if !opts.DisableHistograms {
			rm.Hist = histogram.BuildBytes(o.Type, raw, histogram.DefaultBins)
			hists = append(hists, rm.Hist)
		}
		if opts.BuildIndex {
			x := bitindex.Build(o.Type, raw, rm.Min, rm.Max, bitindex.DefaultPrecision)
			rm.IndexKey = object.IndexExtentKey(o.ID, i)
			st.Write(acct, rm.IndexKey, simio.PFS, x.Encode())
			rm.IndexBins, rm.IndexDir = len(x.Bins), x.Directory()
		}
		o.Regions = append(o.Regions, rm)
	}
	if !opts.DisableHistograms {
		o.Global = histogram.MergeAll(hists)
	}
	return snapshotState(t, o, st, ms, acct)
}

func snapshotState(t *testing.T, o *object.Object, st *simio.Store, ms *metadata.Service, acct *vclock.Account) importedState {
	t.Helper()
	var sb bytes.Buffer
	if _, err := st.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	mb, err := ms.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return importedState{
		obj: o, store: sb.Bytes(), meta: mb, cost: acct.Cost(),
		writeOps: acct.Counter("write.ops"), writeB: acct.Counter("write.bytes"),
	}
}

// importData returns n elements of typ spread over a few decades, in no
// order, so regions differ in range, histogram grid and index bins.
func importData(typ dtype.Type, n int) []byte {
	v := func(i int) float64 { return float64((i*7919)%10007) * float64(1+i%3) / 7 }
	switch typ {
	case dtype.Float32:
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(v(i))
		}
		return dtype.Bytes(out)
	case dtype.Float64:
		out := make([]float64, n)
		for i := range out {
			out[i] = v(i)
		}
		return dtype.Bytes(out)
	default:
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(v(i)) - 2000
		}
		return dtype.Bytes(out)
	}
}

// TestImportMatchesReference holds the parallel import to the plain
// per-region loop: the same extent bytes, the same RegionMeta fields and
// global histogram, the same metadata snapshot and the same import
// charges, at GOMAXPROCS 1 and 8, for one-region objects and for region
// counts that are not a multiple of importWidth.
func TestImportMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, regionBytes := range []int64{8 << 10, 64 << 10} {
		for _, typ := range []dtype.Type{dtype.Float32, dtype.Float64, dtype.Int32} {
			perRegion := int(regionBytes) / typ.Size()
			for _, n := range []int{perRegion / 3, (2*importWidth+1)*perRegion - 5} {
				for _, index := range []bool{false, true} {
					for _, noHist := range []bool{false, true} {
						name := fmt.Sprintf("%dKiB/%v/n=%d/index=%v/nohist=%v", regionBytes>>10, typ, n, index, noHist)
						checkImportMatchesReference(t, name, Options{
							RegionBytes: regionBytes, BuildIndex: index, DisableHistograms: noHist,
						}, typ, n)
					}
				}
			}
		}
	}
}

func checkImportMatchesReference(t *testing.T, name string, opts Options, typ dtype.Type, n int) {
	t.Helper()
	data := importData(typ, n)
	prop := object.Property{Name: "v", Type: typ, Dims: []uint64{uint64(n)}}
	var want importedState
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		d := NewDeployment(opts)
		c := d.CreateContainer("c")
		o, err := d.ImportObject(c.ID, prop, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if procs == 1 {
			want = referenceImport(t, d.Store().Model(), d.opts, prop, data)
		}
		got := snapshotState(t, o, d.Store(), d.Meta(), d.importAcct)
		label := fmt.Sprintf("%s GOMAXPROCS=%d", name, procs)
		if len(got.obj.Regions) != len(want.obj.Regions) {
			t.Fatalf("%s: %d regions, want %d", label, len(got.obj.Regions), len(want.obj.Regions))
		}
		for i := range want.obj.Regions {
			if g, w := got.obj.Regions[i], want.obj.Regions[i]; !reflect.DeepEqual(g, w) {
				t.Errorf("%s: region %d:\n got %+v\nwant %+v", label, i, g, w)
			}
		}
		if !reflect.DeepEqual(got.obj.Global, want.obj.Global) {
			t.Errorf("%s: global histogram %+v, want %+v", label, got.obj.Global, want.obj.Global)
		}
		if !bytes.Equal(got.store, want.store) {
			t.Errorf("%s: store snapshot differs from the reference's", label)
		}
		if !bytes.Equal(got.meta, want.meta) {
			t.Errorf("%s: metadata snapshot differs from the reference's", label)
		}
		if got.cost != want.cost || got.writeOps != want.writeOps || got.writeB != want.writeB {
			t.Errorf("%s: import charged %v over %d writes of %d B, want %v over %d of %d B",
				label, got.cost, got.writeOps, got.writeB, want.cost, want.writeOps, want.writeB)
		}
	}
}

// TestImportFailureLeavesNameFree: an import rejected for its data size
// registers nothing, so a retry under the same name with the right data
// succeeds and answers queries.
func TestImportFailureLeavesNameFree(t *testing.T) {
	const n = 5000
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i % 100)
	}
	d := NewDeployment(Options{Servers: 2, RegionBytes: 4 << 10, BuildIndex: true})
	c := d.CreateContainer("c")
	prop := object.Property{Name: "v", Type: dtype.Float32, Dims: []uint64{n}}
	if _, err := d.ImportObject(c.ID, prop, dtype.Bytes(vals[:n-1])); err == nil {
		t.Fatal("short data accepted")
	}
	if _, ok := d.Meta().GetByName("v"); ok {
		t.Fatal("failed import left object \"v\" registered")
	}
	o, err := d.ImportObject(c.ID, prop, dtype.Bytes(vals))
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, f := range []plan.Force{plan.ForceScan, plan.ForceBitmap} {
		res, err := d.Client().RunCount(&query.Query{Root: query.Between(o.ID, 10, 20, true, false)}, f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sel.NHits != n/10 {
			t.Errorf("%v: %d hits, want %d", f, res.Sel.NHits, n/10)
		}
	}
}
