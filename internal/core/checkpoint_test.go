package core

import (
	"bytes"
	"testing"

	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/workload"
)

func TestCheckpointRoundTrip(t *testing.T) {
	// Build a full-featured deployment (indexes + sorted replica), then
	// checkpoint, reload into a fresh deployment with a different server
	// count, and verify every strategy still answers identically.
	d, ids := vpicDeployment(t, 15000, Options{
		Servers: 3, RegionBytes: 8 << 10, BuildIndex: true,
	}, plan.ForceSorted)
	var buf bytes.Buffer
	if err := d.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	d2, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), Options{Servers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	if d2.Meta().NumObjects() != 7 {
		t.Fatalf("restored %d objects", d2.Meta().NumObjects())
	}
	for _, q := range []*query.Query{
		{Root: query.Between(ids["Energy"], 2.1, 2.5, false, false)},
		workload.MultiObjectQueries(ids["Energy"], ids["x"], ids["y"], ids["z"])[1],
	} {
		want, err := d.Client().RunCount(q, plan.ForceSorted)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []plan.Force{plan.ForceScan, plan.ForceBitmap, plan.ForceSorted} {
			d2.ResetCaches()
			got, err := d2.Client().RunCount(q, s)
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			if got.Sel.NHits != want.Sel.NHits {
				t.Errorf("%v: restored deployment %d hits, original %d", s, got.Sel.NHits, want.Sel.NHits)
			}
		}
	}
	// The restored metadata still carries global histograms and replicas.
	o, _ := d2.Meta().Get(ids["Energy"])
	if o.Global == nil || o.Global.Total != 15000 {
		t.Error("restored global histogram missing or wrong")
	}
	if o.SortedBy != ids["Energy"] {
		t.Error("restored SortedBy marker missing")
	}
}

func TestCheckpointErrors(t *testing.T) {
	if _, err := LoadCheckpoint(bytes.NewReader(nil), Options{}); err == nil {
		t.Error("empty checkpoint accepted")
	}
	if _, err := LoadCheckpoint(bytes.NewReader(make([]byte, 64)), Options{}); err == nil {
		t.Error("garbage checkpoint accepted")
	}
	// Truncation anywhere must error, not panic.
	d, _ := vpicDeployment(t, 2000, Options{Servers: 2, RegionBytes: 4 << 10})
	var buf bytes.Buffer
	if err := d.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{7, 9, 40, len(full) / 2, len(full) - 3} {
		if _, err := LoadCheckpoint(bytes.NewReader(full[:cut]), Options{}); err == nil {
			t.Errorf("checkpoint truncated to %d accepted", cut)
		}
	}
}
