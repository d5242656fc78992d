package client_test

import (
	"strings"
	"testing"

	"pdcquery/internal/client"
	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/workload"

	"pdcquery/internal/core"
)

func vpicClient(t *testing.T, n int) (*core.Deployment, map[string]object.ID) {
	t.Helper()
	d := core.NewDeployment(core.Options{Servers: 4, RegionBytes: 8 << 10})
	c := d.CreateContainer("vpic")
	v := workload.GenerateVPIC(n, 42)
	ids := map[string]object.ID{}
	for _, name := range workload.VPICNames {
		o, err := d.ImportObject(c.ID, object.Property{
			Name: name, Type: dtype.Float32, Dims: []uint64{uint64(n)},
		}, dtype.Bytes(v.Vars[name]))
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = o.ID
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, ids
}

// explain plans q under PDC-H without executing it.
func explain(d *core.Deployment, q *query.Query) (*plan.Plan, error) {
	st := prepared(q)
	st.Explain = true
	res, err := d.Client().Do(bg, st, client.Options{Force: plan.ForceScan})
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

func TestExplainOrdersBySelectivity(t *testing.T) {
	d, ids := vpicClient(t, 20000)
	// The last multi-object query: x is the most selective condition.
	q := workload.MultiObjectQueries(ids["Energy"], ids["x"], ids["y"], ids["z"])[5]
	pl, err := explain(d, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Conjuncts) != 1 || len(pl.Conjuncts[0].Conds) != 4 {
		t.Fatalf("plan shape = %v", pl)
	}
	conds := pl.Conjuncts[0].Conds
	if conds[0].Name != "x" {
		t.Errorf("first condition = %s, want x (most selective)", conds[0].Name)
	}
	// Selectivities are ordered ascending.
	for i := 1; i < 4; i++ {
		if conds[i].SelUpper < conds[i-1].SelUpper {
			t.Errorf("plan not ordered at %d", i)
		}
	}
	// The driving condition's row estimate bounds the real count from
	// above (an AND can only shrink it).
	res, err := d.Client().RunCount(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel.NHits > conds[0].EstUpper {
		t.Errorf("truth %d above the driving condition's estimate %d", res.Sel.NHits, conds[0].EstUpper)
	}
	// Rendering mentions every object and the estimate.
	s := pl.Format(q.Root.String())
	for _, want := range []string{"Energy", "x", "y", "z", "est rows"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
}

func TestExplainOr(t *testing.T) {
	d, ids := vpicClient(t, 10000)
	q := &query.Query{Root: query.Or(
		query.Between(ids["Energy"], 2.1, 2.2, false, false),
		query.Leaf(ids["x"], query.OpLT, 10))}
	pl, err := explain(d, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Conjuncts) != 2 {
		t.Fatalf("or plan terms = %d", len(pl.Conjuncts))
	}
	if s := pl.Format(q.Root.String()); !strings.Contains(s, "conjunct 1:") {
		t.Errorf("rendered plan missing the second term:\n%s", s)
	}
	if _, err := explain(d, &query.Query{Root: query.Leaf(999, query.OpGT, 0)}); err == nil {
		t.Error("explain of unknown object succeeded")
	}
}
