package pdcquery_test

import (
	"testing"

	pdcquery "pdcquery"
	"pdcquery/internal/query"
)

// TestPublicAPISurface exercises the root package's re-exports and
// constructors (the Fig. 1-style facade).
func TestPublicAPISurface(t *testing.T) {
	// Strategy parsing round-trips the paper labels and the plain names.
	for _, s := range []pdcquery.Strategy{
		pdcquery.StrategyFullScan, pdcquery.StrategyHistogram,
		pdcquery.StrategyIndex, pdcquery.StrategySorted,
	} {
		for _, name := range []string{s.Label(), s.String()} {
			got, err := pdcquery.ParseStrategy(name)
			if err != nil || got != s {
				t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
			}
		}
	}
	if _, err := pdcquery.ParseStrategy("nope"); err == nil {
		t.Error("bad strategy accepted")
	}

	// Query constructors compose.
	n := pdcquery.And(
		pdcquery.QueryCreate(1, pdcquery.OpGT, 2.0),
		pdcquery.Or(
			pdcquery.Between(2, 0, 10, true, false),
			pdcquery.QueryCreate(3, pdcquery.OpEQ, 5)))
	q := pdcquery.NewQuery(n)
	if q.Root == nil {
		t.Fatal("NewQuery lost the tree")
	}
	q.SetRegion(pdcquery.NewRegion([]uint64{0}, []uint64{10}))
	if q.Constraint == nil {
		t.Error("SetRegion did not attach the constraint")
	}

	// A wire round trip through the re-exported types.
	dec, err := query.Decode(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Root.String() != q.Root.String() {
		t.Errorf("round trip drifted: %s vs %s", dec.Root, q.Root)
	}
}
