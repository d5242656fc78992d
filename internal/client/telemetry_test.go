// Tests for the client-side observability surfaces: traced runs, fleet
// stats aggregation, and the EXPLAIN ANALYZE renderer.
package client_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pdcquery/internal/client"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/telemetry"
)

// analyzedActual sums a condition's observed in/out counts across all
// server traces (mirroring the renderer's aggregation).
func analyzedActual(t *testing.T, a *client.Result, ci int, cond plan.CondPlan) (in, out int64) {
	t.Helper()
	name := fmt.Sprintf("conjunct.%d", ci)
	inKey := fmt.Sprintf("cond.%d.in", cond.Obj)
	outKey := fmt.Sprintf("cond.%d.out", cond.Obj)
	for _, tr := range a.Traces {
		if tr == nil {
			continue
		}
		tr.Walk(func(s *telemetry.Span) {
			if s.Kind != telemetry.SpanConjunct || s.Name != name {
				return
			}
			if v, ok := s.Int(inKey); ok {
				in += v
			}
			if v, ok := s.Int(outKey); ok {
				out += v
			}
		})
	}
	return in, out
}

func TestRunTraced(t *testing.T) {
	d, oid := deploy(t, 10000, 4)
	q := &query.Query{Root: query.Between(oid, 10, 20, false, false)}
	res, err := d.Client().Do(bg, prepared(q), client.Options{Force: plan.ForceScan, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == 0 {
		t.Error("no trace ID assigned")
	}
	if len(res.Traces) != 4 {
		t.Fatalf("traces = %d, want one per server", len(res.Traces))
	}
	// Every server returned a span tree whose root cost is its share of
	// the parallel phase; the max equals the aggregated ServerMax.
	var max int64
	for i, tr := range res.Traces {
		if tr == nil {
			t.Fatalf("server %d returned no trace", i)
		}
		if tr.Trace != res.TraceID {
			t.Errorf("server %d trace ID = %d, want %d", i, tr.Trace, res.TraceID)
		}
		if c := tr.Cost.Total().Nanoseconds(); c > max {
			max = c
		}
	}
	if max != res.Info.ServerMax.Total().Nanoseconds() {
		t.Errorf("max root span cost %d != ServerMax %d", max, res.Info.ServerMax.Total().Nanoseconds())
	}
	// Per-server span hit counts sum to the merged result.
	var hits int64
	for _, tr := range res.Traces {
		if h, ok := tr.Int("hits"); ok {
			hits += h
		}
	}
	if uint64(hits) != res.Sel.NHits {
		t.Errorf("span hits = %d, merged = %d", hits, res.Sel.NHits)
	}
	// The assembled client root adopts every server tree.
	root := res.Trace()
	if root == nil || len(root.Children) != 4 {
		t.Fatalf("client root = %+v", root)
	}
	if root.Cost != res.Info.Elapsed {
		t.Errorf("client root cost %v != elapsed %v", root.Cost, res.Info.Elapsed)
	}
	// Untraced runs carry no trace.
	plain, err := d.Client().Run(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Traces != nil || plain.Trace() != nil {
		t.Error("untraced run carries a trace")
	}
}

func TestRunTracedDeterministic(t *testing.T) {
	// Two identical deployments produce byte-identical traces for the
	// same (first) query.
	run := func() []byte {
		d, oid := deploy(t, 5000, 2)
		q := &query.Query{Root: query.Leaf(oid, query.OpGT, 50)}
		res, err := d.Client().Do(bg, prepared(q), client.Options{Force: plan.ForceScan, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace().Encode(false)
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Error("client trace not deterministic across identical runs")
	}
}

func TestServerStats(t *testing.T) {
	d, oid := deploy(t, 10000, 4)
	const queries = 3
	for i := 0; i < queries; i++ {
		q := &query.Query{Root: query.Leaf(oid, query.OpGT, float64(10*i))}
		if _, err := d.Client().Run(q, plan.ForceScan); err != nil {
			t.Fatal(err)
		}
	}
	perServer, merged, err := d.Client().ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(perServer) != 4 {
		t.Fatalf("perServer = %d", len(perServer))
	}
	// Each server saw each broadcast query; the merged view counts all of
	// them, and its cost distribution is the exact merge of the
	// per-server distributions.
	var sum int64
	for i, reg := range perServer {
		c := reg.Counter("query.count")
		if c != queries {
			t.Errorf("server %d query.count = %d, want %d", i, c, queries)
		}
		sum += c
	}
	if got := merged.Counter("query.count"); got != sum {
		t.Errorf("merged query.count = %d, want %d", got, sum)
	}
	d1 := merged.Dist("query.cost_ns")
	if d1 == nil || d1.Count() != uint64(sum) {
		t.Fatalf("merged cost distribution = %+v", d1)
	}
	want := telemetry.NewDistribution()
	for _, reg := range perServer {
		if pd := reg.Dist("query.cost_ns"); pd != nil {
			want.Merge(pd)
		}
	}
	if d1.Sum != want.Sum || d1.Count() != want.Count() {
		t.Errorf("merged distribution != manual merge: %+v vs %+v", d1, want)
	}
}

func TestExplainAnalyze(t *testing.T) {
	d, ids := vpicClient(t, 20000)
	q := &query.Query{Root: query.And(
		query.Leaf(ids["Energy"], query.OpGT, 2.0),
		query.Leaf(ids["x"], query.OpLT, 100),
	)}
	st := prepared(q)
	st.Analyze = true
	a, err := d.Client().Do(bg, st, client.Options{Force: plan.ForceScan})
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan == nil || a.Traces == nil {
		t.Fatal("analyze missing plan or traced result")
	}
	s := a.Explain
	for _, want := range []string{"est rows", "actual in", "force: scan", "modeled cost:"} {
		if !strings.Contains(s, want) {
			t.Errorf("analyze output missing %q:\n%s", want, s)
		}
	}
	// The first (most selective) condition was evaluated against real
	// elements: its actual in-count is positive and its out-count equals
	// the per-condition survivors, which cannot exceed in.
	first := a.Plan.Conjuncts[0].Conds[0]
	in, out := analyzedActual(t, a, 0, first)
	if in <= 0 || out < 0 || out > in {
		t.Errorf("first condition actuals: in=%d out=%d", in, out)
	}
	// Actual hits within the estimated bracket.
	lo, hi, err := d.Client().EstimateNHits(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Info.NHits < lo || a.Info.NHits > hi {
		t.Errorf("actual %d outside estimate [%d, %d]", a.Info.NHits, lo, hi)
	}
}

// TestServerEvents: the client can pull every server's flight-recorder
// ring over MsgEvents; each rank shows the queries it served, stamped
// with its own rank, and no wall-clock reading crosses the wire.
func TestServerEvents(t *testing.T) {
	d, oid := deploy(t, 10000, 2)
	const queries = 2
	for i := 0; i < queries; i++ {
		q := &query.Query{Root: query.Leaf(oid, query.OpGT, float64(10*i))}
		if _, err := d.Client().Run(q, plan.ForceScan); err != nil {
			t.Fatal(err)
		}
	}
	events, totals, err := d.Client().ServerEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || len(totals) != 2 {
		t.Fatalf("got %d event sets, %d totals, want 2", len(events), len(totals))
	}
	for srv := range events {
		if totals[srv] == 0 || len(events[srv]) == 0 {
			t.Fatalf("server %d ring is empty", srv)
		}
		var done int
		for i, e := range events[srv] {
			if e.WallNanos != 0 {
				t.Errorf("server %d event %d: wall clock %d on the wire", srv, i, e.WallNanos)
			}
			if e.Srv != int32(srv) {
				t.Errorf("server %d event %d: stamped srv=%d", srv, i, e.Srv)
			}
			if e.Kind == telemetry.EvQueryDone {
				done++
			}
		}
		if done != queries {
			t.Errorf("server %d recorded %d query-done events, want %d", srv, done, queries)
		}
	}
}
