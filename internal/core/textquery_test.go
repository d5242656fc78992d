package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/workload"
)

// textDeployment imports VPIC data with every access path available:
// region histograms, bitmap indexes, and a sorted replica on Energy —
// so the planner has real choices to make.
func textDeployment(t *testing.T, n int) (*Deployment, map[string]object.ID) {
	t.Helper()
	d := NewDeployment(Options{Servers: 4, RegionBytes: 8 << 10, BuildIndex: true})
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
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, ids
}

// lowerText resolves a statement against the deployment's metadata the
// same way client and server do.
func lowerText(t *testing.T, d *Deployment, text string) (*qlang.Query, *query.Query) {
	t.Helper()
	parsed, err := qlang.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	low, err := parsed.Lower(func(name string) (object.ID, bool) {
		o, ok := d.Meta().GetByName(name)
		if !ok {
			return 0, false
		}
		return o.ID, true
	})
	if err != nil {
		t.Fatalf("lower %q: %v", text, err)
	}
	return parsed, low.Query
}

// textCorpus is the planner-vs-oracle corpus: single-object, range,
// multi-object, disjunctive, and value-first shapes.
var textCorpus = []string{
	"select ids where Energy > 2",
	"select ids where Energy between 1 and 2.5",
	"select ids where Energy > 2 and x < 100",
	"select ids where Energy < 0.5 or Energy > 3",
	"select ids where 2 < Energy and Energy <= 3.5",
	"select ids where x >= 50 and x < 250 and Energy > 1",
}

// TestTextQueryPlannerMatchesOracle is the corpus property test: for
// every statement, the cost-chosen plan and every forcing produce a
// selection byte-identical to the brute-force ground truth. Plans may
// change cost, never results.
func TestTextQueryPlannerMatchesOracle(t *testing.T) {
	d, _ := textDeployment(t, 30000)
	for _, text := range textCorpus {
		_, q := lowerText(t, d, text)
		want, err := d.GroundTruth(q)
		if err != nil {
			t.Fatalf("truth %q: %v", text, err)
		}
		wantBytes := want.Encode()
		for _, force := range []plan.Force{plan.ForceAuto, plan.ForceScan, plan.ForceBitmap, plan.ForceSorted} {
			res, err := d.Client().RunText(text, force)
			if err != nil {
				t.Fatalf("%q force=%v: %v", text, force, err)
			}
			if !bytes.Equal(res.Sel.Encode(), wantBytes) {
				t.Errorf("%q force=%v: selection differs from oracle (%d hits, want %d)",
					text, force, res.Sel.NHits, want.NHits)
			}
		}
	}
}

func TestTextQueryCountProjection(t *testing.T) {
	d, _ := textDeployment(t, 20000)
	text := "select count where Energy > 2 and x < 150"
	_, q := lowerText(t, d, text)
	want, err := d.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Client().RunText(text, plan.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel.NHits != want.NHits {
		t.Errorf("count = %d, want %d", res.Sel.NHits, want.NHits)
	}
	if !res.Sel.CountOnly || res.Sel.Coords != nil {
		t.Error("count projection returned coordinates")
	}
	if res.Info.Elapsed.Total() <= 0 {
		t.Error("no modeled elapsed time")
	}
}

func TestTextQueryHistProjection(t *testing.T) {
	d, _ := textDeployment(t, 20000)
	text := "select hist(x, 32) where Energy > 1.5"
	_, q := lowerText(t, d, text)
	want, err := d.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	var scanEnc, bitmapEnc []byte
	var min, max float64
	for i, force := range []plan.Force{plan.ForceAuto, plan.ForceScan, plan.ForceBitmap, plan.ForceSorted} {
		res, err := d.Client().RunText(text, force)
		if err != nil {
			t.Fatalf("force=%v: %v", force, err)
		}
		if res.Hist == nil {
			t.Fatalf("force=%v: no histogram", force)
		}
		if res.Hist.Total != want.NHits {
			t.Errorf("force=%v: hist total %d, want %d", force, res.Hist.Total, want.NHits)
		}
		// The matching value multiset is identical for every forcing, so
		// the exact extrema must agree. (The merged grid itself can vary
		// with the per-server partition: the sorted replica splits work
		// differently than the base regions.)
		if i == 0 {
			min, max = res.Hist.Min, res.Hist.Max
		} else if res.Hist.Min != min || res.Hist.Max != max {
			t.Errorf("force=%v: extrema %g..%g, want %g..%g", force, res.Hist.Min, res.Hist.Max, min, max)
		}
		switch force {
		case plan.ForceScan:
			scanEnc = res.Hist.Encode()
		case plan.ForceBitmap:
			bitmapEnc = res.Hist.Encode()
		}
	}
	// Scan and bitmap run over the same per-server partition, so their
	// merged histograms are byte-identical.
	if !bytes.Equal(scanEnc, bitmapEnc) {
		t.Error("scan and bitmap forcings produced different histograms")
	}
}

// TestTextQueryHistShapeMismatch: a hist projection over an object of
// another shape than the statement's is a typed error from the members.
// A member used to read the shorter object at the longer one's
// coordinates and spin, and the call timed out.
func TestTextQueryHistShapeMismatch(t *testing.T) {
	d := NewDeployment(Options{Servers: 2, RegionBytes: 1 << 10, CallTimeout: 3 * time.Second})
	c := d.CreateContainer("c")
	for name, n := range map[string]int{"big": 4000, "small": 1000} {
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(i % 100)
		}
		if _, err := d.ImportObject(c.ID, object.Property{Name: name, Type: dtype.Float32, Dims: []uint64{uint64(n)}}, dtype.Bytes(vals)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if _, err := d.Client().RunText("select hist(small, 8) where big > 50", plan.ForceScan); err == nil || !strings.Contains(err.Error(), "bad statement") {
		t.Fatalf("hist of a shorter object: %v, want a bad-statement error", err)
	}
	res, err := d.Client().RunText("select hist(big, 8) where big > 50", plan.ForceScan)
	if err != nil || res.Hist == nil || res.Hist.Total != 40*49 {
		t.Fatalf("hist of the statement's own object: %+v, %v", res, err)
	}
}

func TestTextQueryTagGating(t *testing.T) {
	d, ids := textDeployment(t, 10000)
	if err := d.Meta().AddTag(ids["Energy"], "run", "vpic-7"); err != nil {
		t.Fatal(err)
	}
	base, err := d.Client().RunText("select count where Energy > 2", plan.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	// Matching tag: same answer as the untagged query.
	tagged, err := d.Client().RunText(`select count where Energy > 2 and tag run = "vpic-7"`, plan.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	if tagged.Sel.NHits != base.Sel.NHits {
		t.Errorf("matching tag: %d hits, want %d", tagged.Sel.NHits, base.Sel.NHits)
	}
	// Non-matching tag: the queried object is outside the tagged set.
	none, err := d.Client().RunText(`select count where Energy > 2 and tag run = "other"`, plan.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	if none.Sel.NHits != 0 {
		t.Errorf("non-matching tag: %d hits, want 0", none.Sel.NHits)
	}
}

func TestTextQueryExplain(t *testing.T) {
	d, _ := textDeployment(t, 10000)
	// Plain EXPLAIN: plan text, no execution.
	res, err := d.Client().RunText("explain select count where Energy > 2 and x < 100", plan.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel != nil {
		t.Error("plain EXPLAIN must not execute")
	}
	for _, want := range []string{"plan:", "conjunct 0:", "drive", "est rows", "modeled cost"} {
		if !strings.Contains(res.Explain, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, res.Explain)
		}
	}
	// EXPLAIN ANALYZE: executes with tracing and reports actual rows.
	res, err = d.Client().RunText("explain analyze select count where Energy > 2 and x < 100", plan.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel == nil {
		t.Fatal("EXPLAIN ANALYZE must execute")
	}
	if !strings.Contains(res.Explain, "actual in") {
		t.Errorf("EXPLAIN ANALYZE output missing actuals:\n%s", res.Explain)
	}
}

// planCacheCounts sums the fleet's plan-cache counters as /metrics
// exposes them.
func planCacheCounts(d *Deployment) (hits, misses int64) {
	for _, s := range d.Servers() {
		reg := s.Metrics()
		hits += reg.Counter("plan.cache_hits")
		misses += reg.Counter("plan.cache_misses")
	}
	return hits, misses
}

func TestTextQueryPlanCache(t *testing.T) {
	d, ids := textDeployment(t, 10000)
	text := "select count where Energy > 2"
	if _, err := d.Client().RunText(text, plan.ForceAuto); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := planCacheCounts(d)
	if misses0 == 0 {
		t.Fatal("first run must miss the plan cache")
	}
	if _, err := d.Client().RunText(text, plan.ForceAuto); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := planCacheCounts(d)
	if hits1 <= hits0 {
		t.Error("repeat run must hit the plan cache")
	}
	if misses1 != misses0 {
		t.Errorf("repeat run missed: %d -> %d", misses0, misses1)
	}
	// A metadata mutation bumps the generation and invalidates the plan.
	if err := d.Meta().AddTag(ids["Energy"], "k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Client().RunText(text, plan.ForceAuto); err != nil {
		t.Fatal(err)
	}
	if _, misses2 := planCacheCounts(d); misses2 <= misses1 {
		t.Error("metadata mutation must invalidate cached plans")
	}
}

// TestTextAndPreparedShareOnePlan: both spellings of a statement travel
// as one lowered statement and key one plan-cache entry, so the prepared
// twin of a text statement — and then its count form, and the text again
// — hits the plan the text built, on every server.
func TestTextAndPreparedShareOnePlan(t *testing.T) {
	d, _ := textDeployment(t, 10000)
	text := "select ids where Energy > 2 and x < 100"
	_, q := lowerText(t, d, text)
	if _, err := d.Client().RunText(text, plan.ForceAuto); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := planCacheCounts(d)
	if misses0 != int64(len(d.Servers())) {
		t.Fatalf("the text statement missed %d times, want once per server", misses0)
	}
	for _, run := range []func() (*client.Result, error){
		func() (*client.Result, error) { return d.Client().Run(q, plan.ForceAuto) },
		func() (*client.Result, error) { return d.Client().RunCount(q, plan.ForceAuto) },
		func() (*client.Result, error) { return d.Client().RunText(text, plan.ForceAuto) },
	} {
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := planCacheCounts(d)
	if misses != misses0 || hits-hits0 != 3*int64(len(d.Servers())) {
		t.Errorf("plan cache after the twins: %d hits, %d misses; want %d hits, %d misses",
			hits, misses, hits0+3*int64(len(d.Servers())), misses0)
	}
}

// TestPlanBuildDeterministic pins the planner's purity: rebuilding the
// same statement against the same metadata snapshot yields a deeply
// equal plan, every time, for every forcing.
func TestPlanBuildDeterministic(t *testing.T) {
	d, _ := textDeployment(t, 15000)
	for _, text := range textCorpus {
		_, q := lowerText(t, d, text)
		for _, force := range []plan.Force{plan.ForceAuto, plan.ForceScan, plan.ForceBitmap, plan.ForceSorted} {
			first, err := plan.Build(d.Meta(), q, force)
			if err != nil {
				t.Fatalf("%q force=%v: %v", text, force, err)
			}
			for i := 0; i < 5; i++ {
				again, err := plan.Build(d.Meta(), q, force)
				if err != nil {
					t.Fatalf("%q force=%v: %v", text, force, err)
				}
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("%q force=%v: plan differs across rebuilds", text, force)
				}
			}
		}
	}
}

// TestPlanCostBasedChoosesCheaper sanity-checks the cost model: the
// auto plan's modeled cost never exceeds any forcing's.
func TestPlanCostBasedChoosesCheaper(t *testing.T) {
	d, _ := textDeployment(t, 15000)
	for _, text := range textCorpus {
		_, q := lowerText(t, d, text)
		auto, err := plan.Build(d.Meta(), q, plan.ForceAuto)
		if err != nil {
			t.Fatal(err)
		}
		for _, force := range []plan.Force{plan.ForceScan, plan.ForceBitmap, plan.ForceSorted} {
			forced, err := plan.Build(d.Meta(), q, force)
			if err != nil {
				t.Fatal(err)
			}
			if auto.CostNs > forced.CostNs+1e-9 {
				t.Errorf("%q: auto cost %.0f ns exceeds force=%v cost %.0f ns",
					text, auto.CostNs, force, forced.CostNs)
			}
		}
	}
}

func TestTextQueryErrors(t *testing.T) {
	d, _ := textDeployment(t, 5000)
	for _, c := range []struct{ text, want string }{
		{"select count where Nope > 1", "unknown column"},
		{"select count where Energy >", "expected comparison value"},
		{"count where Energy > 1", `expected "select"`},
	} {
		if _, err := d.Client().RunText(c.text, plan.ForceAuto); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RunText(%q) error = %v, want containing %q", c.text, err, c.want)
		}
	}
}

// TestTextQueryBitmapReadsNoRawData pins §III-D4 on the text path: a
// statement resolved from the bitmap indexes whose window touches no
// candidate bin reads index extents and nothing else — on a cold cache,
// where a raw region read cannot hide as a cache hit. (Values used to be
// collected for a stash no text client could reach, re-reading every
// region the index path exists to avoid.)
func TestTextQueryBitmapReadsNoRawData(t *testing.T) {
	for _, text := range []string{
		"select count where Energy > 2",
		"select ids where Energy > 2",
	} {
		d, _ := textDeployment(t, 20000)
		res, err := d.Client().RunText(text, plan.ForceBitmap)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		st := res.Info.Stats
		if st.CandChecks != 0 {
			t.Fatalf("%q: window touches a candidate bin (%d checks); the test needs one that does not", text, st.CandChecks)
		}
		if st.IndexBytesRead == 0 || res.Sel.NHits == 0 {
			t.Fatalf("%q: read %d index bytes for %d hits; the test shows nothing", text, st.IndexBytesRead, res.Sel.NHits)
		}
		if st.StorageBytes != st.IndexBytesRead {
			t.Errorf("%q: read %d bytes from storage, %d of them index bins: raw region extents were read",
				text, st.StorageBytes, st.IndexBytesRead)
		}
	}
}
