package core

import (
	"strings"
	"testing"
	"time"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/sched"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/workload"
)

// oneRegionPerServer imports n = 2 regions' worth of VPIC over two
// servers, so every read a statement charges on a server is that
// server's last one — no later region boundary re-checks the budget.
func oneRegionPerServer(t *testing.T, workers int) *Deployment {
	t.Helper()
	const regionBytes, n = 8 << 10, 2 * (8 << 10) / 4
	d := NewDeployment(Options{Servers: 2, RegionBytes: regionBytes, Workers: workers})
	c := d.CreateContainer("vpic")
	v := workload.GenerateVPIC(n, 42)
	for _, name := range workload.VPICNames {
		if _, err := d.ImportObject(c.ID, object.Property{
			Name: name, Type: dtype.Float32, Dims: []uint64{n},
		}, dtype.Bytes(v.Vars[name])); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func countEvents(t *testing.T, d *Deployment, kind telemetry.EventKind) int {
	t.Helper()
	events, _, err := d.Client().ServerEvents()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, evs := range events {
		for _, e := range evs {
			if e.Kind == kind {
				n++
			}
		}
	}
	return n
}

// TestProjectionReadCrossesDeadline: the budget is a deadline on the
// reply. A hist statement whose evaluation fits the budget but whose
// projection read — the last thing charged, after the engine's final
// region-boundary check — crosses it must fail with the typed deadline
// error and an EvDeadline event, not be delivered late. (The text path
// used to re-check the budget before the projection.)
func TestProjectionReadCrossesDeadline(t *testing.T) {
	const where = " where Energy > 0.2"
	for _, workers := range []int{1, 4} {
		d := oneRegionPerServer(t, workers)
		cl := d.Client()
		// Warm Energy (the evaluation then runs at memory cost) and
		// measure both halves: the ids statement is the evaluation, the
		// hist statement on a cold deployment adds x's storage read.
		warm := func(d *Deployment) time.Duration {
			if _, err := d.Client().RunText("select count"+where, plan.ForceScan); err != nil {
				t.Fatal(err)
			}
			res, err := d.Client().RunText("select ids"+where, plan.ForceScan)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sel.NHits == 0 {
				t.Fatal("no hits: the projection would read nothing")
			}
			return res.Info.ServerMax.Total()
		}
		eval := warm(d)
		ref := oneRegionPerServer(t, workers)
		warm(ref)
		full, err := ref.Client().RunText("select hist(x, 8)"+where, plan.ForceScan)
		if err != nil {
			t.Fatal(err)
		}
		total := full.Info.ServerMax.Total()
		if total < 2*eval+100*time.Microsecond {
			t.Fatalf("workers %d: hist statement costs %v against %v of evaluation; the projection read does not dominate", workers, total, eval)
		}

		before := countEvents(t, d, telemetry.EvDeadline)
		cl.SetQueryBudget(eval + (total-eval)/2)
		res, err := cl.RunText("select hist(x, 8)"+where, plan.ForceScan)
		if err == nil || !strings.Contains(err.Error(), sched.ErrDeadline.Error()) {
			t.Fatalf("workers %d: budget %v between evaluation %v and total %v: result %+v, err %v; want the deadline error",
				workers, eval+(total-eval)/2, eval, total, res, err)
		}
		cl.SetQueryBudget(0)
		if got := countEvents(t, d, telemetry.EvDeadline); got <= before {
			t.Errorf("workers %d: %d EvDeadline events after the late projection, had %d before", workers, got, before)
		}
	}
}

// TestGatedStatementRunsEpilogue: a statement the tag gate answers
// empty was still admitted, charged a tag query and answered, so it
// goes through the one epilogue like any other — query.count,
// query.cost_ns and exactly one EvQueryDone per server per statement,
// gated or not. (The gated early return used to skip everything but
// query.count.)
func TestGatedStatementRunsEpilogue(t *testing.T) {
	d, ids := textDeployment(t, 5000)
	if err := d.Meta().AddTag(ids["Energy"], "run", "vpic-7"); err != nil {
		t.Fatal(err)
	}
	statements := []string{
		`select count where Energy > 2`,
		`select count where Energy > 2 and tag run = "vpic-7"`,
		`select count where Energy > 2 and tag run = "other"`,       // gated
		`select hist(x, 4) where Energy > 2 and tag run = "vpic-7"`, // gated: x is untagged
	}
	for i, text := range statements {
		res, err := d.Client().RunText(text, plan.ForceAuto)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if gated := i >= 2; gated && (res.Sel.NHits != 0 || res.Info.ServerMax.Total() == 0) {
			t.Errorf("%q: %d hits at server cost %v, want 0 hits and the tag query's charge", text, res.Sel.NHits, res.Info.ServerMax.Total())
		}
		want := (i + 1) * len(d.Servers())
		if got := countEvents(t, d, telemetry.EvQueryDone); got != want {
			t.Fatalf("after %q: %d EvQueryDone events, want %d (one per server per statement)", text, got, want)
		}
	}
	_, merged, err := d.Client().ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(statements) * len(d.Servers()))
	if got := merged.Counter("query.count"); got != want {
		t.Errorf("query.count = %d, want %d", got, want)
	}
	if dist := merged.Dist("query.cost_ns"); dist == nil || int64(dist.Count()) != want {
		t.Errorf("query.cost_ns observations = %v, want %d", dist, want)
	}
}
