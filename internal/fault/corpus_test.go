// The chaos seed corpus: every bug class this PR's harness exposed (or
// guards) is pinned here as an explicit, replayable fault plan. Unlike
// the randomized soak, these plans state their faults directly, so a
// regression names the scenario, not just a seed.
package fault

import (
	"errors"
	"testing"
	"time"

	"pdcquery/internal/client"
)

// runCorpusPlan runs one pinned plan with the standard options.
func runCorpusPlan(t *testing.T, plan Plan, opts Options) *Result {
	t.Helper()
	res, err := RunChaos(plan, opts)
	if err != nil {
		t.Fatalf("plan seed %d: %v", plan.Seed, err)
	}
	return res
}

// TestCorpusCorruptRequest: a garbled (still delimited) query frame must
// be rejected fail-soft by the server — typed error reply, session
// survives, and every other query still returns the oracle answer.
func TestCorpusCorruptRequest(t *testing.T) {
	opts := soakOptions()
	plan := Plan{Seed: 1001, Schedule: []Event{
		{Seam: "conn.0.send", Count: 2, Kind: CorruptRequest},
	}}
	res := runCorpusPlan(t, plan, opts)
	if res.Typed != 1 {
		t.Fatalf("want exactly 1 typed error, got %d (masked %d)", res.Typed, res.Masked)
	}
	if len(res.Fired) != 1 {
		t.Fatalf("want 1 fired fault, got %d", len(res.Fired))
	}
}

// TestCorpusCorruptReply: a truncated reply payload must fail decoding
// at the client as a typed error, never decode into a wrong selection.
func TestCorpusCorruptReply(t *testing.T) {
	opts := soakOptions()
	plan := Plan{Seed: 1002, Schedule: []Event{
		{Seam: "conn.1.recv", Count: 3, Kind: CorruptReply},
	}}
	res := runCorpusPlan(t, plan, opts)
	if res.Typed != 1 {
		t.Fatalf("want exactly 1 typed error, got %d (masked %d)", res.Typed, res.Masked)
	}
}

// TestCorpusDropConnMasked: with the redial path on, a dropped
// connection is recovered transparently — the request is resent on a
// fresh session and every query returns the oracle answer.
func TestCorpusDropConnMasked(t *testing.T) {
	opts := soakOptions()
	plan := Plan{Seed: 1003, Schedule: []Event{
		{Seam: "conn.0.send", Count: 2, Kind: DropConn},
		{Seam: "conn.1.recv", Count: 5, Kind: DropConn},
	}}
	res := runCorpusPlan(t, plan, opts)
	if res.Masked != opts.Queries {
		t.Fatalf("want all %d queries masked by redial, got %d masked / %d typed (errors: %v)",
			opts.Queries, res.Masked, res.Typed, res.Errors)
	}
	if len(res.Fired) != 2 {
		t.Fatalf("want both drops fired, got %d", len(res.Fired))
	}
}

// TestCorpusDropConnNoRedialTyped: the same drop without redial is a
// deterministic typed terminal error (ErrServerDown), not a hang.
func TestCorpusDropConnNoRedialTyped(t *testing.T) {
	opts := soakOptions()
	opts.Redial = false
	plan := Plan{Seed: 1004, Schedule: []Event{
		{Seam: "conn.0.send", Count: 2, Kind: DropConn},
	}}
	res := runCorpusPlan(t, plan, opts)
	if res.Typed < 1 {
		t.Fatalf("want at least 1 typed error, got %d", res.Typed)
	}
	found := false
	for _, err := range res.Errors {
		if err != nil && errors.Is(err, client.ErrServerDown) {
			found = true
		}
	}
	if !found {
		t.Fatalf("want an ErrServerDown in %v", res.Errors)
	}
}

// TestCorpusStorageErr: an injected storage read error must surface as
// a typed server error reply for the query that hit it.
func TestCorpusStorageErr(t *testing.T) {
	opts := soakOptions()
	plan := Plan{Seed: 1005, Schedule: []Event{
		{Seam: "store", Count: 1, Kind: StorageErr},
	}}
	res := runCorpusPlan(t, plan, opts)
	if res.Typed != 1 {
		t.Fatalf("want exactly 1 typed error, got %d (masked %d)", res.Typed, res.Masked)
	}
}

// TestCorpusSlowReadDeadline: a tier slowdown past the query budget
// must blow the virtual deadline deterministically — the delayed reply
// becomes a typed deadline error, not a wrong or late answer.
func TestCorpusSlowReadDeadline(t *testing.T) {
	opts := soakOptions()
	opts.Budget = 50 * time.Millisecond
	plan := Plan{Seed: 1006, Schedule: []Event{
		{Seam: "store", Count: 1, Kind: SlowRead, Arg: uint64(time.Hour)},
	}}
	res := runCorpusPlan(t, plan, opts)
	if res.Typed != 1 {
		t.Fatalf("want exactly 1 typed deadline error, got %d (masked %d, errors %v)", res.Typed, res.Masked, res.Errors)
	}
}

// TestCorpusMultiFault: several faults across seams in one plan — the
// split may vary by plan but the invariant may not.
func TestCorpusMultiFault(t *testing.T) {
	opts := soakOptions()
	plan := Plan{Seed: 1007, Schedule: []Event{
		{Seam: "conn.0.send", Count: 3, Kind: CorruptRequest},
		{Seam: "conn.1.send", Count: 5, Kind: DropConn},
		{Seam: "store", Count: 2, Kind: StorageErr},
	}}
	res := runCorpusPlan(t, plan, opts)
	if res.Masked+res.Typed != opts.Queries {
		t.Fatalf("outcome split %d+%d != %d", res.Masked, res.Typed, opts.Queries)
	}
}

// runClusterPlan runs one pinned membership plan on both fleets — a
// local cluster and real pdc-server processes — and insists on each that
// every statement was masked: a settled R=2 cluster loses no extent to
// one fault, and the session fails over rather than erring.
func runClusterPlan(t *testing.T, plan Plan, opts Options) {
	t.Helper()
	if testing.Short() {
		t.Skip("cluster chaos skipped in -short")
	}
	opts = opts.withDefaults(true)
	check := func(t *testing.T, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("plan seed %d: %v", plan.Seed, err)
		}
		if res.Masked != opts.Queries || len(res.Fired) != len(plan.Schedule) {
			t.Fatalf("want all %d statements masked and %d faults fired, got %d masked / %d typed, %d fired (errors: %v)",
				opts.Queries, len(plan.Schedule), res.Masked, res.Typed, len(res.Fired), res.Errors)
		}
	}
	t.Run("local", func(t *testing.T) {
		res, err := runLocal(plan, opts)
		check(t, res, err)
	})
	t.Run("process", func(t *testing.T) {
		res, err := runProcesses(t, plan, opts)
		check(t, res, err)
	})
}

// TestCorpusMemberKillMidStatement: a member crashes while the slot's
// statement is in flight. The session reports it, refreshes and retries
// against the promoted replicas; the catalog records the victim down.
func TestCorpusMemberKillMidStatement(t *testing.T) {
	runClusterPlan(t, Plan{Seed: 2001, Schedule: []Event{
		{Seam: memberSeam, Count: 2, Kind: KillMember, Arg: 1},
	}}, Options{})
}

// TestCorpusMemberDrain: a graceful drain hands the member's regions to
// the survivors before the view without it commits.
func TestCorpusMemberDrain(t *testing.T) {
	runClusterPlan(t, Plan{Seed: 2002, Schedule: []Event{
		{Seam: memberSeam, Count: 3, Kind: DrainMember, Arg: 0},
	}}, Options{})
}

// TestCorpusMemberJoinThenKill: a joiner pulls its regions, then is
// itself killed (Arg 3 of four live members in ID order): the regions it
// took over must still have their second copy.
func TestCorpusMemberJoinThenKill(t *testing.T) {
	runClusterPlan(t, Plan{Seed: 2003, Schedule: []Event{
		{Seam: memberSeam, Count: 1, Kind: JoinMember},
		{Seam: memberSeam, Count: 4, Kind: KillMember, Arg: 3},
	}}, Options{})
}

// TestCorpusMemberKillAtFloor: a two-member cluster — the floor
// RandomPlan keeps — loses one member. With R=2 both held every region,
// so the survivor answers everything alone; this is the last kill a
// schedule may draw without risking the only copy.
func TestCorpusMemberKillAtFloor(t *testing.T) {
	runClusterPlan(t, Plan{Seed: 2004, Schedule: []Event{
		{Seam: memberSeam, Count: 2, Kind: KillMember, Arg: 0},
	}}, Options{Servers: 2})
}

// TestCorpusMemberKillThenReplace: a member of three crashes while the
// slot's statement is in flight, and a replacement joins later and pulls
// its regions from the survivors.
func TestCorpusMemberKillThenReplace(t *testing.T) {
	runClusterPlan(t, Plan{Seed: 2005, Schedule: []Event{
		{Seam: memberSeam, Count: 2, Kind: KillMember, Arg: 0},
		{Seam: memberSeam, Count: 6, Kind: JoinMember},
	}}, Options{})
}
