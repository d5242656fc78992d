package fault

import (
	"flag"
	"testing"
)

// chaosSeeds is the soak width: `make chaos` runs the suite with
// -chaos-seeds 64 (or more). The default keeps `go test ./...` fast
// while still exercising every fault kind.
var chaosSeeds = flag.Int("chaos-seeds", 8, "number of seeded fault schedules TestChaosSoak runs")

// soakOptions is the single-process soak configuration: the defaults,
// with the client's redial path on.
func soakOptions() Options { return Options{Redial: true}.withDefaults(false) }

// TestChaosSoak is the randomized soak: for each seed, derive a fault
// plan, run it against a fresh deployment, and enforce zero wrong
// answers — every injected fault is masked by recovery or surfaces as a
// typed error. A failure names the seed; pin it in corpus_test.go.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	opts := soakOptions()
	for seed := uint64(1); seed <= uint64(*chaosSeeds); seed++ {
		plan := RandomPlan(seed, PlanConfig{Servers: opts.Servers, Events: 5, MaxOp: 12})
		res, err := RunChaos(plan, opts)
		if err != nil {
			t.Fatalf("seed %d: %v (replay: RandomPlan(%d, ...))", seed, err, seed)
		}
		if res.Masked+res.Typed != opts.Queries {
			t.Fatalf("seed %d: %d masked + %d typed != %d queries", seed, res.Masked, res.Typed, opts.Queries)
		}
		t.Logf("seed %d: %d masked, %d typed, %d faults fired", seed, res.Masked, res.Typed, len(res.Fired))
	}
}

// TestChaosCrashRecovery runs the checkpoint/restore half of the soak:
// a deployment serves, checkpoints, "crashes", and a restore from the
// checkpoint bytes must answer every statement exactly as the oracle
// does, as the first deployment did.
func TestChaosCrashRecovery(t *testing.T) {
	if err := RunCrashRecovery(1, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosReplayDeterminism: the same plan fires the same faults and
// produces the same outcome split — the property that makes a failing
// seed a usable replay.
func TestChaosReplayDeterminism(t *testing.T) {
	opts := soakOptions()
	opts.Queries = 6
	plan := RandomPlan(7, PlanConfig{Servers: opts.Servers, Events: 3})
	a, err := RunChaos(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Masked != b.Masked || a.Typed != b.Typed {
		t.Fatalf("replay diverged: %d/%d vs %d/%d", a.Masked, a.Typed, b.Masked, b.Typed)
	}
	if len(a.Fired) != len(b.Fired) {
		t.Fatalf("replay fired %d faults, then %d", len(a.Fired), len(b.Fired))
	}
}

// TestRandomPlanDeterministic: same seed, same plan — byte for byte.
func TestRandomPlanDeterministic(t *testing.T) {
	cfg := PlanConfig{Servers: 4, Events: 5}
	a := RandomPlan(99, cfg)
	b := RandomPlan(99, cfg)
	if len(a.Schedule) != len(b.Schedule) {
		t.Fatal("schedule lengths differ")
	}
	for i := range a.Schedule {
		if a.Schedule[i] != b.Schedule[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Schedule[i], b.Schedule[i])
		}
	}
}

// TestChaosDrawCoversEveryStatementShape: over a soak's worth of seeds
// the one draw reaches every forcing under both spellings and both
// projections, so no statement shape sits outside the oracle gate.
func TestChaosDrawCoversEveryStatementShape(t *testing.T) {
	seen := map[stmt]bool{}
	for seed := uint64(1); seed <= 64; seed++ {
		for i := 0; i < 12; i++ {
			s := draw(seed, i)
			s.i = 0
			seen[s] = true
		}
	}
	if len(seen) != 5*2*2 {
		t.Fatalf("the draw reached %d of the 20 (forcing, spelling, projection) shapes", len(seen))
	}
}
