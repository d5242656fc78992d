package fault

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"pdcquery/internal/cluster"
	"pdcquery/internal/core"
	"pdcquery/internal/telemetry"
)

// pdcServer is the pdc-server binary the process fleets spawn, built
// on first use and removed when the tests end.
var pdcServer core.ServerBuild

func TestMain(m *testing.M) {
	code := m.Run()
	pdcServer.Remove()
	os.Exit(code)
}

// runLocal runs plan on a fresh local cluster of opts.Servers members,
// placed by the plan's seed.
func runLocal(plan Plan, opts Options) (*Result, error) {
	opts = opts.withDefaults(true)
	l, err := cluster.StartLocal(cluster.LocalOptions{Members: opts.Servers, Seed: plan.Seed})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	return RunClusterChaos(plan, opts, localFleet{l})
}

// runProcesses runs plan on a fresh catalog process and opts.Servers
// pdc-server member processes, placed by the plan's seed.
func runProcesses(t *testing.T, plan Plan, opts Options) (*Result, error) {
	bin, err := pdcServer.Path()
	if err != nil {
		t.Skipf("cannot build pdc-server: %v", err)
	}
	opts = opts.withDefaults(true)
	pd, err := core.StartProcessDeployment(core.ProcessOptions{
		BinPath: bin, Members: opts.Servers, Seed: plan.Seed, Metrics: true,
	})
	if err != nil {
		return nil, err
	}
	defer pd.Close()
	return RunClusterChaos(plan, opts, pd)
}

// clusterSeeds is the cluster soak width: `make chaos` runs it with
// -cluster-seeds 32. The default keeps `go test ./...` reasonable
// while still exercising kill, join, and drain episodes.
var clusterSeeds = flag.Int("cluster-seeds", 6, "number of seeded membership-fault schedules TestClusterChaos runs")

// clusterPlan is the cluster soak's plan for a seed: one membership
// draw per statement slot.
func clusterPlan(seed uint64, opts Options) Plan {
	return RandomPlan(seed, PlanConfig{Members: opts.Servers, MaxOp: uint64(opts.Queries)})
}

// kinds counts fired events by kind.
func kinds(fired []Event) map[Kind]int {
	n := map[Kind]int{}
	for _, ev := range fired {
		n[ev.Kind]++
	}
	return n
}

// TestClusterChaos is the membership soak: for each seed, boot a local
// cluster, import the oracle dataset, and interleave the statements with
// the plan's member kills (racing the statement), joins, and drains.
// Zero wrong answers: every statement matches the oracle or is a typed
// error, every fault is audited against the catalog's recorder, and the
// settled cluster must hold all replicas and answer every statement.
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos skipped in -short")
	}
	opts := Options{}.withDefaults(true)
	for seed := uint64(1); seed <= uint64(*clusterSeeds); seed++ {
		res, err := runLocal(clusterPlan(seed, opts), opts)
		if err != nil {
			t.Fatalf("seed %d: %v (replay: runLocal(RandomPlan(%d, ...), ...))", seed, err, seed)
		}
		if res.Masked+res.Typed != opts.Queries {
			t.Fatalf("seed %d: %d masked + %d typed != %d queries", seed, res.Masked, res.Typed, opts.Queries)
		}
		n := kinds(res.Fired)
		t.Logf("seed %d: %d masked, %d typed; %d kills, %d joins, %d drains",
			seed, res.Masked, res.Typed, n[KillMember], n[JoinMember], n[DrainMember])
	}
}

// TestClusterChaosReplay: the same membership plan fires the same faults
// and gives the same outcome split.
func TestClusterChaosReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos skipped in -short")
	}
	opts := Options{Queries: 6}.withDefaults(true)
	plan := clusterPlan(3, opts)
	a, err := runLocal(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLocal(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Fired) == 0 || !reflect.DeepEqual(a.Fired, b.Fired) {
		t.Fatalf("replay fired %v, then %v", a.Fired, b.Fired)
	}
	if a.Masked != b.Masked || a.Typed != b.Typed {
		t.Fatalf("replay diverged: %d/%d vs %d/%d", a.Masked, a.Typed, b.Masked, b.Typed)
	}
}

// TestRandomPlanMembershipFeasible: over 1 000 seeds, a cluster schedule
// never takes the live members below the floor or above the ceiling,
// fires at most once per slot, and replays byte-identically.
func TestRandomPlanMembershipFeasible(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		cfg := PlanConfig{Members: 2 + int(seed%5), MaxOp: 12}
		p := RandomPlan(seed, cfg)
		if !reflect.DeepEqual(p, RandomPlan(seed, cfg)) {
			t.Fatalf("seed %d: plan differs on replay", seed)
		}
		alive, last := cfg.Members, uint64(0)
		for _, ev := range p.Schedule {
			if ev.Seam != memberSeam || ev.Count <= last || ev.Count > cfg.MaxOp {
				t.Fatalf("seed %d: event %+v out of slot order", seed, ev)
			}
			last = ev.Count
			switch ev.Kind {
			case KillMember, DrainMember:
				if ev.Arg >= uint64(alive) {
					t.Fatalf("seed %d: victim %d of %d live members", seed, ev.Arg, alive)
				}
				alive--
			case JoinMember:
				alive++
			default:
				t.Fatalf("seed %d: %s in a cluster schedule", seed, ev.Kind)
			}
			if alive < minMembers || alive > maxMembers {
				t.Fatalf("seed %d: schedule reaches %d live members", seed, alive)
			}
		}
	}
}

// TestAuditMissingMemberJoin: a catalog ring that lacks the EvMemberJoin
// of a fired join fails the audit as an observability gap, even though
// the injector's own ring is complete.
func TestAuditMissingMemberJoin(t *testing.T) {
	inj := NewInjector(Plan{Schedule: []Event{
		{Seam: memberSeam, Count: 1, Kind: JoinMember},
		{Seam: memberSeam, Count: 2, Kind: KillMember},
	}})
	inj.step(memberSeam)
	inj.step(memberSeam)
	targets := []int32{3, 1} // the joiner, then the victim
	cat := telemetry.NewRecorder(16, nil)
	cat.Record(telemetry.EvMemberJoin, 0, 0, 0, 1, 1) // boot
	_, boot := cat.SnapshotTotal()
	cat.Record(telemetry.EvMemberDown, uint8(telemetry.DownReasonConn), 1, 0, 3, telemetry.DownReasonConn)
	if err := auditFaultEvents(inj, cat, boot, targets); err == nil || !strings.Contains(err.Error(), "observability gap") {
		t.Fatalf("audit of a ring missing the join: %v", err)
	}
	cat = telemetry.NewRecorder(16, nil)
	cat.Record(telemetry.EvMemberJoin, 0, 3, 0, 2, 4)
	cat.Record(telemetry.EvMemberDown, uint8(telemetry.DownReasonConn), 1, 0, 3, telemetry.DownReasonConn)
	if err := auditFaultEvents(inj, cat, 0, targets); err != nil {
		t.Fatalf("audit of the complete ring: %v", err)
	}
}
