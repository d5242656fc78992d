package fault

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/cluster"
	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/sched"
	"pdcquery/internal/selection"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/workload"
)

// The chaos harness: run a seeded fault plan against a small deployment
// and enforce the zero-wrong-answers invariant — every statement either
// returns exactly the brute-force oracle's answer (the fault was masked
// by recovery, or missed it) or fails with a typed error. Anything else
// fails the run, naming the seed. RunChaos, RunCrashRecovery and
// RunClusterChaos set up different deployments and share the statements,
// the check and the audit.

// Particles is the VPIC dataset size every chaos run imports.
const Particles = 6000

// Options sizes a chaos run; zero fields take withDefaults' values.
type Options struct {
	// Servers is the deployment size: single-process servers (default
	// 2) or the initial cluster members a fleet starts with (default 3).
	Servers int
	// Queries is the number of statements (default 8, cluster 12).
	Queries int
	// Budget is the virtual-time deadline stamped on every statement
	// (default 250ms), which injected tier slowdowns blow. Read only by
	// the single-process deployment: a cluster session has no such seam.
	Budget time.Duration
	// Redial enables the client's reconnection path (without it a
	// DropConn is terminal for its statement: typed, never wrong). Read
	// only by the single-process deployment: a session fails over instead.
	Redial bool
}

// withDefaults fills o's zero fields for a single-process or a cluster
// run — the one place chaos defaults live.
func (o Options) withDefaults(cluster bool) Options {
	servers, queries := 2, 8
	if cluster {
		servers, queries = 3, 12
	}
	o.Servers = cmp.Or(o.Servers, servers)
	o.Queries = cmp.Or(o.Queries, queries)
	o.Budget = cmp.Or(o.Budget, 250*time.Millisecond)
	return o
}

// Result summarizes one run.
type Result struct {
	// Masked counts statements answered exactly as the oracle answers;
	// Typed those that failed with a typed error.
	Masked, Typed int
	// Fired is the fault schedule that actually triggered.
	Fired []Event
	// Errors holds the typed errors in statement order (nil: masked).
	Errors []error
}

// Typed reports whether err is in the one error vocabulary a faulted
// statement may fail with: an injected fault surfacing directly, the
// client's and the scheduler's typed errors, a server's error reply (the
// fail-soft path for garbled requests, injected storage errors, deadline
// aborts and shutdown races) and a reply the client could not decode.
func Typed(err error) bool {
	if err == nil {
		return false
	}
	for _, target := range []error{
		ErrInjected,
		client.ErrServerDown, client.ErrTimeout, client.ErrClosed,
		sched.ErrBusy, sched.ErrDeadline, sched.ErrCanceled,
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	msg := err.Error()
	return strings.Contains(msg, "client: server ") || strings.Contains(msg, "protocol:")
}

// Oracle is the chaos workload's ground truth: the paper's fifteen
// single-object Energy windows and each one's brute-force selection.
type Oracle struct {
	queries []*query.Query
	truths  []*selection.Selection
}

// Source imports the VPIC dataset of Particles into a deployment sized by
// o (not started; small regions, so statements touch several extents per
// server) and computes the oracle from clean reads, before any fault seam
// is armed.
func Source(o core.Options) (*core.Deployment, *Oracle, error) {
	o.RegionBytes = 8 << 10
	d := core.NewDeployment(o)
	c := d.CreateContainer("chaos")
	v := workload.GenerateVPIC(Particles, 42)
	or := &Oracle{}
	for _, name := range workload.VPICNames {
		obj, err := d.ImportObject(c.ID, object.Property{
			Name: name, Type: dtype.Float32, Dims: []uint64{Particles},
		}, dtype.Bytes(v.Vars[name]))
		if err != nil {
			d.Close()
			return nil, nil, err
		}
		if name == "Energy" {
			or.queries = workload.SingleObjectQueries(obj.ID)
		}
	}
	for _, q := range or.queries {
		truth, err := d.GroundTruth(q)
		if err != nil {
			d.Close()
			return nil, nil, err
		}
		or.truths = append(or.truths, truth)
	}
	return d, or, nil
}

// stmt is statement i of a seeded run: its forcing, its spelling (text
// or prepared) and its projection (count or ids).
type stmt struct {
	i           int
	force       plan.Force
	text, count bool
}

func (s stmt) String() string {
	return fmt.Sprintf("statement %d (%s, text=%t, count=%t)", s.i, s.force, s.text, s.count)
}

// draw is one pure function of (seed, i), so a seed replays. The forcing
// is drawn over all five, auto included, so cost-based plans and the
// plan cache run under faults too.
func draw(seed uint64, i int) stmt {
	z := (seed<<8 + uint64(i) + 1) * 0x9e3779b97f4a7c15 // Fibonacci hashing: the high bits mix
	force := plan.Force((z >> 32) % uint64(plan.ForceFull+1))
	return stmt{i: i, force: force, text: z>>30&1 == 1, count: z>>31&1 == 1}
}

// Doer runs a statement: a *client.Client or a *cluster.Session.
type Doer interface {
	Do(ctx context.Context, st client.Statement, o client.Options) (*client.Result, error)
}

// statement draws statement i of seed's run, runs it through do, checks
// it and tallies it into res. It asks window i mod 15; the text spelling
// is the paper's chained range, which lowers to exactly the window's
// prepared tree, so one truth serves both spellings.
func (or *Oracle) statement(do Doer, seed uint64, i int, res *Result) error {
	s := draw(seed, i)
	q := or.queries[i%len(or.queries)]
	kind, proj := qlang.ProjIDs, "ids"
	if s.count {
		kind, proj = qlang.ProjCount, "count"
	}
	st := client.Prepared(q, kind)
	if s.text {
		st = client.Text(fmt.Sprintf("select %s where %g < Energy < %g", proj, q.Root.Left.Value, q.Root.Right.Value))
	}
	out, err := do.Do(context.Background(), st, client.Options{Force: s.force})
	typed, err := or.check(s, out, err)
	if err != nil {
		return err
	}
	res.Errors = append(res.Errors, typed)
	if typed != nil {
		res.Typed++
	} else {
		res.Masked++
	}
	return nil
}

// check is the one oracle check: ids must be byte-identical to the
// oracle's selection, a count must be count-only with the oracle's hit
// count, and an error must be in the vocabulary (returned as typed).
// Anything else is an invariant violation.
func (or *Oracle) check(s stmt, res *client.Result, err error) (typed, violation error) {
	if err != nil {
		if !Typed(err) {
			return nil, fmt.Errorf("%s: unrecognized error (invariant: typed or masked): %w", s, err)
		}
		return err, nil
	}
	truth := or.truths[s.i%len(or.truths)]
	if s.count && (!res.Sel.CountOnly || res.Sel.NHits != truth.NHits) ||
		!s.count && !bytes.Equal(res.Sel.Encode(), truth.Encode()) {
		return nil, fmt.Errorf("%s: WRONG ANSWER: %d hits (count-only %t), oracle %d", s, res.Sel.NHits, res.Sel.CountOnly, truth.NHits)
	}
	return nil, nil
}

// Pass runs statements 0..n-1 of seed's run against do. The error is
// non-nil only on an invariant violation; typed errors land in the
// Result, and clean requires there are none.
func (or *Oracle) Pass(do Doer, seed uint64, n int, clean bool) (*Result, error) {
	res := &Result{}
	for i := 0; i < n; i++ {
		if err := or.statement(do, seed, i, res); err != nil {
			return nil, err
		}
		if clean && res.Errors[i] != nil {
			return nil, fmt.Errorf("statement %d on a clean pass: %w", i, res.Errors[i])
		}
	}
	return res, nil
}

// nameSeed prefixes a failed run's error with the run and its seed.
func nameSeed(err *error, run string, seed uint64) {
	if *err != nil {
		*err = fmt.Errorf("%s seed %d: %w", run, seed, *err)
	}
}

// RunChaos executes plan against a fresh single-process deployment. The
// error is non-nil only on an invariant violation (wrong answer,
// unrecognized error — a hang trips the call timeout — or an audit gap)
// or a harness failure; typed errors land in Result.Typed.
func RunChaos(p Plan, opts Options) (_ *Result, err error) {
	defer nameSeed(&err, "chaos", p.Seed)
	opts = opts.withDefaults(false)
	inj := NewInjector(p)
	d, or, err := Source(core.Options{Servers: opts.Servers, Redial: opts.Redial, CallTimeout: 10 * time.Second})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer d.Close()
	d.SetWrapConn(func(srv int, c transport.Conn) transport.Conn {
		return inj.WrapConn(fmt.Sprintf("conn.%d", srv), c)
	})
	d.Store().SetAccessHook(inj.StoreHook(storeSeam))
	if err := d.Start(); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	d.Client().SetQueryBudget(opts.Budget)
	res, err := or.Pass(d.Client(), p.Seed, opts.Queries, false)
	if err != nil {
		return nil, err
	}
	res.Fired = inj.Fired()
	return res, auditFaultEvents(inj, nil, 0, nil)
}

// Fleet is a running cluster the membership harness drives: a local
// cluster in one process (localFleet) or a *core.ProcessDeployment of
// real pdc-server processes. Its methods are the membership faults'
// vocabulary: the live members in ID order, a crash with no goodbye, a
// join that returns the joiner's ID, a drain that waits for the member
// to exit, a wait for the committed view to hold n members, and a
// session on the catalog, paced as the fleet needs.
type Fleet interface {
	MemberIDs() []cluster.MemberID
	Crash(id cluster.MemberID) error
	Join() (cluster.MemberID, error)
	Drain(id cluster.MemberID, timeout time.Duration) error
	WaitMembers(n int, timeout time.Duration) error
	Session() (*cluster.Session, error)
}

// localFleet is a cluster.Local as a Fleet.
type localFleet struct{ *cluster.Local }

func (l localFleet) Join() (cluster.MemberID, error) {
	m, err := l.AddMember()
	if err != nil {
		return -1, err
	}
	return m.ID(), nil
}

// Session is patient: kills commit a new view in member/catalog
// goroutines, so retries pace on wall time instead of spinning through
// their attempt budget before failover lands.
func (l localFleet) Session() (*cluster.Session, error) {
	return cluster.DialSession(cluster.SessionOptions{
		Net:         l.Net(),
		CatalogAddr: l.CatalogAddr(),
		MaxAttempts: 40,
		RetryWait:   2 * time.Millisecond,
		Sleeper:     telemetry.WallSleep,
		Clock:       telemetry.Wall,
	})
}

// RunClusterChaos executes plan against fleet f, freshly started and
// empty, after importing the oracle dataset through it and verifying
// every replica. Each statement slot steps the member seam and fires
// what it schedules — a kill (no goodbye, racing the slot's statement
// from a goroutine), a join (rebalance with extent transfer) or a drain
// — runs the statement, and lets the fault settle before the next slot:
// the schedule is a sequence of single-failure episodes, as the
// no-data-loss argument for the cluster's default R=2 needs. The settled cluster must then hold every
// replica its placement assigns and answer every statement exactly, and
// the catalog must have recorded every membership fault: a local
// catalog in its ring, a catalog process in its /metrics
// (auditProcesses). The error is non-nil only on an invariant violation
// or a harness failure.
func RunClusterChaos(p Plan, opts Options, f Fleet) (_ *Result, err error) {
	defer nameSeed(&err, "cluster chaos", p.Seed)
	opts = opts.withDefaults(true)
	inj := NewInjector(p)
	d, or, err := Source(core.Options{Servers: 2})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer d.Close()
	s, err := f.Session()
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	defer s.Close()
	if err := s.Import(d); err != nil {
		return nil, fmt.Errorf("import: %w", err)
	}
	if err := s.Verify(d); err != nil {
		return nil, fmt.Errorf("verify after import: %w", err)
	}
	var cat *telemetry.Recorder
	var boot uint64
	if l, ok := f.(localFleet); ok {
		cat = l.Catalog().Recorder()
		_, boot = cat.SnapshotTotal()
	}
	res, targets := &Result{}, []int32(nil)
	initial := len(f.MemberIDs())
	alive, joiner := initial, cluster.MemberID(-1)
	var kills sync.WaitGroup
	defer kills.Wait() // no crash outlives the run, even a failed one
	for i := 0; i < opts.Queries; i++ {
		for _, ev := range inj.step(memberSeam) {
			ids := f.MemberIDs()
			victim := ids[ev.Arg%uint64(len(ids))]
			switch ev.Kind {
			case KillMember:
				kills.Add(1)
				go func() {
					defer kills.Done()
					_ = f.Crash(victim) // a victim already gone fails the settle below
				}()
				alive--
			case JoinMember:
				id, err := f.Join()
				if err != nil {
					return nil, fmt.Errorf("join: %w", err)
				}
				victim, joiner = id, id
				alive++
			case DrainMember:
				if err := f.Drain(victim, 10*time.Second); err != nil {
					return nil, fmt.Errorf("drain member %d: %w", victim, err)
				}
				alive--
			}
			targets = append(targets, int32(victim))
		}
		if err := or.statement(s, p.Seed, i, res); err != nil {
			return nil, err
		}
		kills.Wait()
		if err := f.WaitMembers(alive, 10*time.Second); err != nil {
			return nil, fmt.Errorf("settle after statement %d: %w", i, err)
		}
	}
	res.Fired = inj.Fired()
	s.Invalidate()
	if err := s.Verify(d); err != nil {
		return nil, fmt.Errorf("settled verify: %w", err)
	}
	if _, err := or.Pass(s, p.Seed, opts.Queries, true); err != nil {
		return nil, fmt.Errorf("settled: %w", err)
	}
	if err := auditFaultEvents(inj, cat, boot, targets); err != nil {
		return nil, err
	}
	if pd, ok := f.(*core.ProcessDeployment); ok {
		return res, auditProcesses(pd, s, res.Fired, initial, joiner)
	}
	return res, nil
}

// auditProcesses is the catalog half of the audit on processes, whose
// catalog ring lives in another process: its /metrics must count the
// kills (cluster_member_down), drains (cluster_drains) and initial
// members plus joins (cluster_member_join) exactly; a heartbeat expiry
// of a live member breaks this, and is a defect. The catalog's, a
// surviving initial member's and a live joiner's /metrics must parse
// strictly and carry their series, and the survivor must answer
// /debug/pprof.
func auditProcesses(pd *core.ProcessDeployment, s *cluster.Session, fired []Event, initial int, joiner cluster.MemberID) error {
	n := map[Kind]int64{}
	for _, ev := range fired {
		n[ev.Kind]++
	}
	v, err := s.FetchView()
	if err != nil {
		return err
	}
	body, err := scrapeMetrics("catalog", pd.MetricsAddr("catalog"),
		fmt.Sprintf("cluster_members %d", len(v.Members)), "cluster_rebalances", "cluster_imports 1")
	if err != nil {
		return err
	}
	for name, want := range map[string]int64{
		"cluster_member_down": n[KillMember],
		"cluster_drains":      n[DrainMember],
		"cluster_member_join": int64(initial) + n[JoinMember],
	} {
		// A counter never incremented is absent, which reads as 0.
		line := fmt.Sprintf("\n%s %d\n", name, want)
		if !strings.Contains(body, line) && (want != 0 || strings.Contains(body, "\n"+name+" ")) {
			return fmt.Errorf("observability mismatch: no %q in the catalog's /metrics after %d kills, %d drains and %d joins on %d members",
				strings.TrimSpace(line), n[KillMember], n[DrainMember], n[JoinMember], initial)
		}
	}
	addr := func(id cluster.MemberID) string {
		mi, _ := v.Member(id)
		return pd.MetricsAddr(mi.Addr)
	}
	survivor := v.Members[0].ID // the lowest live ID: an initial member in every pinned plan
	if _, err := scrapeMetrics("survivor", addr(survivor), "ingest_extents", "cluster_epoch", "query_count"); err != nil {
		return err
	}
	if _, ok := v.Member(joiner); ok {
		if _, err := scrapeMetrics("joiner", addr(joiner), "cluster_transfers", "cluster_transfer_bytes", "cluster_epoch"); err != nil {
			return err
		}
	}
	if out, err := core.Scrape(addr(survivor), "/debug/pprof/cmdline"); err != nil || out == "" {
		return fmt.Errorf("survivor /debug/pprof/cmdline: %q, %v", out, err)
	}
	return nil
}

// scrapeMetrics fetches one process's /metrics, insists the exposition
// parses strictly and carries every wanted series, and returns it.
func scrapeMetrics(who, addr string, wants ...string) (string, error) {
	if addr == "" {
		return "", fmt.Errorf("%s has no metrics address", who)
	}
	body, err := core.Scrape(addr, "/metrics")
	if err != nil {
		return "", err
	}
	if err := telemetry.CheckPrometheusText([]byte(body)); err != nil {
		return "", fmt.Errorf("%s /metrics failed strict parse: %w", who, err)
	}
	for _, want := range wants {
		if !strings.Contains(body, want) {
			return "", fmt.Errorf("%s /metrics missing series %q", who, want)
		}
	}
	return body, nil
}

// auditFaultEvents is the completeness half of the invariant: a recorder
// that drops or garbles a fault fails the run even when every answer was
// right. Every fault inj fired must be counted in its registry and be in
// its ring as an EvFault, in order, with the same kind, seam target and
// operation count. With a catalog ring cat (its events from sequence
// number boot on), every fired membership fault must also be there, in
// order, naming its target: a kill as EvMemberDown of the victim by
// report or broken connection, a drain as EvMemberDown by drain, a join
// as EvMemberJoin of the joiner.
func auditFaultEvents(inj *Injector, cat *telemetry.Recorder, boot uint64, targets []int32) error {
	fired := inj.Fired()
	evs, err := recorded(inj.rec, 0, telemetry.EvFault)
	if err != nil {
		return err
	}
	if len(evs) != len(fired) || inj.reg.Counter("fault.injected") != int64(len(fired)) {
		return fmt.Errorf("observability gap: %d faults fired but %d flight-recorder events, %d counted",
			len(fired), len(evs), inj.reg.Counter("fault.injected"))
	}
	var members []Event
	for i, f := range fired {
		e := evs[i]
		srv, dir := seamTarget(f.Seam)
		if e.Code != uint8(f.Kind) || e.Srv != srv || e.B != dir || e.A != int64(f.Count) {
			return fmt.Errorf("observability mismatch at fault %d: fired %s at %s op %d, recorded code=%d srv=%d dir=%d op=%d",
				i, f.Kind, f.Seam, f.Count, e.Code, e.Srv, e.B, e.A)
		}
		if f.Seam == memberSeam {
			members = append(members, f)
		}
	}
	if cat == nil {
		return nil
	}
	if evs, err = recorded(cat, boot, telemetry.EvMemberDown, telemetry.EvMemberJoin); err != nil {
		return err
	}
	if len(evs) != len(members) {
		return fmt.Errorf("observability gap: %d membership faults fired but %d catalog member events", len(members), len(evs))
	}
	for i, f := range members {
		e, want := evs[i], []int64{telemetry.DownReasonReport, telemetry.DownReasonConn}
		if f.Kind == DrainMember {
			want = []int64{telemetry.DownReasonDrain}
		}
		if e.Srv != targets[i] || (f.Kind == JoinMember) != (e.Kind == telemetry.EvMemberJoin) ||
			e.Kind == telemetry.EvMemberDown && !slices.Contains(want, e.B) {
			return fmt.Errorf("observability mismatch at membership fault %d: fired %s of member %d at slot %d, catalog recorded %s of member %d (B=%d)",
				i, f.Kind, targets[i], f.Count, e.Kind, e.Srv, e.B)
		}
	}
	return nil
}

// recorded returns rec's events of the given kinds from sequence number
// boot on. A ring that wrapped over them is a sizing error in the
// harness, not a recorder that dropped events, and is named as such.
func recorded(rec *telemetry.Recorder, boot uint64, kinds ...telemetry.EventKind) ([]telemetry.Event, error) {
	events, total := rec.SnapshotTotal()
	if total-boot > uint64(len(events)) {
		return nil, fmt.Errorf("audit ring wrapped: %d events recorded into a %d-slot ring", total-boot, rec.Cap())
	}
	var out []telemetry.Event
	for _, e := range events {
		if e.Seq >= boot && slices.Contains(kinds, e.Kind) {
			out = append(out, e)
		}
	}
	return out, nil
}

// RunCrashRecovery exercises the persistence half of the fault story: a
// deployment serves the workload, checkpoints (core.SaveCheckpoint) and
// "crashes"; a second deployment restores from the checkpoint bytes alone
// and serves it again. Both passes must answer every statement exactly.
// seed draws the statements.
func RunCrashRecovery(seed uint64, opts Options) (err error) {
	defer nameSeed(&err, "crash", seed)
	opts = opts.withDefaults(false)
	d, or, err := Source(core.Options{Servers: opts.Servers, Redial: opts.Redial, CallTimeout: 10 * time.Second})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		return fmt.Errorf("start: %w", err)
	}
	if _, err := or.Pass(d.Client(), seed, opts.Queries, true); err != nil {
		return fmt.Errorf("before checkpoint: %w", err)
	}
	// Caches are warm and stashes populated now; none of it may leak into
	// the checkpoint, which holds only the persistent state.
	var ckpt bytes.Buffer
	if err := d.SaveCheckpoint(&ckpt); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	d2, err := core.LoadCheckpoint(bytes.NewReader(ckpt.Bytes()), core.Options{Servers: opts.Servers})
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	defer d2.Close()
	if err := d2.Start(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if _, err := or.Pass(d2.Client(), seed, opts.Queries, true); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	return nil
}
