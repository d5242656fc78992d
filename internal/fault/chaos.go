package fault

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/sched"
	"pdcquery/internal/selection"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/workload"
)

// The chaos harness: run a seeded fault plan against a small deployment
// and enforce the zero-wrong-answers invariant — every query either
// returns exactly the brute-force oracle's selection (the fault was
// masked by recovery, or missed the query) or fails with a recognized,
// typed error. A selection that differs from the oracle is a wrong
// answer and fails the run, naming the seed for replay.

// chaosForce is statement i's forcing under a seed, drawn over all five
// — auto included, so cost-based plans and the plan cache run under
// faults too. It is a pure function of (seed, i): a seed replays.
func chaosForce(seed uint64, i int) plan.Force {
	z := (seed<<8 + uint64(i) + 1) * 0x9e3779b97f4a7c15 // Fibonacci hashing: the high bits mix
	return plan.Force((z >> 32) % uint64(plan.ForceFull+1))
}

// ChaosOptions sizes the deployment and workload a plan runs against.
type ChaosOptions struct {
	// Servers is the deployment size (default 2).
	Servers int
	// Particles is the VPIC dataset size (default 6000).
	Particles int
	// Queries is the number of queries issued (default 8; the workload
	// cycles through the single-object query set).
	Queries int
	// Budget is the virtual-time deadline stamped on every query
	// (default 250ms): injected tier slowdowns blow it deterministically.
	Budget time.Duration
	// Redial enables the client's reconnection path (default true via
	// DefaultChaosOptions; without it every DropConn is terminal for the
	// query that hits it — still typed, never wrong).
	Redial bool
}

// DefaultChaosOptions returns the standard chaos configuration.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{Servers: 2, Particles: 6000, Queries: 8, Budget: 250 * time.Millisecond, Redial: true}
}

// ChaosResult summarizes one plan's run.
type ChaosResult struct {
	// Masked counts queries that returned the exact oracle selection.
	Masked int
	// Typed counts queries that failed with a recognized typed error.
	Typed int
	// Fired is the fault schedule that actually triggered.
	Fired []Event
	// Errors holds the typed errors, in query order (nil for successes).
	Errors []error
}

// typedError reports whether err belongs to the recognized terminal
// vocabulary: injected faults surfacing directly, client-level typed
// errors, scheduler verdicts, server error replies, and protocol decode
// failures from structurally damaged frames.
func typedError(err error) bool {
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
	for _, pat := range []string{
		"client: server ", // a server error reply (MsgError) — the fail-soft
		//                    path for garbled requests, injected storage
		//                    errors, deadline aborts, and shutdown races
		"fault: injected", // injected error surfacing directly
		"deadline",        // virtual-deadline abort
		"protocol:",       // decode failure of a corrupted reply frame
		"selection:",      // decode failure inside a corrupted selection
		"transport:",      // torn/corrupt frame surfaced by the transport
		"shutting down",   // request raced a server shutdown
		"connection",      // terminal connection error
		"unexpected EOF",  // truncated payload section
		"EOF",             // connection closed mid-conversation
	} {
		if strings.Contains(msg, pat) {
			return true
		}
	}
	return false
}

// chaosDeployment builds, imports, and oracles a small VPIC deployment.
// It returns the deployment (not yet started), the query workload, and
// the per-query oracle selections (computed before any fault seam is
// armed, on uncharged reads).
func chaosDeployment(opts ChaosOptions) (*core.Deployment, []*query.Query, []*selection.Selection, error) {
	d := core.NewDeployment(core.Options{
		Servers: opts.Servers,
		// Small regions so queries touch several extents per server.
		RegionBytes: 8 << 10,
		Redial:      opts.Redial,
		CallTimeout: 10 * time.Second,
	})
	c := d.CreateContainer("chaos")
	v := workload.GenerateVPIC(opts.Particles, 42)
	ids := make(map[string]object.ID)
	for _, name := range workload.VPICNames {
		o, err := d.ImportObject(c.ID, object.Property{
			Name: name, Type: dtype.Float32, Dims: []uint64{uint64(opts.Particles)},
		}, dtype.Bytes(v.Vars[name]))
		if err != nil {
			return nil, nil, nil, err
		}
		ids[name] = o.ID
	}
	base := workload.SingleObjectQueries(ids["Energy"])
	queries := make([]*query.Query, opts.Queries)
	for i := range queries {
		queries[i] = base[i%len(base)]
	}
	truths := make([]*selection.Selection, len(queries))
	for i, q := range queries {
		truth, err := d.GroundTruth(q)
		if err != nil {
			return nil, nil, nil, err
		}
		truths[i] = truth
	}
	return d, queries, truths, nil
}

// RunChaos executes plan against a fresh deployment and enforces the
// invariant. The returned error is non-nil only on an invariant
// violation (wrong answer, unrecognized error, or a hang would have
// tripped the call timeout) or a harness failure; injected faults that
// surface as typed errors are part of the expected outcome and land in
// ChaosResult.Typed.
func RunChaos(plan Plan, opts ChaosOptions) (*ChaosResult, error) {
	if opts.Servers <= 0 {
		opts.Servers = 2
	}
	if opts.Particles <= 0 {
		opts.Particles = 6000
	}
	if opts.Queries <= 0 {
		opts.Queries = 8
	}
	if opts.Budget <= 0 {
		opts.Budget = 250 * time.Millisecond
	}
	inj := NewInjector(plan)
	reg := telemetry.NewRegistry()
	inj.SetRegistry(reg)
	// The injector gets its own flight recorder so the completeness gate
	// below can audit it: nothing else records here, so the ring holds
	// exactly the EvFault sequence. Capacity is sized from the plan — a
	// scheduled event fires at most once, so len(Schedule) plus headroom
	// can never wrap, no matter how large the plan (a wrapped ring would
	// drop history and fail the audit spuriously).
	rec := telemetry.NewRecorder(2*len(plan.Schedule)+64, nil)
	inj.SetRecorder(rec)

	d, queries, truths, err := chaosDeployment(opts)
	if err != nil {
		return nil, fmt.Errorf("chaos seed %d: setup: %w", plan.Seed, err)
	}
	defer d.Close()
	// Arm the seams only after the oracle pass: ground truth must come
	// from clean reads, and oracle traffic must not advance seam ops.
	d.SetWrapConn(func(srv int, c transport.Conn) transport.Conn {
		return inj.WrapConn(fmt.Sprintf("conn.%d", srv), c)
	})
	d.Store().SetAccessHook(inj.StoreHook("store"))
	if err := d.Start(); err != nil {
		return nil, fmt.Errorf("chaos seed %d: start: %w", plan.Seed, err)
	}
	d.Client().SetQueryBudget(opts.Budget)

	res := &ChaosResult{Errors: make([]error, len(queries))}
	for i, q := range queries {
		out, err := d.Client().Run(q, chaosForce(plan.Seed, i))
		if err != nil {
			if !typedError(err) {
				return nil, fmt.Errorf("chaos seed %d: query %d: unrecognized error (invariant: typed or masked): %w", plan.Seed, i, err)
			}
			res.Typed++
			res.Errors[i] = err
			continue
		}
		if !bytes.Equal(out.Sel.Encode(), truths[i].Encode()) {
			return nil, fmt.Errorf("chaos seed %d: query %d: WRONG ANSWER: %d hits, oracle %d", plan.Seed, i, out.Sel.NHits, truths[i].NHits)
		}
		res.Masked++
	}
	res.Fired = inj.Fired()
	// Observability-completeness gate: the flight recorder is itself
	// oracle-verified. Every fault the injector fired must appear in the
	// ring as an EvFault event, in firing order, carrying the same kind,
	// seam target, and operation count — a recorder that drops or garbles
	// fault events fails the chaos run even when every answer was right.
	if err := auditFaultEvents(res.Fired, rec); err != nil {
		return nil, fmt.Errorf("chaos seed %d: %w", plan.Seed, err)
	}
	return res, nil
}

// auditFaultEvents checks the flight-recorder ring against the
// injector's fired list (the completeness half of the chaos invariant).
func auditFaultEvents(fired []Event, rec *telemetry.Recorder) error {
	events, total := rec.SnapshotTotal()
	if total > uint64(len(events)) {
		// The ring wrapped: history was overwritten, so a count mismatch
		// below would be a sizing bug in the harness, not a recorder that
		// dropped events. Name the real problem.
		return fmt.Errorf("audit ring wrapped: %d events recorded into a %d-slot ring; size the recorder from the plan", total, rec.Cap())
	}
	var evs []telemetry.Event
	for _, e := range events {
		if e.Kind == telemetry.EvFault {
			evs = append(evs, e)
		}
	}
	if len(evs) != len(fired) {
		return fmt.Errorf("observability gap: %d faults fired but %d flight-recorder events", len(fired), len(evs))
	}
	for i, f := range fired {
		e := evs[i]
		srv, dir := seamTarget(f.Seam)
		if e.Code != uint8(f.Kind) || e.Srv != srv || e.B != dir || e.A != int64(f.Count) {
			return fmt.Errorf("observability mismatch at fault %d: fired %s at %s op %d, recorded code=%d srv=%d dir=%d op=%d",
				i, f.Kind, f.Seam, f.Count, e.Code, e.Srv, e.B, e.A)
		}
	}
	return nil
}

// RunCrashRecovery exercises the persistence half of the fault story:
// a deployment serves a prefix of the workload, checkpoints (metadata +
// replicas + every extent, core.SaveCheckpoint), then "crashes". A
// second deployment restores from the checkpoint alone and must serve
// the full workload with byte-identical selections. seed only labels
// errors (the scenario itself is fully deterministic).
func RunCrashRecovery(seed uint64, opts ChaosOptions) error {
	if opts.Servers <= 0 {
		opts.Servers = 2
	}
	if opts.Particles <= 0 {
		opts.Particles = 6000
	}
	if opts.Queries <= 0 {
		opts.Queries = 8
	}
	d, queries, _, err := chaosDeployment(opts)
	if err != nil {
		return fmt.Errorf("crash seed %d: setup: %w", seed, err)
	}
	defer d.Close()
	if err := d.Start(); err != nil {
		return fmt.Errorf("crash seed %d: start: %w", seed, err)
	}
	baseline := make([][]byte, len(queries))
	for i, q := range queries {
		out, err := d.Client().Run(q, chaosForce(seed, i))
		if err != nil {
			return fmt.Errorf("crash seed %d: baseline query %d: %w", seed, i, err)
		}
		baseline[i] = out.Sel.Encode()
	}
	// Checkpoint mid-service (after the first half of the workload ran:
	// caches are warm, stashes populated — none of which may leak into
	// the checkpoint, which holds only the persistent state).
	var ckpt bytes.Buffer
	if err := d.SaveCheckpoint(&ckpt); err != nil {
		return fmt.Errorf("crash seed %d: checkpoint: %w", seed, err)
	}
	// Crash: the first deployment is gone. Recover a fresh one from the
	// checkpoint bytes alone and re-serve everything.
	d2, err := core.LoadCheckpoint(bytes.NewReader(ckpt.Bytes()), core.Options{
		Servers: opts.Servers,
	})
	if err != nil {
		return fmt.Errorf("crash seed %d: restore: %w", seed, err)
	}
	defer d2.Close()
	if err := d2.Start(); err != nil {
		return fmt.Errorf("crash seed %d: restart: %w", seed, err)
	}
	for i, q := range queries {
		out, err := d2.Client().Run(q, chaosForce(seed, i))
		if err != nil {
			return fmt.Errorf("crash seed %d: recovered query %d: %w", seed, i, err)
		}
		if !bytes.Equal(out.Sel.Encode(), baseline[i]) {
			return fmt.Errorf("crash seed %d: query %d: selection diverged after checkpoint recovery", seed, i)
		}
	}
	return nil
}
