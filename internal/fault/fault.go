// Package fault is a seeded, deterministic fault-injection subsystem for
// three fault families: the client↔server transport (drop a connection,
// corrupt a delimited frame), the simio storage substrate (read errors,
// tier slowdowns that blow virtual-time deadlines) and cluster
// membership (kill, join or drain a member).
//
// Faults are driven by a Plan — a seed plus an explicit schedule of
// events, each pinned to the Nth operation at a named seam — so any
// failing run replays byte-for-byte: the same plan against the same
// workload injects the same faults at the same points. RandomPlan
// derives a schedule deterministically from a seed; pinned plans from
// failing seeds live in corpus_test.go as replayable regressions.
//
// The invariant the chaos harness enforces on top: an injected fault is
// either masked by recovery (redial + resend, failover, checkpoint
// restart) or surfaces as a typed error — never a wrong answer.
package fault

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pdcquery/internal/simio"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
)

// ErrInjected marks every error originating from the injector, so tests
// and the chaos harness can distinguish injected failures from organic
// bugs with errors.Is.
var ErrInjected = errors.New("fault: injected")

// Kind enumerates the injectable faults.
type Kind uint8

const (
	// DropConn closes the connection at the scheduled operation: a send
	// fails or a pending receive unblocks with an error, modeling a
	// server crash or network partition. Recovery is the client's redial
	// path; without it the call fails with a typed terminal error.
	DropConn Kind = iota
	// CorruptRequest garbles the payload of a client→server frame. The
	// frame stays delimited (the stream keeps its sync), so the server's
	// fail-soft decode path answers with an error frame: the query fails
	// typed, the session survives.
	CorruptRequest
	// CorruptReply truncates the payload of a server→client frame. The
	// client's decoder rejects it and the call errors. (The corruption
	// model is structural damage, not silent bit rot: the frame format
	// carries no checksum, so an undetectable flip is out of scope.)
	CorruptReply
	// StorageErr fails the scheduled storage read with ErrInjected: the
	// server's evaluation errors and the client receives a typed error
	// reply.
	StorageErr
	// SlowRead charges Arg extra nanoseconds of virtual storage time on
	// the scheduled read — a tier slowdown. Queries carrying a virtual
	// deadline blow it deterministically and fail with the scheduler's
	// deadline error; undeadlined queries just get slower.
	SlowRead
	// KillMember crashes a cluster member with no goodbye, racing the
	// slot's statement: the session fails over to the replicas.
	KillMember
	// JoinMember adds a member: the catalog rebalances and the joiner
	// pulls its regions before the new view commits.
	JoinMember
	// DrainMember retires a member gracefully through the catalog.
	DrainMember
)

// The seams the deployments step: "store" for every storage read and,
// in the cluster harness, "member" once per statement slot.
const (
	storeSeam  = "store"
	memberSeam = "member"
)

var kindNames = [...]string{"dropconn", "corrupt-request", "corrupt-reply", "storage-err", "slow-read",
	"kill-member", "join-member", "drain-member"}

// String names the kind for telemetry counters and logs.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event schedules one fault: Kind fires on the Count-th operation
// (1-based) at seam Seam. Seams are named by the wrapping call sites:
// WrapConn(seam) counts sends at seam+".send" and receives at
// seam+".recv"; StoreHook(seam) counts storage reads at seam; the
// cluster harness counts statement slots at "member".
type Event struct {
	Seam  string
	Count uint64
	Kind  Kind
	// Arg is kind-specific: for SlowRead, the injected delay in
	// nanoseconds; for KillMember and DrainMember, the victim's index
	// among the live members in ID order (mod their count). Unused
	// otherwise.
	Arg uint64
}

// Plan is a reproducible fault schedule. Seed identifies the plan (and,
// for RandomPlan, fully determines the schedule); Schedule is explicit
// so pinned regressions can state their faults directly.
type Plan struct {
	Seed     uint64
	Schedule []Event
}

// Injector applies a Plan: it counts operations per seam and fires the
// scheduled events. Safe for concurrent use; operation counting within
// one seam is strictly ordered, so a seam driven by a single goroutine
// (a connection direction, a serial evaluation) replays exactly.
type Injector struct {
	plan Plan
	reg  *telemetry.Registry // set at construction, never written again
	rec  *telemetry.Recorder

	mu    sync.Mutex
	ops   map[string]uint64
	fired []Event
}

// NewInjector returns an injector for plan with no faults fired yet.
// Every fired fault bumps its registry's "fault.injected" and
// "fault.injected.<kind>" and records an EvFault in its own flight
// recorder (Code=kind, Srv=server rank or -1, A=operation count at the
// seam, B=seam direction), which the chaos audit checks against Fired():
// nothing else records there, and a ring sized from the plan never wraps,
// since a scheduled event fires at most once.
func NewInjector(plan Plan) *Injector {
	return &Injector{plan: plan, ops: make(map[string]uint64),
		reg: telemetry.NewRegistry(), rec: telemetry.NewRecorder(2*len(plan.Schedule)+64, nil)}
}

// seamTarget decomposes a seam name into the recorder's (Srv, direction)
// pair: "conn.<rank>.send"/".recv" map to the rank and transport
// direction, "member" to the membership seam, anything else is the
// shared storage seam.
func seamTarget(seam string) (srv int32, dir int64) {
	var rank int32
	var d string
	switch n, _ := fmt.Sscanf(seam, "conn.%d.%s", &rank, &d); {
	case seam == memberSeam:
		return -1, telemetry.SeamMember
	case n == 2 && d == "send":
		return rank, telemetry.SeamSend
	case n == 2 && d == "recv":
		return rank, telemetry.SeamRecv
	}
	return -1, telemetry.SeamStore
}

// Fired returns the events that have fired so far, in firing order.
func (in *Injector) Fired() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.fired...)
}

// step advances seam's operation counter and returns the events
// scheduled for this operation (usually none).
func (in *Injector) step(seam string) []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops[seam]++
	n := in.ops[seam]
	var hits []Event
	for _, ev := range in.plan.Schedule {
		if ev.Seam == seam && ev.Count == n {
			hits = append(hits, ev)
			in.fired = append(in.fired, ev)
			in.reg.Add("fault.injected", 1)
			in.reg.Add("fault.injected."+ev.Kind.String(), 1)
			srv, dir := seamTarget(ev.Seam)
			in.rec.Record(telemetry.EvFault, uint8(ev.Kind), srv, 0, int64(n), dir)
		}
	}
	return hits
}

// injectedErr builds the typed error for a fired event.
func injectedErr(ev Event) error {
	return fmt.Errorf("%w: %s at %s op %d", ErrInjected, ev.Kind, ev.Seam, ev.Count)
}

// --- transport seam ---------------------------------------------------------

// faultConn wraps a client-side transport connection: Send carries
// client→server frames (seam+".send"), Recv server→client frames
// (seam+".recv").
type faultConn struct {
	inner transport.Conn
	inj   *Injector
	seam  string
}

// WrapConn wraps a connection with the injector under the given seam
// name (deployments use "conn.<rank>"). The wrapper is transparent until
// a scheduled event fires.
func (in *Injector) WrapConn(seam string, c transport.Conn) transport.Conn {
	return &faultConn{inner: c, inj: in, seam: seam}
}

func (c *faultConn) Send(m transport.Message) error {
	for _, ev := range c.inj.step(c.seam + ".send") {
		switch ev.Kind {
		case DropConn:
			// Close the underlying connection so the peer and the reader
			// observe the loss too — a drop must never strand a blocked
			// receive. The injected error is the one callers must see.
			_ = c.inner.Close()
			return injectedErr(ev)
		case CorruptRequest:
			p := make([]byte, len(m.Payload))
			for i, b := range m.Payload {
				p[i] = b ^ 0xA5
			}
			m.Payload = p
		}
	}
	return c.inner.Send(m)
}

func (c *faultConn) Recv() (transport.Message, error) {
	m, err := c.inner.Recv()
	if err != nil {
		return m, err
	}
	for _, ev := range c.inj.step(c.seam + ".recv") {
		switch ev.Kind {
		case DropConn:
			_ = c.inner.Close()
			return transport.Message{}, injectedErr(ev)
		case CorruptReply:
			m.Payload = m.Payload[:len(m.Payload)/2]
		}
	}
	return m, nil
}

func (c *faultConn) Close() error { return c.inner.Close() }

// --- storage seam -----------------------------------------------------------

// StoreHook returns a simio.AccessHook that injects StorageErr and
// SlowRead events scheduled at seam (deployments use "store", shared by
// all servers over the common substrate: reads are counted in arrival
// order, which is deterministic for serial evaluation).
func (in *Injector) StoreHook(seam string) simio.AccessHook {
	return func(op, key string, tier simio.Tier, bytes int64) (time.Duration, error) {
		var extra time.Duration
		for _, ev := range in.step(seam) {
			switch ev.Kind {
			case SlowRead:
				extra += time.Duration(ev.Arg)
			case StorageErr:
				return extra, injectedErr(ev)
			}
		}
		return extra, nil
	}
}

// --- plan generation --------------------------------------------------------

// PlanConfig bounds RandomPlan's schedule generation.
type PlanConfig struct {
	// Servers is the deployment size (seams conn.0 … conn.N-1).
	Servers int
	// Members, when positive, makes this a cluster config: membership
	// faults for a cluster that starts with Members members, at most one
	// per slot; Servers and Events are unused.
	Members int
	// Events is the number of faults to schedule (default 3).
	Events int
	// MaxOp bounds the operation index events attach to (default 24); in
	// a cluster config, the number of statement slots.
	MaxOp uint64
}

// slowReadNs is the delay a drawn SlowRead injects: 1s, far past any
// statement budget the harness sets.
const slowReadNs = uint64(time.Second)

// Bounds on the live members of a cluster schedule: kills and drains
// keep at least minMembers, so a settled R=2 cluster never loses the last
// copy of an extent, and joins stop at maxMembers.
const (
	minMembers = 2
	maxMembers = 6
)

// RandomPlan derives a fault schedule deterministically from seed: the
// same seed and config always produce the same plan. Kinds, seams, and
// operation indexes are drawn from a seeded PRNG.
func RandomPlan(seed uint64, cfg PlanConfig) Plan {
	if cfg.Events <= 0 {
		cfg.Events = 3
	}
	cfg.Servers = max(cfg.Servers, 1)
	cfg.MaxOp = cmp.Or(cfg.MaxOp, 24)
	rng := rand.New(rand.NewSource(int64(seed)))
	p := Plan{Seed: seed}
	if cfg.Members > 0 {
		return memberPlan(rng, p, cfg)
	}
	for i := 0; i < cfg.Events; i++ {
		kind := Kind(rng.Intn(int(KillMember))) // the transport and storage kinds
		ev := Event{Kind: kind, Count: 1 + uint64(rng.Int63n(int64(cfg.MaxOp)))}
		srv := rng.Intn(cfg.Servers)
		switch kind {
		case DropConn:
			ev.Seam = fmt.Sprintf("conn.%d.%s", srv, [2]string{"send", "recv"}[rng.Intn(2)])
		case CorruptRequest:
			ev.Seam = fmt.Sprintf("conn.%d.send", srv)
		case CorruptReply:
			ev.Seam = fmt.Sprintf("conn.%d.recv", srv)
		case StorageErr:
			ev.Seam = storeSeam
		case SlowRead:
			ev.Seam, ev.Arg = storeSeam, slowReadNs
		}
		p.Schedule = append(p.Schedule, ev)
	}
	return p
}

// memberPlan draws a cluster schedule: each statement slot draws none, a
// kill, a join or a drain, and keeps the fault only while the schedule
// stays within [minMembers, maxMembers] live members.
func memberPlan(rng *rand.Rand, p Plan, cfg PlanConfig) Plan {
	alive := cfg.Members
	for slot := uint64(1); slot <= cfg.MaxOp; slot++ {
		draw := rng.Intn(4) // none, kill, join, drain
		if draw == 0 {
			continue
		}
		ev := Event{Seam: memberSeam, Count: slot, Kind: KillMember + Kind(draw-1)}
		switch {
		case ev.Kind == JoinMember && alive < maxMembers:
			alive++
		case (ev.Kind == KillMember || ev.Kind == DrainMember) && alive > minMembers:
			ev.Arg = uint64(rng.Intn(alive))
			alive--
		default:
			continue
		}
		p.Schedule = append(p.Schedule, ev)
	}
	return p
}
