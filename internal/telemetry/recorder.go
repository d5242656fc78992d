package telemetry

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// The flight recorder: an always-on, preallocated ring buffer of
// fixed-size structured events. Every layer of the request path —
// admission, dispatch, per-region evaluation, the cache, the fault
// injector, the client's recovery machinery — records what it did as it
// happens, so when a query goes slow, gets rejected, or dies under
// chaos there is a bounded-size record of the moments around it.
//
// The design constraints, in order:
//
//   - Zero heap allocations on record. Record is on every statement's
//     path (the stmt.* rows of pdc-benchdiff count it), so the ring
//     is preallocated at construction, events are fixed-size structs of
//     integer fields, and recording is a locked slot write. A
//     testing.AllocsPerRun test pins 0 allocs/op.
//   - Deterministic timestamps. Events carry a virtual-clock reading
//     (VNanos, supplied by the caller from its vclock account) that is
//     byte-identical across replays of the same workload, plus an
//     optional wall reading taken through the Clock seam — zeroed on
//     the wire, exactly like Span.WallNanos.
//   - Bounded overhead. The ring overwrites its oldest entries; memory
//     is capacity × sizeof(Event) forever, and a recorder that nobody
//     reads costs one mutex acquisition per event.

// EventKind enumerates flight-recorder event types.
type EventKind uint8

const (
	// EvNone is the zero value (an unwritten ring slot).
	EvNone EventKind = iota
	// EvAdmit: a request passed admission control. A=request ID,
	// B=session backlog length after the push (reported by the queue
	// from inside its critical section).
	EvAdmit
	// EvReject: admission control answered busy. A=request ID,
	// B=session backlog length at rejection (the full depth).
	EvReject
	// EvDispatch: a dispatcher picked the request up. A=request ID,
	// B=queue wait in wall ns (0 under NoClock).
	EvDispatch
	// EvQueryDone: a query finished. A=total virtual cost ns, B=hits.
	EvQueryDone
	// EvPhase: one evaluation phase completed. Code=Phase* constant,
	// A=virtual ns spent, B=wall ns spent (0 under NoClock).
	EvPhase
	// EvRegionExec: one region's evaluation merged. A=region index,
	// B=hits in the region.
	EvRegionExec
	// EvCacheHit: region reads served from the cache. A=bytes, B=reads.
	// Cache events from pooled region tasks are aggregated per task and
	// recorded at the serial merge barrier (in region order), so their
	// sequence is worker-count-deterministic; serial read paths record
	// per operation with B=1.
	EvCacheHit
	// EvCacheMiss: region reads that went to storage. A=bytes read,
	// B=reads (aggregated like EvCacheHit).
	EvCacheMiss
	// EvCacheEvict: the cache evicted entries to make room. A=bytes
	// freed, B=entries (aggregated like EvCacheHit).
	EvCacheEvict
	// EvFault: the fault injector fired a scheduled event.
	// Code=fault kind, Srv=server rank (-1 for the storage seam),
	// A=operation count at the seam, B=seam direction (SeamSend,
	// SeamRecv, SeamStore, or SeamMember).
	EvFault
	// EvRedial: the client re-established a server connection.
	// Srv=server rank.
	EvRedial
	// EvBusy: the client received a busy pushback. Srv=server rank,
	// A=attempt number, B=backoff wait ns.
	EvBusy
	// EvDeadline: a request failed its deadline (virtual budget or wall
	// timeout). A=request ID.
	EvDeadline
	// EvError: a request was answered with an error frame. A=request ID.
	EvError
	// EvMemberJoin: a cluster member joined and the catalog committed a
	// view including it. Srv=member ID, A=committed epoch, B=member count.
	EvMemberJoin
	// EvMemberDown: the catalog removed a member (heartbeat timeout,
	// down report, or drain). Srv=member ID, A=committed epoch, B=reason
	// code (see DownReason* constants).
	EvMemberDown
	// EvTransfer: a member fetched a region's extents from a source
	// during rebalance. Srv=source member ID, A=regions transferred,
	// B=bytes transferred.
	EvTransfer
	// EvFailover: placement promoted this member to primary for regions
	// whose previous primary left the view. Srv=member ID, A=committed
	// epoch, B=regions promoted.
	EvFailover
	numEventKinds
)

// Reason codes for EvMemberDown.B.
const (
	DownReasonHeartbeat int64 = iota
	DownReasonReport
	DownReasonDrain
	DownReasonConn
)

// Seam direction codes for EvFault.B.
const (
	SeamSend int64 = iota
	SeamRecv
	SeamStore
	SeamMember
)

// String names the kind for the /debug/events dump and the CLI.
func (k EventKind) String() string {
	switch k {
	case EvNone:
		return "none"
	case EvAdmit:
		return "admit"
	case EvReject:
		return "reject"
	case EvDispatch:
		return "dispatch"
	case EvQueryDone:
		return "query-done"
	case EvPhase:
		return "phase"
	case EvRegionExec:
		return "region-exec"
	case EvCacheHit:
		return "cache-hit"
	case EvCacheMiss:
		return "cache-miss"
	case EvCacheEvict:
		return "cache-evict"
	case EvFault:
		return "fault"
	case EvRedial:
		return "redial"
	case EvBusy:
		return "busy"
	case EvDeadline:
		return "deadline"
	case EvError:
		return "error"
	case EvMemberJoin:
		return "member-join"
	case EvMemberDown:
		return "member-down"
	case EvTransfer:
		return "transfer"
	case EvFailover:
		return "failover"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Phase codes for EvPhase events and the phase latency distributions.
const (
	PhaseQueueWait = iota
	PhasePrune
	PhaseRegionExec
	PhaseMerge
	PhaseEncode
	NumPhases
)

// PhaseName returns the dotted metric suffix for a phase code.
func PhaseName(p int) string {
	switch p {
	case PhaseQueueWait:
		return "queue_wait"
	case PhasePrune:
		return "prune"
	case PhaseRegionExec:
		return "region_exec"
	case PhaseMerge:
		return "merge"
	case PhaseEncode:
		return "encode"
	}
	return fmt.Sprintf("phase%d", p)
}

// phaseMetrics holds every phase's distribution names, built once:
// "phase.<name>_vns" (virtual time) and "phase.<name>_ns" (wall time).
var phaseMetrics = func() (t [NumPhases]struct{ vns, ns string }) {
	for p := range t {
		t[p].vns = "phase." + PhaseName(p) + "_vns"
		t[p].ns = "phase." + PhaseName(p) + "_ns"
	}
	return t
}()

// PhaseVNanosMetric returns the registry name of phase p's virtual-time
// distribution.
func PhaseVNanosMetric(p int) string { return phaseMetrics[p].vns }

// PhaseWallMetric returns the registry name of phase p's wall-time
// distribution.
func PhaseWallMetric(p int) string { return phaseMetrics[p].ns }

// PhaseTimes accumulates one request's per-phase latency in both time
// bases: VNanos is deterministic virtual time (account deltas at phase
// barriers — identical at any worker count because barriers are where
// shadow accounts merge), WallNanos is wall clock through the Clock
// seam (zero under NoClock). The engine fills it during evaluation; the
// server observes it into the phase.* distributions. It is a fixed-size
// value type so a request's sink is a single stack-friendly allocation
// outside the hot roots.
type PhaseTimes struct {
	VNanos    [NumPhases]int64
	WallNanos [NumPhases]int64
}

// Add accumulates one phase measurement.
func (p *PhaseTimes) Add(phase int, vns, wallns int64) {
	if p == nil || phase < 0 || phase >= NumPhases {
		return
	}
	p.VNanos[phase] += vns
	p.WallNanos[phase] += wallns
}

// Event is one fixed-size flight-recorder entry. All fields are
// integers: the hot path never formats, boxes, or allocates to record.
type Event struct {
	// Seq is the global sequence number (total events recorded before
	// this one); it survives ring wrap, so gaps reveal overwritten
	// history.
	Seq uint64
	// VNanos is the deterministic virtual-time stamp supplied by the
	// recording site from its vclock account (0 when no account is in
	// scope).
	VNanos int64
	// WallNanos is the wall-clock stamp through the Clock seam (0 under
	// NoClock). Zeroed on the wire, like Span.WallNanos.
	WallNanos int64
	// Kind classifies the event; Code is a kind-specific sub-code
	// (phase index, fault kind).
	Kind EventKind
	Code uint8
	// Srv is the server rank the event belongs to (-1 when not tied to
	// a rank, e.g. storage-seam faults).
	Srv int32
	// A and B are kind-specific arguments (see the EventKind docs).
	A, B int64
}

// DefaultRecorderEvents is the ring capacity when a caller asks for
// zero: 256 events × 56 bytes keeps an idle server's recorder at ~14 KB.
const DefaultRecorderEvents = 256

// maxRecorderEvents bounds decoded and requested capacities.
const maxRecorderEvents = 1 << 20

// Recorder is a preallocated ring of Events. The zero-capacity
// constructor call, a nil *Recorder, and concurrent use are all safe;
// Record on a nil recorder is a no-op, so instrumented code needs no
// configuration to stay correct.
type Recorder struct {
	clock Clock // set at construction, never written again

	mu    sync.Mutex
	buf   []Event
	total uint64
}

// NewRecorder returns a recorder with a preallocated ring of n events
// (DefaultRecorderEvents when n <= 0, clamped at maxRecorderEvents).
// clock supplies the optional wall stamp; nil means NoClock and every
// WallNanos stays zero.
func NewRecorder(n int, clock Clock) *Recorder {
	if n <= 0 {
		n = DefaultRecorderEvents
	}
	if n > maxRecorderEvents {
		n = maxRecorderEvents
	}
	if clock == nil {
		clock = NoClock
	}
	return &Recorder{clock: clock, buf: make([]Event, n)}
}

// Record appends one event to the ring, overwriting the oldest entry
// when full. It performs no heap allocation: a testing.AllocsPerRun
// test pins 0 allocs/op.
func (r *Recorder) Record(kind EventKind, code uint8, srv int32, vns, a, b int64) {
	if r == nil {
		return
	}
	wall := r.clock.Now()
	r.mu.Lock()
	e := &r.buf[r.total%uint64(len(r.buf))]
	e.Seq = r.total
	e.VNanos = vns
	e.WallNanos = wall
	e.Kind = kind
	e.Code = code
	e.Srv = srv
	e.A = a
	e.B = b
	r.total++
	r.mu.Unlock()
}

// Total returns the number of events ever recorded (≥ the ring length).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Snapshot copies the ring's current contents, oldest first. The copy
// is consistent (taken under the lock) and detached: the recorder keeps
// recording while callers inspect it.
func (r *Recorder) Snapshot() []Event {
	events, _ := r.SnapshotTotal()
	return events
}

// SnapshotTotal returns the ring's current contents (oldest first) and
// the lifetime event count as one consistent pair, taken under a single
// lock acquisition — total minus len(events) is exactly the history the
// ring has dropped, which separate Snapshot()/Total() calls cannot
// guarantee while writers are active.
func (r *Recorder) SnapshotTotal() ([]Event, uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	count := r.total
	if count > n {
		count = n
	}
	out := make([]Event, 0, count)
	start := r.total - count
	for i := uint64(0); i < count; i++ {
		out = append(out, r.buf[(start+i)%n])
	}
	return out, r.total
}

// WriteEvents renders events as the /debug/events text format: a header
// line, then one line per event, oldest first.
func WriteEvents(w io.Writer, events []Event, total uint64) error {
	if _, err := fmt.Fprintf(w, "flight recorder: %d events (total recorded %d)\n", len(events), total); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "seq=%d v=%dns wall=%dns kind=%s code=%d srv=%d a=%d b=%d\n",
			e.Seq, e.VNanos, e.WallNanos, e.Kind, e.Code, e.Srv, e.A, e.B); err != nil {
			return err
		}
	}
	return nil
}

// --- wire encoding -----------------------------------------------------------

// eventWireSize is the fixed per-event encoding size: seq u64, vnanos
// u64, wall u64, kind u8, code u8, srv u32 (two's complement), a u64,
// b u64.
const eventWireSize = 8 + 8 + 8 + 1 + 1 + 4 + 8 + 8

// EncodeEvents serializes events with wall clocks zeroed (the same
// on-the-wire determinism rule as Span.Encode without includeWall).
// total rides along so readers can tell how much history the ring has
// dropped.
func EncodeEvents(events []Event, total uint64) []byte {
	buf := make([]byte, 0, 12+eventWireSize*len(events))
	buf = binary.LittleEndian.AppendUint64(buf, total)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(events)))
	for i := range events {
		e := &events[i]
		buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.VNanos))
		buf = binary.LittleEndian.AppendUint64(buf, 0) // WallNanos: zeroed on the wire
		buf = append(buf, byte(e.Kind), e.Code)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Srv))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.A))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.B))
	}
	return buf
}

// DecodeEvents parses an EncodeEvents buffer.
func DecodeEvents(b []byte) (events []Event, total uint64, err error) {
	if len(b) < 12 {
		return nil, 0, fmt.Errorf("telemetry: truncated events header")
	}
	total = binary.LittleEndian.Uint64(b)
	n := binary.LittleEndian.Uint32(b[8:])
	b = b[12:]
	if n > maxRecorderEvents {
		return nil, 0, fmt.Errorf("telemetry: %d events exceeds limit", n)
	}
	if uint64(len(b)) != uint64(n)*eventWireSize {
		return nil, 0, fmt.Errorf("telemetry: events payload %d bytes, want %d", len(b), uint64(n)*eventWireSize)
	}
	events = make([]Event, n)
	for i := range events {
		e := &events[i]
		e.Seq = binary.LittleEndian.Uint64(b)
		e.VNanos = int64(binary.LittleEndian.Uint64(b[8:]))
		// Bytes 16..24 are the wall-clock slot, always zero on the wire;
		// WallNanos stays zero on decode for the same determinism rule.
		e.Kind = EventKind(b[24])
		e.Code = b[25]
		e.Srv = int32(binary.LittleEndian.Uint32(b[26:]))
		e.A = int64(binary.LittleEndian.Uint64(b[30:]))
		e.B = int64(binary.LittleEndian.Uint64(b[38:]))
		b = b[eventWireSize:]
	}
	return events, total, nil
}
