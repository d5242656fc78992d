// Package telemetry is the observability layer of the reproduction: a
// dependency-free metrics registry whose latency/cost distributions are
// backed by internal/histogram (so per-server metrics merge *exactly*
// into deployment-wide views, the same way region histograms merge into
// the object-global histogram — Algorithm 1), and per-query trace spans
// that carry deterministic virtual-time costs plus region-level
// decisions (histogram-pruned / bitmap-probed / cache-hit / full-scan).
//
// Determinism rules:
//
//   - Everything derived from virtual time (span costs, counters,
//     distributions of vclock costs) is byte-for-byte reproducible:
//     encodings sort map keys and preserve attribute insertion order.
//   - Wall-clock time is opt-in and flows only through the Clock seam
//     below. This package is the one documented exemption from the
//     nondeterminism analyzer (see internal/lint): production code
//     elsewhere must not read the wall clock, and even here the default
//     is NoClock — a caller has to install Wall explicitly (cmd/pdc-server
//     does; tests and the simulation never do).
package telemetry

import "time"

// TraceID correlates the spans of one traced query across the client
// and every server. The client assigns it (deterministically, from its
// request counter) and threads it through transport.Message.
type TraceID uint64

// Clock is the monotonic wall-clock seam. Instrumented code never calls
// time.Now directly; it asks a Clock, and the Clock it gets in
// deterministic contexts is NoClock (which reads zero).
type Clock interface {
	// Now returns nanoseconds of wall time. A zero return means "no wall
	// clock available" and wall fields stay unset.
	Now() int64
}

type wallClock struct{}

func (wallClock) Now() int64 { return time.Now().UnixNano() }

// Sleeper is the wall-clock delay seam, the companion of Clock: code
// that must pace itself in real time (the client's busy-retry backoff)
// asks a Sleeper instead of calling time.Sleep, and deterministic
// contexts install NoSleep so tests never wait.
type Sleeper interface {
	Sleep(d time.Duration)
}

type wallSleeper struct{}

func (wallSleeper) Sleep(d time.Duration) { time.Sleep(d) }

// WallSleep really sleeps. Only user-facing binaries install it;
// everything under test uses NoSleep so runs stay fast and repeatable.
var WallSleep Sleeper = wallSleeper{}

type noSleep struct{}

func (noSleep) Sleep(time.Duration) {}

// NoSleep is the deterministic default: backoff waits are modeled in
// virtual time only and return immediately.
var NoSleep Sleeper = noSleep{}

// WallTimer is the seam's reusable wall-clock timer: code that bounds
// repeated waits in real time (the client's per-call timeout) arms one
// per wait instead of deriving a context with a deadline, which builds
// a new timer every time. The zero value is ready. Arm it only when
// stopped: Start and Stop alternate.
type WallTimer struct{ t *time.Timer }

// Start arms the timer to fire d from now and returns the channel it
// fires on.
func (w *WallTimer) Start(d time.Duration) <-chan time.Time {
	if w.t == nil {
		w.t = time.NewTimer(d)
	} else {
		w.t.Reset(d)
	}
	return w.t.C
}

// Stop disarms the timer. A fire nobody received is discarded, so the
// next Start never sees it.
func (w *WallTimer) Stop() {
	if w.t != nil && !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
}

// Wall reads the real wall clock. Only user-facing daemons install it
// (cmd/pdc-server's query log); everything under test uses NoClock so
// traces stay byte-identical across runs.
var Wall Clock = wallClock{}

type noClock struct{}

func (noClock) Now() int64 { return 0 }

// NoClock is the deterministic default: it always reads zero, so
// wall-clock fields are omitted everywhere it is used.
var NoClock Clock = noClock{}

// Frozen returns a Clock pinned to a fixed nanosecond reading, for tests
// that want non-zero but reproducible wall fields.
func Frozen(ns int64) Clock { return frozenClock(ns) }

type frozenClock int64

func (f frozenClock) Now() int64 { return int64(f) }
