package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(EvAdmit, 0, 0, 1, 2, 3) // must not panic
	if r.Total() != 0 {
		t.Fatalf("nil Total = %d", r.Total())
	}
	if r.Cap() != 0 {
		t.Fatalf("nil Cap = %d", r.Cap())
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil Snapshot = %v", s)
	}
}

func TestRecorderDefaultsAndClamp(t *testing.T) {
	if got := NewRecorder(0, nil).Cap(); got != DefaultRecorderEvents {
		t.Fatalf("Cap = %d, want %d", got, DefaultRecorderEvents)
	}
	if got := NewRecorder(maxRecorderEvents+1, nil).Cap(); got != maxRecorderEvents {
		t.Fatalf("Cap = %d, want clamp %d", got, maxRecorderEvents)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4, nil)
	for i := 0; i < 10; i++ {
		r.Record(EvRegionExec, 0, int32(i), int64(i*100), int64(i), int64(i*2))
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	for i, e := range snap {
		wantSeq := uint64(6 + i)
		if e.Seq != wantSeq {
			t.Fatalf("snap[%d].Seq = %d, want %d (oldest first)", i, e.Seq, wantSeq)
		}
		if e.Kind != EvRegionExec || e.VNanos != int64(wantSeq*100) ||
			e.Srv != int32(wantSeq) || e.A != int64(wantSeq) || e.B != int64(wantSeq*2) {
			t.Fatalf("snap[%d] = %+v", i, e)
		}
	}
}

// TestRecorderSnapshotTotal: the pair is taken under one lock, so a
// wrapped ring's dropped history is exactly total - len(events).
func TestRecorderSnapshotTotal(t *testing.T) {
	r := NewRecorder(4, nil)
	for i := 0; i < 7; i++ {
		r.Record(EvRegionExec, 0, 0, 0, int64(i), 0)
	}
	events, total := r.SnapshotTotal()
	if total != 7 || len(events) != 4 {
		t.Fatalf("SnapshotTotal = %d events, total %d; want 4, 7", len(events), total)
	}
	if dropped := total - uint64(len(events)); dropped != 3 {
		t.Fatalf("dropped history = %d, want 3", dropped)
	}
	var nilRec *Recorder
	if events, total := nilRec.SnapshotTotal(); events != nil || total != 0 {
		t.Fatal("nil recorder SnapshotTotal must be empty")
	}
}

func TestRecorderPartialRing(t *testing.T) {
	r := NewRecorder(8, nil)
	r.Record(EvAdmit, 0, 0, 0, 7, 1)
	r.Record(EvDispatch, 0, 0, 0, 7, 0)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(snap))
	}
	if snap[0].Kind != EvAdmit || snap[1].Kind != EvDispatch {
		t.Fatalf("order wrong: %v %v", snap[0].Kind, snap[1].Kind)
	}
}

func TestRecorderWallClock(t *testing.T) {
	r := NewRecorder(2, Frozen(42))
	r.Record(EvQueryDone, 0, 0, 9, 1, 0)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].WallNanos != 42 {
		t.Fatalf("WallNanos = %+v, want 42", snap)
	}

	r2 := NewRecorder(2, nil) // nil clock → NoClock
	r2.Record(EvQueryDone, 0, 0, 9, 1, 0)
	if got := r2.Snapshot()[0].WallNanos; got != 0 {
		t.Fatalf("NoClock WallNanos = %d, want 0", got)
	}
}

// TestRecorderZeroAlloc pins that recording an event performs zero heap
// allocations. Record is on every statement's path, so an allocation
// here would also move pdc-benchdiff's stmt.* rows.
func TestRecorderZeroAlloc(t *testing.T) {
	r := NewRecorder(64, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(EvCacheHit, 0, 3, 12345, 4096, 0)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v/op, want 0", allocs)
	}
	// With a live wall clock too: the Clock seam must not box.
	rw := NewRecorder(64, Frozen(7))
	allocs = testing.AllocsPerRun(1000, func() {
		rw.Record(EvPhase, PhasePrune, 0, 500, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("Record with clock allocates %v/op, want 0", allocs)
	}
}

func TestPhaseTimes(t *testing.T) {
	var p *PhaseTimes
	p.Add(PhasePrune, 1, 1) // nil-safe
	pt := &PhaseTimes{}
	pt.Add(PhasePrune, 100, 5)
	pt.Add(PhasePrune, 50, 2)
	pt.Add(PhaseMerge, 7, 0)
	pt.Add(-1, 999, 999)        // out of range: ignored
	pt.Add(NumPhases, 999, 999) // out of range: ignored
	if pt.VNanos[PhasePrune] != 150 || pt.WallNanos[PhasePrune] != 7 {
		t.Fatalf("prune = %d/%d", pt.VNanos[PhasePrune], pt.WallNanos[PhasePrune])
	}
	if pt.VNanos[PhaseMerge] != 7 {
		t.Fatalf("merge vns = %d", pt.VNanos[PhaseMerge])
	}
}

func TestEventKindStrings(t *testing.T) {
	seen := make(map[string]bool)
	for k := EvNone; k < numEventKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "EventKind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if got := EventKind(200).String(); got != "EventKind(200)" {
		t.Fatalf("unknown kind String = %q", got)
	}
	for p := 0; p < NumPhases; p++ {
		if PhaseName(p) == "" {
			t.Fatalf("phase %d has no name", p)
		}
	}
	if got := PhaseName(99); got != "phase99" {
		t.Fatalf("unknown phase name = %q", got)
	}
}

func TestEventsEncodeDecodeRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 5, VNanos: 1000, WallNanos: 999, Kind: EvFault, Code: 2, Srv: -1, A: 3, B: SeamStore},
		{Seq: 6, VNanos: 2000, WallNanos: 999, Kind: EvBusy, Srv: 7, A: 1, B: 4096},
	}
	buf := EncodeEvents(events, 42)
	got, total, err := DecodeEvents(buf)
	if err != nil {
		t.Fatalf("DecodeEvents: %v", err)
	}
	if total != 42 {
		t.Fatalf("total = %d, want 42", total)
	}
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	for i, e := range got {
		want := events[i]
		want.WallNanos = 0 // zeroed on the wire, like Span.WallNanos
		if e != want {
			t.Fatalf("event %d = %+v, want %+v", i, e, want)
		}
	}
	// Empty set round-trips too.
	got, total, err = DecodeEvents(EncodeEvents(nil, 0))
	if err != nil || total != 0 || len(got) != 0 {
		t.Fatalf("empty round trip: %v %d %v", got, total, err)
	}
}

func TestDecodeEventsRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeEvents(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	buf := EncodeEvents([]Event{{Seq: 1}}, 1)
	if _, _, err := DecodeEvents(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
	// Absurd count with no payload.
	bad := EncodeEvents(nil, 0)
	bad[8] = 0xff
	bad[9] = 0xff
	bad[10] = 0xff
	if _, _, err := DecodeEvents(bad); err == nil {
		t.Fatal("oversized count accepted")
	}
}

// TestDecodeEventsRefusesWallClock: the wall-clock slot is zero on the
// wire, so an event with anything else in it is refused, not read as
// the event whose encoding differs from its bytes.
func TestDecodeEventsRefusesWallClock(t *testing.T) {
	enc := EncodeEvents([]Event{{Seq: 5, VNanos: 1000, Kind: EvFault}}, 1)
	enc[12+16+3] = 1
	if _, _, err := DecodeEvents(enc); err == nil {
		t.Fatal("an event with a non-zero wall-clock slot was accepted")
	}
}

// FuzzDecodeEvents hardens the recorder-ring decoder: no payload panics
// it, and any payload it accepts re-encodes to exactly its bytes.
func FuzzDecodeEvents(f *testing.F) {
	f.Add(EncodeEvents([]Event{{Seq: 5, VNanos: 1000, Kind: EvFault, Code: 2, Srv: -1, A: 3, B: SeamStore}}, 42))
	f.Add(EncodeEvents(nil, 0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, total, err := DecodeEvents(data)
		if err != nil {
			return
		}
		if re := EncodeEvents(events, total); !bytes.Equal(re, data) {
			t.Fatalf("accepted % x, re-encoded % x", data, re)
		}
	})
}

func TestWriteEvents(t *testing.T) {
	var sb strings.Builder
	events := []Event{{Seq: 3, VNanos: 10, Kind: EvCacheMiss, A: 4096}}
	if err := WriteEvents(&sb, events, 9); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "flight recorder: 1 events (total recorded 9)") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "kind=cache-miss") || !strings.Contains(out, "seq=3") {
		t.Fatalf("missing event line: %q", out)
	}
}

func TestSampleRuntime(t *testing.T) {
	SampleRuntime(nil) // nil-safe
	reg := NewRegistry()
	SampleRuntime(reg)
	if reg.Gauge("runtime.goroutines") < 1 {
		t.Fatalf("runtime.goroutines = %v", reg.Gauge("runtime.goroutines"))
	}
	if reg.Gauge("runtime.heap_bytes") <= 0 {
		t.Fatalf("runtime.heap_bytes = %v", reg.Gauge("runtime.heap_bytes"))
	}
}

func TestDistributionQuantile(t *testing.T) {
	d := NewDistribution()
	if q := d.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	p50 := d.Quantile(0.5)
	if p50 < 40 || p50 > 60 {
		t.Fatalf("p50 = %v, want ≈50", p50)
	}
	p99 := d.Quantile(0.99)
	if p99 < 90 || p99 > 100 {
		t.Fatalf("p99 = %v, want ≈99", p99)
	}
	if q := d.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v, want min 1", q)
	}
	if q := d.Quantile(1); q != 100 {
		t.Fatalf("q1 = %v, want max 100", q)
	}
	// Quantiles of a merge reflect both inputs.
	d2 := NewDistribution()
	for i := 101; i <= 200; i++ {
		d2.Observe(float64(i))
	}
	d.Merge(d2)
	m50 := d.Quantile(0.5)
	if m50 < 80 || m50 > 120 {
		t.Fatalf("merged p50 = %v, want ≈100", m50)
	}
}
