// Tests for the server-side flight recorder and SLO accounting: the
// MsgEvents protocol surface, replay determinism of the recorded event
// stream, strict Prometheus exposition validity, the phase latency
// distributions, and the slow-query log.
package server

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
)

// recorderRun drives a fixed three-query workload on a fresh serial
// server and returns the server plus its flight-recorder snapshot.
func recorderRun(t *testing.T) (*Server, []telemetry.Event, uint64) {
	t.Helper()
	srv, conn, oid := testServer(t, 0, 1)
	for i := 0; i < 3; i++ {
		q := &query.Query{Root: query.Leaf(oid, query.OpGE, float64(i))}
		if reply := call(t, conn, transport.Message{
			Type:    MsgQuery,
			Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(q, qlang.ProjCount)),
		}); reply.Type != MsgQueryResult {
			t.Fatalf("query %d failed: %s", i, reply.Payload)
		}
	}
	rec := srv.Recorder()
	return srv, rec.Snapshot(), rec.Total()
}

// TestRecorderReplayDeterminism pins the flight recorder's determinism
// contract: an identical workload on an identical serial server yields
// a byte-identical encoded event stream — vclock timestamps included.
func TestRecorderReplayDeterminism(t *testing.T) {
	_, evA, totA := recorderRun(t)
	_, evB, totB := recorderRun(t)
	a, b := telemetry.EncodeEvents(evA, totA), telemetry.EncodeEvents(evB, totB)
	if !bytes.Equal(a, b) {
		var ra, rb strings.Builder
		telemetry.WriteEvents(&ra, evA, totA)
		telemetry.WriteEvents(&rb, evB, totB)
		t.Fatalf("event stream not deterministic across identical runs:\n%s\nvs\n%s", ra.String(), rb.String())
	}
}

// TestRecorderCapturesQueryLifecycle: a served query must leave the
// admission → dispatch → region-exec → query-done breadcrumb trail, with
// virtual timestamps and zero wall readings (no clock installed).
func TestRecorderCapturesQueryLifecycle(t *testing.T) {
	_, events, total := recorderRun(t)
	if total == 0 || len(events) == 0 {
		t.Fatal("flight recorder is empty after a served workload")
	}
	kinds := make(map[telemetry.EventKind]int)
	var lastSeq uint64
	for i, e := range events {
		kinds[e.Kind]++
		if i > 0 && e.Seq <= lastSeq {
			t.Errorf("event %d: seq %d not increasing (prev %d)", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.WallNanos != 0 {
			t.Errorf("event %d (%s): wall reading %d without a clock", i, e.Kind, e.WallNanos)
		}
		if e.Srv != 0 {
			t.Errorf("event %d (%s): srv = %d, want 0", i, e.Kind, e.Srv)
		}
	}
	for _, want := range []telemetry.EventKind{
		telemetry.EvAdmit, telemetry.EvDispatch, telemetry.EvRegionExec,
		telemetry.EvQueryDone, telemetry.EvCacheMiss,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %s events recorded", want)
		}
	}
	if kinds[telemetry.EvQueryDone] != 3 {
		t.Errorf("query-done events = %d, want 3", kinds[telemetry.EvQueryDone])
	}
}

// TestServeEvents: the MsgEvents protocol round-trips the ring — and the
// wall-clock slot is zero on the wire even when the server has a clock.
func TestServeEvents(t *testing.T) {
	st, meta, oid := testWorld(t)
	_, conn := testServerCfg(t, Config{
		ID: 0, N: 1, Store: st, Meta: meta,
		Clock: telemetry.Frozen(12345),
	})
	q := &query.Query{Root: query.Leaf(oid, query.OpGT, 2.0)}
	if reply := call(t, conn, transport.Message{
		Type:    MsgQuery,
		Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(q, qlang.ProjCount)),
	}); reply.Type != MsgQueryResult {
		t.Fatalf("query failed: %s", reply.Payload)
	}
	reply := call(t, conn, transport.Message{Type: MsgEvents})
	if reply.Type != MsgEventsResult {
		t.Fatalf("reply = %d payload=%s", reply.Type, reply.Payload)
	}
	events, total, err := telemetry.DecodeEvents(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || len(events) == 0 {
		t.Fatal("no events over the wire")
	}
	if uint64(len(events)) > total {
		t.Errorf("snapshot %d exceeds lifetime total %d", len(events), total)
	}
	for i, e := range events {
		if e.WallNanos != 0 {
			t.Errorf("event %d: wall clock %d crossed the wire", i, e.WallNanos)
		}
	}
}

// TestPhaseDistributions: phase-level accounting must land in the
// session registry as virtual-time distributions whose query-count
// matches the workload, with the wall twins absent without a clock.
func TestPhaseDistributions(t *testing.T) {
	srv, _, _ := recorderRun(t)
	reg := srv.Metrics()
	for _, name := range []string{"phase.prune_vns", "phase.region_exec_vns", "phase.merge_vns"} {
		d := reg.Dist(name)
		if d == nil || d.Count() != 3 {
			t.Fatalf("%s distribution = %+v, want 3 observations", name, d)
		}
	}
	if reg.Dist("phase.region_exec_ns") != nil {
		t.Error("wall-time phase distribution present without a clock")
	}
	// The evaluation phases carry real virtual cost for this workload.
	if d := reg.Dist("phase.region_exec_vns"); d.Sum <= 0 {
		t.Errorf("region_exec virtual time = %v, want > 0", d.Sum)
	}
}

// TestMetricsPrometheusStrict: the full exposition — workload metrics
// plus sampled runtime gauges — must survive the strict text-format
// parse with no duplicate series.
func TestMetricsPrometheusStrict(t *testing.T) {
	srv, _, _ := recorderRun(t)
	reg := srv.Metrics()
	telemetry.SampleRuntime(reg)
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckPrometheusText(buf.Bytes()); err != nil {
		t.Fatalf("exposition failed strict parse: %v\n%s", err, buf.Bytes())
	}
	for _, want := range []string{
		"recorder_capacity", "recorder_events", "cache_hits", "cache_misses",
		"phase_region_exec_vns", "runtime_goroutines",
		`phase_region_exec_vns_q{quantile="0.99"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// slowLogBuffer is a goroutine-safe sink for the slog JSON records.
type slowLogBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *slowLogBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *slowLogBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLog: with a 1ns virtual threshold every query is slow;
// the record must carry the span tree and the surrounding ring events,
// and the query.slow counter must advance. No clock is installed, so
// the latency basis is the deterministic virtual cost.
func TestSlowQueryLog(t *testing.T) {
	st, meta, oid := testWorld(t)
	var sink slowLogBuffer
	srv, conn := testServerCfg(t, Config{
		ID: 0, N: 1, Store: st, Meta: meta,
		SlowQueryNs: 1,
		Log:         slog.New(slog.NewJSONHandler(&sink, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	q := &query.Query{Root: query.Leaf(oid, query.OpGT, 2.0)}
	if reply := call(t, conn, transport.Message{
		Type:    MsgQuery,
		Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(q, qlang.ProjCount)),
	}); reply.Type != MsgQueryResult {
		t.Fatalf("query failed: %s", reply.Payload)
	}
	out := sink.String()
	for _, want := range []string{
		`"msg":"slow query"`, `"basis":"virtual"`, `"threshold_ns":1`,
		"query server.0",                      // the span render
		"flight recorder:", "kind=query-done", // the ring tail
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query record missing %q:\n%s", want, out)
		}
	}
	if got := srv.Metrics().Counter("query.slow"); got != 1 {
		t.Errorf("query.slow = %d, want 1", got)
	}
}

// TestSlowQueryThresholdRespected: a threshold far above any modeled
// cost must log nothing and count nothing.
func TestSlowQueryThresholdRespected(t *testing.T) {
	st, meta, oid := testWorld(t)
	var sink slowLogBuffer
	srv, conn := testServerCfg(t, Config{
		ID: 0, N: 1, Store: st, Meta: meta,
		SlowQueryNs: 1 << 60,
		Log:         slog.New(slog.NewJSONHandler(&sink, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	q := &query.Query{Root: query.Leaf(oid, query.OpGT, 2.0)}
	if reply := call(t, conn, transport.Message{
		Type:    MsgQuery,
		Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(q, qlang.ProjCount)),
	}); reply.Type != MsgQueryResult {
		t.Fatalf("query failed: %s", reply.Payload)
	}
	if out := sink.String(); strings.Contains(out, "slow query") {
		t.Errorf("fast query logged as slow:\n%s", out)
	}
	if got := srv.Metrics().Counter("query.slow"); got != 0 {
		t.Errorf("query.slow = %d, want 0", got)
	}
}
