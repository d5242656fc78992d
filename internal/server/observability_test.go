// Tests for the telemetry surfaces of the server: traced queries, the
// MsgStats protocol, error attribution, and the determinism guarantees
// (trace and metrics output must be byte-identical across runs).
package server

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tracedQuery runs one traced query on a fresh single-server deployment
// and returns the decoded response.
func tracedQuery(t *testing.T) *QueryResponse {
	t.Helper()
	_, conn, oid := testServer(t, 0, 1)
	q := &query.Query{Root: query.Between(oid, 1.0, 2.0, false, false)}
	reply := call(t, conn, transport.Message{
		Type:    MsgQuery,
		Trace:   99,
		Payload: EncodeQueryRequest(FlagKeep|FlagWantTrace, plan.ForceScan, 0, prepared(q, qlang.ProjIDs)),
	})
	if reply.Type != MsgQueryResult {
		t.Fatalf("reply = %d payload=%s", reply.Type, reply.Payload)
	}
	qr, err := DecodeQueryResponse(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return qr
}

func TestServeTrace(t *testing.T) {
	qr := tracedQuery(t)
	if qr.Trace == nil {
		t.Fatal("no trace in response")
	}
	if qr.Trace.Trace != 99 {
		t.Errorf("trace ID = %d, want 99", qr.Trace.Trace)
	}
	// The root span's cost is exactly the response's incremental cost.
	if qr.Trace.Cost != qr.Cost {
		t.Errorf("root span cost %v != response cost %v", qr.Trace.Cost, qr.Cost)
	}
	// Wall-clock never crosses the wire.
	qr.Trace.Walk(func(s *telemetry.Span) {
		if s.WallNanos != 0 {
			t.Errorf("span %q carries wall clock %d", s.Name, s.WallNanos)
		}
	})
	// Every region-level span records a decision, and the sum of hits over
	// region spans matches the selection.
	var regions int
	var hits int64
	qr.Trace.Walk(func(s *telemetry.Span) {
		if s.Kind != telemetry.SpanRegion && s.Kind != telemetry.SpanSortedRegion {
			return
		}
		regions++
		if _, ok := s.Str("decision"); !ok {
			t.Errorf("region span %q has no decision", s.Name)
		}
		if h, ok := s.Int("hits"); ok {
			hits += h
		}
	})
	if regions == 0 {
		t.Fatal("trace has no region spans")
	}
	if uint64(hits) != qr.Sel.NHits {
		t.Errorf("region span hits = %d, selection = %d", hits, qr.Sel.NHits)
	}
	// Child costs never exceed the root (costs are inclusive of children).
	for _, c := range qr.Trace.Children {
		if c.Cost.Total() > qr.Trace.Cost.Total() {
			t.Errorf("child %q cost %v exceeds root %v", c.Name, c.Cost, qr.Trace.Cost)
		}
	}
}

func TestUntracedQueryHasNoTrace(t *testing.T) {
	_, conn, oid := testServer(t, 0, 1)
	q := &query.Query{Root: query.Leaf(oid, query.OpGT, 5.0)}
	reply := call(t, conn, transport.Message{
		Type:    MsgQuery,
		Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(q, qlang.ProjIDs)),
	})
	qr, err := DecodeQueryResponse(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Trace != nil {
		t.Error("trace present without FlagWantTrace")
	}
}

// TestTraceGolden pins the rendered trace of a fixed query: it must be
// byte-identical across two independent runs and match the checked-in
// golden file (regenerate with -update).
func TestTraceGolden(t *testing.T) {
	a := tracedQuery(t)
	b := tracedQuery(t)
	ab, bb := a.Trace.Encode(false), b.Trace.Encode(false)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("trace not deterministic across runs:\n%s\nvs\n%s",
			a.Trace.Render(false), b.Trace.Render(false))
	}
	rendered := a.Trace.Render(false)
	golden := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(rendered), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if rendered != string(want) {
		t.Errorf("trace drifted from golden (re-run with -update if intended):\ngot:\n%s\nwant:\n%s", rendered, want)
	}
}

// metricsRun drives a fixed message sequence on a fresh server and
// returns its Prometheus exposition.
func metricsRun(t *testing.T) []byte {
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
	var buf bytes.Buffer
	telemetry.WritePrometheus(&buf, srv.Metrics())
	return buf.Bytes()
}

// TestMetricsGolden pins the /metrics output of a fixed workload: byte
// identical across runs and against the golden file.
func TestMetricsGolden(t *testing.T) {
	a, b := metricsRun(t), metricsRun(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("metrics not deterministic across runs:\n%s\nvs\n%s", a, b)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, want) {
		t.Errorf("metrics drifted from golden (re-run with -update if intended):\ngot:\n%s\nwant:\n%s", a, want)
	}
}

func TestServeStats(t *testing.T) {
	_, conn, oid := testServer(t, 0, 1)
	const queries = 4
	for i := 0; i < queries; i++ {
		q := &query.Query{Root: query.Leaf(oid, query.OpGT, float64(i))}
		call(t, conn, transport.Message{Type: MsgQuery, Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(q, qlang.ProjCount))})
	}
	reply := call(t, conn, transport.Message{Type: MsgStats})
	if reply.Type != MsgStatsResult {
		t.Fatalf("reply = %d payload=%s", reply.Type, reply.Payload)
	}
	sr, err := DecodeStatsResponse(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.Reg.Counter("msg.query"); got != queries {
		t.Errorf("msg.query = %d, want %d", got, queries)
	}
	if got := sr.Reg.Counter("query.count"); got != queries {
		t.Errorf("query.count = %d, want %d", got, queries)
	}
	d := sr.Reg.Dist("query.cost_ns")
	if d == nil || d.Count() != queries {
		t.Fatalf("query.cost_ns distribution = %+v", d)
	}
	if sr.Reg.Counter("io.read.ops") <= 0 {
		t.Error("no storage reads counted")
	}
	if sr.Reg.Counter("io.read.ops.pfs") <= 0 {
		t.Error("no per-tier read ops counted")
	}
	if sr.Reg.Gauge("sessions.live") != 1 {
		t.Errorf("sessions.live = %v", sr.Reg.Gauge("sessions.live"))
	}
}

// TestMetricsSurviveDisconnect: a session's history must fold into the
// retired pool when its connection closes.
func TestMetricsSurviveDisconnect(t *testing.T) {
	srv, conn, oid := testServer(t, 0, 1)
	q := &query.Query{Root: query.Leaf(oid, query.OpGT, 2.0)}
	call(t, conn, transport.Message{Type: MsgQuery, Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(q, qlang.ProjCount))})

	// A second connection runs one more query, then disconnects.
	clientB, serverB := transport.Pipe()
	done := make(chan struct{})
	go func() {
		srv.Serve(serverB)
		close(done)
	}()
	call(t, clientB, transport.Message{Type: MsgQuery, Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(q, qlang.ProjCount))})
	clientB.Send(transport.Message{Type: MsgShutdown})
	clientB.Close()
	<-done

	reg := srv.Metrics()
	if got := reg.Counter("query.count"); got != 2 {
		t.Errorf("query.count after disconnect = %d, want 2", got)
	}
	if got := reg.Dist("query.cost_ns"); got == nil || got.Count() != 2 {
		t.Errorf("query.cost_ns after disconnect = %+v", got)
	}
}

// TestErrorsPrefixed: every server-side error carries the server's ID.
func TestErrorsPrefixed(t *testing.T) {
	_, conn, oid := testServer(t, 0, 1)
	cases := []transport.Message{
		{Type: MsgQuery, Payload: nil},
		{Type: MsgGetData, Payload: (&DataRequest{Obj: oid, QueryReq: 12345}).Encode()},
		{Type: MsgHistogram, Payload: []byte{1, 2}},
		{Type: 99},
	}
	for i, m := range cases {
		reply := call(t, conn, m)
		if reply.Type != MsgError {
			t.Fatalf("case %d: reply = %d, want error", i, reply.Type)
		}
		if !strings.HasPrefix(string(reply.Payload), "server 0: ") {
			t.Errorf("case %d: error not attributed: %q", i, reply.Payload)
		}
	}
}

// TestStashEvictionBoundary pins the deterministic oldest-first policy:
// after 40 stashed queries with capacity 16, exactly requests 25..40
// survive.
func TestStashEvictionBoundary(t *testing.T) {
	_, conn, oid := testServer(t, 0, 1)
	for i := 0; i < 40; i++ {
		q := &query.Query{Root: query.Leaf(oid, query.OpGT, float64(i%9))}
		m := transport.Message{Type: MsgQuery, Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(q, qlang.ProjCount)), ReqID: uint64(i + 1)}
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	get := func(req uint64) byte {
		reply := call(t, conn, transport.Message{
			Type:    MsgGetData,
			Payload: (&DataRequest{Obj: oid, QueryReq: req}).Encode(),
		})
		return reply.Type
	}
	if got := get(24); got != MsgError {
		t.Errorf("request 24 should be evicted, reply = %d", got)
	}
	if got := get(25); got != MsgDataResult {
		t.Errorf("request 25 should survive, reply = %d", got)
	}
	if got := get(40); got != MsgDataResult {
		t.Errorf("request 40 should survive, reply = %d", got)
	}
}

// TestTraceCostCategories: the virtual cost crossing the wire preserves
// its per-category breakdown.
func TestTraceCostCategories(t *testing.T) {
	qr := tracedQuery(t)
	if qr.Trace.Cost.Part(vclock.Storage) <= 0 {
		t.Error("trace root has no storage cost")
	}
	var sawCost bool
	qr.Trace.Walk(func(s *telemetry.Span) {
		if s != qr.Trace && s.Cost.Total() > 0 {
			sawCost = true
		}
	})
	if !sawCost {
		t.Error("no child span carries cost")
	}
}
