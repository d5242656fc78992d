package server

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"pdcquery/internal/dtype"
	"pdcquery/internal/histogram"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/simio"
	"pdcquery/internal/transport"
)

// testServer builds a 1-object deployment slice: metadata, store, and one
// server of n, served over an in-process pipe.
func testServer(t *testing.T, id, n int) (*Server, transport.Conn, object.ID) {
	t.Helper()
	st, meta, oid := testWorld(t)
	srv, conn := testServerCfg(t, Config{ID: id, N: n, Store: st, Meta: meta})
	return srv, conn, oid
}

// testServerCfg serves a server built from cfg over an in-process pipe
// (for tests that need non-default observability or scheduling config).
func testServerCfg(t *testing.T, cfg Config) (*Server, transport.Conn) {
	t.Helper()
	if cfg.Assign == nil {
		cfg.Assign = ModNAssign(cfg.ID, cfg.N)
	}
	srv := New(cfg)
	clientSide, serverSide := transport.Pipe()
	go func() {
		srv.Serve(serverSide)
		serverSide.Close()
	}()
	t.Cleanup(func() {
		clientSide.Send(transport.Message{Type: MsgShutdown})
		clientSide.Close()
	})
	return srv, clientSide
}

// testWorld builds the 1-object store and metadata the test servers
// share: 1000 float32 values 0.00..9.99 in four 250-element regions.
func testWorld(t *testing.T) (*simio.Store, *metadata.Service, object.ID) {
	t.Helper()
	st := simio.New(simio.DefaultModel())
	meta := metadata.NewService()
	cont := meta.CreateContainer("c")
	o, err := meta.CreateObject(cont.ID, object.Property{
		Name: "energy", Type: dtype.Float32, Dims: []uint64{1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, 1000)
	for i := range vals {
		vals[i] = float32(i) / 100
	}
	var hists []*histogram.Histogram
	for i, r := range region.Split1D(1000, 250) {
		lo, hi := r.Offset[0], r.Offset[0]+r.Count[0]
		raw := dtype.Bytes(vals[lo:hi])
		key := object.ExtentKey(o.ID, i)
		st.Write(nil, key, simio.PFS, raw)
		h := histogram.BuildBytes(o.Type, raw, 16)
		mn, mx := dtype.MinMax(o.Type, raw)
		o.Regions = append(o.Regions, object.RegionMeta{
			Index: i, Region: r, ExtentKey: key, Min: mn, Max: mx, Hist: h,
		})
		hists = append(hists, h)
	}
	o.Global = histogram.MergeAll(hists)
	return st, meta, o.ID
}

// prepared is q as client.Prepared lowers it: no tags, a count or ids
// projection.
func prepared(q *query.Query, kind qlang.ProjKind) *qlang.Lowered {
	return &qlang.Lowered{Query: q, Projection: qlang.Projection{Kind: kind}}
}

func call(t *testing.T, c transport.Conn, m transport.Message) transport.Message {
	t.Helper()
	m.ReqID = 77
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	got := make(chan transport.Message, 1)
	failed := make(chan error, 1)
	go func() {
		reply, err := c.Recv()
		if err != nil {
			failed <- err
			return
		}
		got <- reply
	}()
	var reply transport.Message
	select {
	case reply = <-got:
	case err := <-failed:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatalf("no reply to a %s request within 10s", MsgName(m.Type))
	}
	if reply.ReqID != 77 {
		t.Fatalf("reply reqID = %d", reply.ReqID)
	}
	return reply
}

func TestServeQueryAndGetData(t *testing.T) {
	_, conn, oid := testServer(t, 0, 1)
	q := &query.Query{Root: query.Between(oid, 1.0, 2.0, false, false)}
	reply := call(t, conn, transport.Message{
		Type:    MsgQuery,
		Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(q, qlang.ProjIDs)),
	})
	if reply.Type != MsgQueryResult {
		t.Fatalf("reply type = %d payload=%s", reply.Type, reply.Payload)
	}
	qr, err := DecodeQueryResponse(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Sel.NHits != 99 { // values 1.01..1.99
		t.Errorf("hits = %d, want 99", qr.Sel.NHits)
	}
	if qr.Cost.Total() <= 0 {
		t.Error("no cost reported")
	}

	// Data from the stash of that query.
	dreply := call(t, conn, transport.Message{
		Type:    MsgGetData,
		Payload: (&DataRequest{Obj: oid, QueryReq: 77}).Encode(),
	})
	if dreply.Type != MsgDataResult {
		t.Fatalf("data reply = %d payload=%s", dreply.Type, dreply.Payload)
	}
	dr, err := DecodeDataResponse(dreply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Coords) != 99 || len(dr.Data) != 99*4 {
		t.Errorf("data = %d coords, %d bytes", len(dr.Coords), len(dr.Data))
	}
	vals := dtype.View[float32](dr.Data)
	for i, c := range dr.Coords {
		if want := float32(c) / 100; vals[i] != want {
			t.Fatalf("value[%d] = %v, want %v", i, vals[i], want)
		}
	}
}

func TestServeCountOnly(t *testing.T) {
	_, conn, oid := testServer(t, 0, 1)
	q := &query.Query{Root: query.Leaf(oid, query.OpGE, 9.0)}
	reply := call(t, conn, transport.Message{
		Type:    MsgQuery,
		Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(q, qlang.ProjCount)),
	})
	qr, err := DecodeQueryResponse(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Sel.CountOnly || qr.Sel.NHits != 100 {
		t.Errorf("count-only = %+v", qr.Sel)
	}
}

// TestServeErrors sends a malformed request of every kind that decodes
// a payload to an ingest-enabled server: each must be answered with an
// error frame, none may panic the server.
func TestServeErrors(t *testing.T) {
	st, meta, oid := testWorld(t)
	_, conn := testServerCfg(t, Config{N: 1, Store: st, Meta: meta, Ingest: true})
	tooMany := []byte{0xff, 0xff, 0xff, 0xff} // a count no payload holds
	cases := []transport.Message{
		{Type: MsgQuery, Payload: nil},
		{Type: MsgQuery, Payload: append([]byte{byte(plan.ForceScan) << forceShift}, "garbage"...)},
		{Type: MsgQuery, Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(&query.Query{Root: query.Leaf(999, query.OpGT, 0)}, qlang.ProjCount))},
		{Type: MsgGetData, Payload: nil},
		{Type: MsgGetData, Payload: (&DataRequest{Obj: oid, QueryReq: 12345}).Encode()},
		{Type: MsgHistogram, Payload: []byte{1, 2}},
		{Type: MsgTagQuery, Payload: nil},
		{Type: MsgFetchExtents, Payload: nil},
		{Type: MsgFetchExtents, Payload: tooMany},
		{Type: MsgFetchExtents, Payload: EncodeFetchExtents([]string{"key"})[:6]},
		{Type: MsgPutExtents, Payload: nil},
		{Type: MsgPutExtents, Payload: tooMany},
		{Type: MsgPutExtents, Payload: EncodeExtentsResult([]Extent{{Key: "key", Present: true, Data: []byte{1, 2, 3}}})[:12]},
		{Type: 99},
	}
	for i, m := range cases {
		if reply := call(t, conn, m); reply.Type != MsgError {
			t.Errorf("case %d: reply type = %d, want error", i, reply.Type)
		}
	}
}

// TestFetchExtentsReadError: a rebalance source whose store read fails
// must say so. Shipping the failed read as a present, empty extent
// would install an empty region on the joiner.
func TestFetchExtentsReadError(t *testing.T) {
	st, meta, oid := testWorld(t)
	_, conn := testServerCfg(t, Config{N: 1, Store: st, Meta: meta, Ingest: true})
	key := object.ExtentKey(oid, 1)
	fetch := transport.Message{Type: MsgFetchExtents, Payload: EncodeFetchExtents([]string{key})}
	reply := call(t, conn, fetch)
	if reply.Type != MsgExtentsResult {
		t.Fatalf("healthy fetch: reply type = %d, want extents", reply.Type)
	}
	if exts, err := DecodeExtentsResult(reply.Payload); err != nil || len(exts) != 1 || !exts[0].Present || len(exts[0].Data) != 250*4 {
		t.Fatalf("healthy fetch = %+v, %v", exts, err)
	}

	st.SetAccessHook(func(op, k string, _ simio.Tier, _ int64) (time.Duration, error) {
		if k == key {
			return 0, fmt.Errorf("injected %s failure", op)
		}
		return 0, nil
	})
	reply = call(t, conn, fetch)
	if reply.Type != MsgError {
		exts, _ := DecodeExtentsResult(reply.Payload)
		t.Fatalf("failed read: reply type = %d (%+v), want error", reply.Type, exts)
	}
	if !strings.Contains(string(reply.Payload), "injected") {
		t.Errorf("error reply %q does not carry the read's error", reply.Payload)
	}
}

func TestServeHistogram(t *testing.T) {
	_, conn, oid := testServer(t, 0, 1)
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], uint64(oid))
	reply := call(t, conn, transport.Message{Type: MsgHistogram, Payload: payload[:]})
	if reply.Type != MsgHistResult {
		t.Fatalf("reply = %d", reply.Type)
	}
	h, err := DecodeHistResult(reply.Payload)
	if err != nil || h == nil || h.Total != 1000 {
		t.Errorf("histogram = %v, %v", h, err)
	}
}

func TestServeMetaSnapshot(t *testing.T) {
	_, conn, _ := testServer(t, 0, 1)
	reply := call(t, conn, transport.Message{Type: MsgMetaSnapshot})
	if reply.Type != MsgMetaResult {
		t.Fatalf("reply = %d", reply.Type)
	}
	svc := metadata.NewService()
	if err := svc.Restore(reply.Payload); err != nil {
		t.Fatal(err)
	}
	if svc.NumObjects() != 1 {
		t.Errorf("snapshot objects = %d", svc.NumObjects())
	}
}

func TestTagQuerySharding(t *testing.T) {
	// Each server of an N-server deployment reports only the objects it
	// owns; the shards must partition the full answer.
	st := simio.New(simio.DefaultModel())
	meta := metadata.NewService()
	cont := meta.CreateContainer("c")
	var all []object.ID
	for i := 0; i < 50; i++ {
		o, err := meta.CreateObject(cont.ID, object.Property{
			Name: fmt.Sprintf("o%d", i), Type: dtype.Float32, Dims: []uint64{4},
			Tags: map[string]string{"grp": "a"},
		})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, o.ID)
	}
	const n = 4
	seen := map[object.ID]int{}
	for id := 0; id < n; id++ {
		srv := New(Config{ID: id, N: n, Store: st, Meta: meta, Assign: ModNAssign(id, n)})
		clientSide, serverSide := transport.Pipe()
		go srv.Serve(serverSide)
		reply := call(t, clientSide, transport.Message{
			Type: MsgTagQuery, Payload: EncodeTagQuery([]metadata.TagCond{{Key: "grp", Value: "a"}}),
		})
		_, ids, err := DecodeTagResult(reply.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, oid := range ids {
			seen[oid]++
		}
		clientSide.Send(transport.Message{Type: MsgShutdown})
		clientSide.Close()
	}
	if len(seen) != len(all) {
		t.Fatalf("shards cover %d of %d objects", len(seen), len(all))
	}
	for oid, cnt := range seen {
		if cnt != 1 {
			t.Errorf("object %d reported by %d servers", oid, cnt)
		}
	}
}

func TestAssignmentPartition(t *testing.T) {
	// The region assignments of an N-server deployment partition the
	// region set, for both plain and sorted regions, and give each
	// server, in ascending order, the regions ModNOwner says it owns.
	meta := metadata.NewService()
	cont := meta.CreateContainer("c")
	o, _ := meta.CreateObject(cont.ID, object.Property{Name: "o", Type: dtype.Float32, Dims: []uint64{1000}})
	for i, r := range region.Split1D(1000, 100) {
		o.Regions = append(o.Regions, object.RegionMeta{Index: i, Region: r})
	}
	for _, n := range []int{1, 3, 4, 16} {
		counts := make([]int, len(o.Regions))
		for id := 0; id < n; id++ {
			a, err := ModNAssign(id, n)(0, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range a.Orig {
				counts[r]++
				if ModNOwner(uint64(o.ID), r, n) != id || i > 0 && a.Orig[i-1] >= r {
					t.Errorf("n=%d: server %d is assigned %v", n, id, a.Orig)
				}
			}
		}
		for r, c := range counts {
			if c != 1 {
				t.Errorf("n=%d: region %d assigned %d times", n, r, c)
			}
		}
	}
}

func TestStashEviction(t *testing.T) {
	_, conn, oid := testServer(t, 0, 1)
	// Issue more queries than the stash retains; an evicted query's
	// stashed result must no longer answer get-data, while a recent one
	// still does.
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
	// The most recent query's stash must be present.
	reply := call(t, conn, transport.Message{
		Type:    MsgGetData,
		Payload: (&DataRequest{Obj: oid, QueryReq: 40}).Encode(),
	})
	if reply.Type != MsgDataResult {
		t.Errorf("recent stash missing: %s", reply.Payload)
	}
	// The first query's stash has been evicted.
	reply = call(t, conn, transport.Message{
		Type:    MsgGetData,
		Payload: (&DataRequest{Obj: oid, QueryReq: 1}).Encode(),
	})
	if reply.Type != MsgError {
		t.Error("evicted stash still answered")
	}
}

func TestConnectionsHaveIsolatedStashes(t *testing.T) {
	// Two clients with colliding request IDs must not see each other's
	// stashed results.
	srv, connA, oid := testServer(t, 0, 1)
	clientB, serverB := transport.Pipe()
	go srv.Serve(serverB)
	t.Cleanup(func() {
		clientB.Send(transport.Message{Type: MsgShutdown})
		clientB.Close()
	})

	// Client A runs a query under ReqID 77.
	qa := &query.Query{Root: query.Between(oid, 1.0, 2.0, false, false)}
	if r := call(t, connA, transport.Message{Type: MsgQuery, Payload: EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, prepared(qa, qlang.ProjCount))}); r.Type != MsgQueryResult {
		t.Fatalf("query A failed: %s", r.Payload)
	}
	// Client B asks for ReqID 77's data without having run a query.
	reply := call(t, clientB, transport.Message{
		Type:    MsgGetData,
		Payload: (&DataRequest{Obj: oid, QueryReq: 77}).Encode(),
	})
	if reply.Type != MsgError {
		t.Error("client B read client A's stash")
	}
	// Client A still can.
	reply = call(t, connA, transport.Message{
		Type:    MsgGetData,
		Payload: (&DataRequest{Obj: oid, QueryReq: 77}).Encode(),
	})
	if reply.Type != MsgDataResult {
		t.Errorf("client A lost its stash: %s", reply.Payload)
	}
}

// A text statement leaves nothing in the stash: it travels as the
// statement it lowers to, without FlagKeep, because the text API hands
// its caller no request ID a get-data could name. A get-data naming one
// gets the same typed error as any unknown request — while the same
// statement sent with FlagKeep, as client.Prepared sends it, is served
// from the stash.
func TestTextQueryIsNotStashed(t *testing.T) {
	_, conn, oid := testServer(t, 0, 1)
	parsed, err := qlang.Parse("select ids where energy > 1 and energy < 2")
	if err != nil {
		t.Fatal(err)
	}
	low, err := parsed.Lower(func(string) (object.ID, bool) { return oid, true })
	if err != nil {
		t.Fatal(err)
	}
	reply := call(t, conn, transport.Message{Type: MsgQuery, Payload: EncodeQueryRequest(0, plan.ForceAuto, 0, low)})
	if reply.Type != MsgQueryResult {
		t.Fatalf("text reply = %d payload=%s", reply.Type, reply.Payload)
	}
	qr, err := DecodeQueryResponse(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if coords, err := qr.Sel.Coords(nil); err != nil || qr.Sel.NHits != 99 || len(coords) != 99 {
		t.Fatalf("text query: %d hits, %d coords (err %v), want 99", qr.Sel.NHits, len(coords), err)
	}
	get := transport.Message{Type: MsgGetData, Payload: (&DataRequest{Obj: oid, QueryReq: 77}).Encode()}
	dreply := call(t, conn, get)
	if want := "no stashed result for request 77"; dreply.Type != MsgError || !strings.Contains(string(dreply.Payload), want) {
		t.Fatalf("get-data after a text statement: type %d payload %q, want MsgError containing %q", dreply.Type, dreply.Payload, want)
	}

	if r := call(t, conn, transport.Message{Type: MsgQuery, Payload: EncodeQueryRequest(FlagKeep, plan.ForceAuto, 0, low)}); r.Type != MsgQueryResult {
		t.Fatalf("kept query failed: %s", r.Payload)
	}
	if dreply = call(t, conn, get); dreply.Type != MsgDataResult {
		t.Fatalf("get-data after a kept query: %s", dreply.Payload)
	}
}

// TestGetDataOutOfRangeCoords: a get-data naming a coordinate past the
// object's end is a typed error reply. The server used to spin on it and
// never answer.
func TestGetDataOutOfRangeCoords(t *testing.T) {
	_, conn, oid := testServer(t, 0, 1)
	reply := call(t, conn, transport.Message{Type: MsgGetData, Payload: (&DataRequest{Obj: oid, Coords: []uint64{5000}}).Encode()})
	if reply.Type != MsgError || !strings.Contains(string(reply.Payload), "bad coordinates") {
		t.Fatalf("reply %s %q, want a bad-coordinates error", MsgName(reply.Type), reply.Payload)
	}
}

// TestGetDataDescendingCoords: a get-data naming coordinates out of
// order is a typed error reply, and the server keeps serving. It used to
// slice out of range and take the process down.
func TestGetDataDescendingCoords(t *testing.T) {
	_, conn, oid := testServer(t, 0, 1)
	reply := call(t, conn, transport.Message{Type: MsgGetData, Payload: (&DataRequest{Obj: oid, Coords: []uint64{600, 5}}).Encode()})
	if reply.Type != MsgError || !strings.Contains(string(reply.Payload), "bad coordinates") {
		t.Fatalf("reply %s %q, want a bad-coordinates error", MsgName(reply.Type), reply.Payload)
	}
	reply = call(t, conn, transport.Message{Type: MsgGetData, Payload: (&DataRequest{Obj: oid, Coords: []uint64{5, 600}}).Encode()})
	if reply.Type != MsgDataResult {
		t.Fatalf("ascending coordinates after the refusal: %s %q", MsgName(reply.Type), reply.Payload)
	}
}

// TestStatementValidation: what a server no longer derives itself it
// checks, each failure a typed ErrBadStatement reply — a hist object that
// does not exist or has another shape than the statement's objects, a
// bin count outside 1..qlang.MaxHistBins, an unknown projection.
func TestStatementValidation(t *testing.T) {
	srv, conn, oid := testServer(t, 0, 1)
	short, err := srv.cfg.Meta.CreateObject(srv.cfg.Meta.CreateContainer("s").ID, object.Property{
		Name: "short", Type: dtype.Float32, Dims: []uint64{10},
	})
	if err != nil {
		t.Fatal(err)
	}
	hist := func(obj object.ID, bins int) []byte {
		return EncodeQueryRequest(0, plan.ForceScan, 0, &qlang.Lowered{
			Query:      &query.Query{Root: query.Leaf(oid, query.OpGT, 5)},
			Projection: qlang.Projection{Kind: qlang.ProjHist, Bins: bins},
			HistObj:    obj,
		})
	}
	unknown := hist(oid, 8)
	unknown[1+1] = 2 // the projection marker, after the flags and an empty tag list
	for name, payload := range map[string][]byte{
		"missing object":     hist(999, 8),
		"shape mismatch":     hist(short.ID, 8),
		"zero bins":          hist(oid, 0),
		"too many bins":      hist(oid, qlang.MaxHistBins+1),
		"unknown projection": unknown,
	} {
		reply := call(t, conn, transport.Message{Type: MsgQuery, Payload: payload})
		if reply.Type != MsgError || !strings.Contains(string(reply.Payload), ErrBadStatement.Error()) {
			t.Errorf("%s: reply %s %q, want %q", name, MsgName(reply.Type), reply.Payload, ErrBadStatement)
		}
	}
	reply := call(t, conn, transport.Message{Type: MsgQuery, Payload: hist(oid, qlang.MaxHistBins)})
	qr, err := DecodeQueryResponse(reply.Payload)
	if err != nil || qr.Hist == nil || qr.Hist.Total != qr.Sel.NHits || qr.Sel.NHits != 499 {
		t.Fatalf("hist of the statement's own object: %s %q, %v", MsgName(reply.Type), reply.Payload, err)
	}
}
