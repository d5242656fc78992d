package server

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pdcquery/internal/exec"
	"pdcquery/internal/histogram"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/vclock"
)

func sampleCost() vclock.Cost {
	return vclock.CostOf(vclock.Storage, 3*time.Second).
		Add(vclock.CostOf(vclock.Compute, time.Millisecond)).
		Add(vclock.CostOf(vclock.Network, time.Microsecond))
}

// TestQueryRequestRoundTrip: every flag combination round-trips under
// every forcing, for each projection with and without tags. A count or
// ids statement without tags carries no section and the forcing costs no
// bytes: its payload is the flags byte, the optional epoch and the
// query.
func TestQueryRequestRoundTrip(t *testing.T) {
	q := &query.Query{Root: query.Between(3, 1, 2, false, true)}
	qb := q.Encode()
	tags := []metadata.TagCond{{Key: "run", Value: "vpic-7"}}
	hist := qlang.Projection{Kind: qlang.ProjHist, Bins: 32}
	stmts := []*qlang.Lowered{
		{Query: q},
		{Query: q, Projection: qlang.Projection{Kind: qlang.ProjIDs}},
		{Query: q, Tags: tags},
		{Query: q, Tags: tags, Projection: qlang.Projection{Kind: qlang.ProjIDs}},
		{Query: q, Projection: hist, HistObj: 4},
		{Query: q, Tags: tags, Projection: hist, HistObj: 4},
	}
	for _, flags := range []byte{0, FlagKeep, FlagWantTrace, FlagEpoch, FlagKeep | FlagWantTrace | FlagEpoch} {
		for force := plan.ForceAuto; force <= plan.ForceFull; force++ {
			for i, st := range stmts {
				enc := EncodeQueryRequest(flags, force, 42, st)
				r, err := DecodeQueryRequest(enc)
				if err != nil {
					t.Fatalf("flags %#x force %v statement %d: %v", flags, force, i, err)
				}
				wantEpoch := uint64(0)
				if flags&FlagEpoch != 0 {
					wantEpoch = 42
				}
				if r.Flags&^(FlagWantSelection|FlagStatement) != flags || r.Force != force || r.Epoch != wantEpoch || !bytes.Equal(r.Query, qb) {
					t.Errorf("flags %#x force %v statement %d: round trip = %#x %v %d %x", flags, force, i, r.Flags, r.Force, r.Epoch, r.Query)
				}
				if got := r.Stmt; got.Projection != st.Projection || got.HistObj != st.HistObj || !slices.Equal(got.Tags, st.Tags) || got.Query.Root.String() != q.Root.String() {
					t.Errorf("flags %#x force %v statement %d: statement = %+v, want %+v", flags, force, i, got, st)
				}
				if want := 1 + len(qb); len(st.Tags) == 0 && st.Projection.Kind != qlang.ProjHist {
					if flags&FlagEpoch != 0 {
						want += 8
					}
					if len(enc) != want {
						t.Errorf("flags %#x force %v statement %d: %d bytes, want %d", flags, force, i, len(enc), want)
					}
				}
			}
		}
	}
	if _, err := DecodeQueryRequest(nil); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := DecodeQueryRequest([]byte{FlagEpoch, 1, 2}); err == nil {
		t.Error("truncated epoch accepted")
	}
	for _, b := range []byte{byte(plan.ForceFull+1) << forceShift, 7 << forceShift} {
		if _, err := DecodeQueryRequest(append([]byte{b}, qb...)); !errors.Is(err, ErrBadQueryFlags) {
			t.Errorf("flags byte %#x: err = %v, want ErrBadQueryFlags", b, err)
		}
	}
	for name, head := range map[string][]byte{
		"empty section": {FlagStatement, 0, 0},
		"ids and hist":  {FlagStatement | FlagWantSelection, 0, 1, 4, 0, 0, 0, 0, 0, 0, 0, 32, 0, 0, 0},
	} {
		if _, err := DecodeQueryRequest(append(head, qb...)); !errors.Is(err, ErrBadStatement) {
			t.Errorf("%s: err = %v, want ErrBadStatement", name, err)
		}
	}
}

// oneRegion is a 1-D element space that is a single region.
type oneRegion uint64

func (n oneRegion) RegionSpan(uint64) (base, span uint64) { return 0, uint64(n) }

// packedSel packs coords as one chunk over a 1-D element space.
func packedSel(coords, dims []uint64) *selection.Packed {
	return selection.Pack(coords, dims, oneRegion(dims[0]))
}

func TestQueryResponseRoundTrip(t *testing.T) {
	resp := &QueryResponse{
		Cost: sampleCost(),
		Stats: exec.Stats{
			RegionsEvaluated: 5, RegionsPruned: 7, SortedRegions: 1,
			ElementsScanned: 1000, Probes: 50, IndexBinsRead: 3,
			IndexBytesRead: 4096, CandChecks: 2,
		},
		Sel:  packedSel([]uint64{3, 9, 100}, []uint64{1000}),
		Hist: histogram.Build([]float64{1, 2, 3}, 4),
	}
	got, err := DecodeQueryResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != resp.Cost {
		t.Errorf("cost = %v, want %v", got.Cost, resp.Cost)
	}
	if got.Stats != resp.Stats {
		t.Errorf("stats = %+v", got.Stats)
	}
	if coords, err := got.Sel.Coords(nil); err != nil || got.Sel.NHits != 3 || !reflect.DeepEqual(coords, []uint64{3, 9, 100}) {
		t.Errorf("selection = %+v (%v), err %v", got.Sel, coords, err)
	}
	if got.Hist == nil || !bytes.Equal(got.Hist.Encode(), resp.Hist.Encode()) {
		t.Errorf("hist = %+v", got.Hist)
	}
	// Without a histogram the slot is one zero byte, the encoding every
	// count and ids reply had before replies could carry one.
	withHist, without := resp.Encode(), (&QueryResponse{Cost: resp.Cost, Stats: resp.Stats, Sel: resp.Sel}).Encode()
	if want := len(without) + 4 + len(resp.Hist.Encode()); len(withHist) != want {
		t.Errorf("reply with a histogram is %d bytes, want %d", len(withHist), want)
	}
}

func TestQueryResponseCountOnly(t *testing.T) {
	resp := &QueryResponse{Sel: selection.PackedCount(42, []uint64{10})}
	got, err := DecodeQueryResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Sel.CountOnly || got.Sel.NHits != 42 || got.Hist != nil {
		t.Errorf("count-only round trip = %+v", got)
	}
}

func TestQueryResponseTraceRoundTrip(t *testing.T) {
	span := telemetry.NewSpan(telemetry.SpanQuery, "server.0")
	span.Trace = 42
	span.Cost = sampleCost()
	span.SetInt("hits", 7)
	rs := span.Child(telemetry.SpanRegion, "region.3")
	rs.SetStr("decision", telemetry.DecisionHistogramPruned)
	resp := &QueryResponse{
		Cost:  sampleCost(),
		Sel:   selection.PackedCount(7, []uint64{100}),
		Trace: span,
	}
	got, err := DecodeQueryResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil {
		t.Fatal("trace lost in round trip")
	}
	if got.Trace.Trace != 42 || got.Trace.Cost != span.Cost {
		t.Errorf("trace root = %+v", got.Trace)
	}
	if !reflect.DeepEqual(got.Trace.Encode(false), span.Encode(false)) {
		t.Error("trace encoding drifted")
	}
	// A corrupted trace marker is rejected.
	enc := resp.Encode()
	markerAt := -1
	// The marker byte follows the hist section; for this response (no
	// histogram) it is the second byte after the selection.
	base := (&QueryResponse{Cost: resp.Cost, Sel: resp.Sel}).Encode()
	markerAt = len(base) - 1
	bad := append([]byte(nil), enc...)
	bad[markerAt] = 2
	if _, err := DecodeQueryResponse(bad); err == nil {
		t.Error("bad trace marker accepted")
	}
	// A truncated trace payload is rejected.
	if _, err := DecodeQueryResponse(enc[:len(enc)-3]); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestStatsResponseRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Add("msg.query", 5)
	reg.Add("errors", 1)
	reg.SetGauge("sessions.live", 2)
	for i := 0; i < 10; i++ {
		reg.Observe("query.cost_ns", float64(1000*(i+1)))
	}
	resp := &StatsResponse{Cost: sampleCost(), Reg: reg}
	got, err := DecodeStatsResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != resp.Cost {
		t.Errorf("cost = %v", got.Cost)
	}
	if got.Reg.Counter("msg.query") != 5 || got.Reg.Counter("errors") != 1 {
		t.Errorf("counters drifted")
	}
	if got.Reg.Gauge("sessions.live") != 2 {
		t.Errorf("gauge drifted")
	}
	d := got.Reg.Dist("query.cost_ns")
	if d == nil || d.Count() != 10 {
		t.Fatalf("distribution = %+v", d)
	}
	if !reflect.DeepEqual(got.Reg.Encode(), reg.Encode()) {
		t.Error("registry encoding drifted")
	}
	if _, err := DecodeStatsResponse(nil); err == nil {
		t.Error("nil payload accepted")
	}
	enc := resp.Encode()
	if _, err := DecodeStatsResponse(enc[:len(enc)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestMsgName(t *testing.T) {
	// Names are unique and stable across all defined message types.
	seen := map[string]byte{}
	for tpe := MsgQuery; tpe <= MsgStatsResult; tpe++ {
		name := MsgName(tpe)
		if name == "" || strings.HasPrefix(name, "unknown_") {
			t.Errorf("MsgName(%d) = %q", tpe, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("MsgName(%d) collides with %d: %q", tpe, prev, name)
		}
		seen[name] = tpe
	}
	if MsgName(200) != "unknown_200" {
		t.Errorf("unknown type = %q", MsgName(200))
	}
}

func TestQueryResponseDecodeErrors(t *testing.T) {
	resp := &QueryResponse{Sel: packedSel([]uint64{1}, []uint64{10})}
	enc := resp.Encode()
	for _, n := range []int{0, 16, 40, 96, len(enc) - 1} {
		if n >= len(enc) {
			continue
		}
		if _, err := DecodeQueryResponse(enc[:n]); err == nil {
			t.Errorf("truncation to %d accepted", n)
		}
	}
	if _, err := DecodeQueryResponse(append(enc, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDataRequestRoundTrip(t *testing.T) {
	for _, req := range []*DataRequest{
		{Obj: 7, QueryReq: 99},
		{Obj: 1, Coords: []uint64{5, 10, 15}},
	} {
		got, err := DecodeDataRequest(req.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.Obj != req.Obj || got.QueryReq != req.QueryReq || !reflect.DeepEqual(got.Coords, req.Coords) {
			t.Errorf("round trip = %+v, want %+v", got, req)
		}
	}
	if _, err := DecodeDataRequest(nil); err == nil {
		t.Error("empty request accepted")
	}
	bad := (&DataRequest{Coords: []uint64{1, 2}}).Encode()
	if _, err := DecodeDataRequest(bad[:len(bad)-4]); err == nil {
		t.Error("truncated coords accepted")
	}
}

func TestDataResponseRoundTrip(t *testing.T) {
	resp := &DataResponse{
		Cost:   sampleCost(),
		Coords: []uint64{1, 5},
		Data:   []byte{10, 20, 30, 40, 50, 60, 70, 80},
	}
	got, err := DecodeDataResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != resp.Cost || !reflect.DeepEqual(got.Coords, resp.Coords) || !reflect.DeepEqual(got.Data, resp.Data) {
		t.Errorf("round trip = %+v", got)
	}
	// Empty payloads round trip too.
	got, err = DecodeDataResponse((&DataResponse{}).Encode())
	if err != nil || len(got.Coords) != 0 || len(got.Data) != 0 {
		t.Errorf("empty round trip = %+v, %v", got, err)
	}
	enc := resp.Encode()
	if _, err := DecodeDataResponse(enc[:len(enc)-1]); err == nil {
		t.Error("truncated data accepted")
	}
}

func TestTagQueryRoundTrip(t *testing.T) {
	conds := []metadata.TagCond{
		{Key: "RADEG", Value: "153.17"},
		{Key: "DECDEG", Value: "23.06"},
	}
	got, err := DecodeTagQuery(EncodeTagQuery(conds))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, conds) {
		t.Errorf("round trip = %v", got)
	}
	if got, err := DecodeTagQuery(EncodeTagQuery(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty conds = %v, %v", got, err)
	}
	if _, err := DecodeTagQuery(nil); err == nil {
		t.Error("nil payload accepted")
	}
	enc := EncodeTagQuery(conds)
	if _, err := DecodeTagQuery(enc[:len(enc)-2]); err == nil {
		t.Error("truncated tag value accepted")
	}
	if _, err := DecodeTagQuery(append(enc, 'x')); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestTagResultRoundTrip(t *testing.T) {
	ids := []object.ID{3, 7, 11}
	cost, got, err := DecodeTagResult(EncodeTagResult(sampleCost(), ids))
	if err != nil {
		t.Fatal(err)
	}
	if cost != sampleCost() || !reflect.DeepEqual(got, ids) {
		t.Errorf("round trip = %v %v", cost, got)
	}
	if _, _, err := DecodeTagResult(nil); err == nil {
		t.Error("nil result accepted")
	}
}

func TestHistResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	h := histogram.Build(vals, 32)
	got, err := DecodeHistResult(EncodeHistResult(h))
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != h.Total || got.Width != h.Width {
		t.Errorf("histogram round trip mismatch")
	}
	// Nil histogram.
	got, err = DecodeHistResult(EncodeHistResult(nil))
	if err != nil || got != nil {
		t.Errorf("nil round trip = %v, %v", got, err)
	}
	if _, err := DecodeHistResult(nil); err == nil {
		t.Error("empty payload accepted")
	}
}
