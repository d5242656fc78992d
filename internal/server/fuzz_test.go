package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"unsafe"

	"pdcquery/internal/exec"
	"pdcquery/internal/histogram"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// FuzzDecodeQueryResponse hardens the client-side response decoder.
func FuzzDecodeQueryResponse(f *testing.F) {
	resp := &QueryResponse{
		Cost:  vclock.CostOf(vclock.Storage, 1000),
		Stats: exec.Stats{RegionsEvaluated: 3, StorageBytes: 4096},
		Sel:   packedSel([]uint64{1, 2, 3}, []uint64{100}),
	}
	f.Add(resp.Encode())
	f.Add((&QueryResponse{Sel: selection.PackedCount(9, []uint64{5})}).Encode())
	f.Add((&QueryResponse{Sel: selection.PackedCount(3, []uint64{100}), Hist: histogram.Build([]float64{0.5, 2, 9}, 8)}).Encode())
	span := telemetry.NewSpan(telemetry.SpanQuery, "server.0")
	span.Trace = 7
	span.Child(telemetry.SpanRegion, "region.0").SetStr("decision", telemetry.DecisionScan)
	f.Add((&QueryResponse{Sel: selection.PackedCount(1, []uint64{5}), Trace: span}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeQueryResponse(data)
		if err != nil {
			return
		}
		// A decoded response re-encodes and re-decodes stably.
		r2, err := DecodeQueryResponse(r.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if r2.Sel.NHits != r.Sel.NHits || !bytes.Equal(r2.Sel.Chunks, r.Sel.Chunks) || r2.Stats != r.Stats || (r2.Hist == nil) != (r.Hist == nil) {
			t.Fatal("round trip drifted")
		}
	})
}

// FuzzDecodeQueryRequest hardens the one statement decoder: any payload
// either decodes to in-range parts that re-encode to exactly its bytes —
// statement section (tags, hist projection) and keep bit included — or
// is refused, a forcing no plan.Force names with the typed
// ErrBadQueryFlags.
func FuzzDecodeQueryRequest(f *testing.F) {
	q := &query.Query{Root: query.Or(query.Leaf(1, query.OpGT, 2), query.Between(2, -1, 1, true, false))}
	tags := []metadata.TagCond{{Key: "run", Value: "vpic-7"}, {Key: "", Value: "\x00"}}
	hist := qlang.Projection{Kind: qlang.ProjHist, Bins: 16}
	for force := plan.ForceAuto; force <= plan.ForceFull; force++ {
		f.Add(EncodeQueryRequest(FlagWantTrace, force, 0, &qlang.Lowered{Query: q, Projection: qlang.Projection{Kind: qlang.ProjIDs}}))
		f.Add(EncodeQueryRequest(FlagKeep|FlagEpoch, force, 7, &qlang.Lowered{Query: q}))
		f.Add(EncodeQueryRequest(FlagEpoch, force, 9, &qlang.Lowered{Query: q, Tags: tags, Projection: hist, HistObj: 2}))
	}
	f.Add(EncodeQueryRequest(FlagKeep, plan.ForceScan, 0, &qlang.Lowered{Query: q, Tags: tags, Projection: qlang.Projection{Kind: qlang.ProjIDs}}))
	f.Add([]byte{byte(plan.ForceFull+1) << forceShift, 'q'})
	f.Add([]byte{7<<forceShift | FlagEpoch, 1, 2, 3, 4, 5, 6, 7, 8, 'q'})
	f.Add([]byte{FlagStatement, 0, 0, 1, 0})
	f.Add([]byte{FlagEpoch, 1, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeQueryRequest(data)
		if err != nil {
			if len(data) > 0 && data[0]>>forceShift > byte(plan.ForceFull) && !errors.Is(err, ErrBadQueryFlags) {
				t.Fatalf("flags byte %#x refused with %v, want ErrBadQueryFlags", data[0], err)
			}
			return
		}
		if !r.Force.Valid() || r.Flags&^flagBits != 0 {
			t.Fatalf("decoded out-of-range parts: flags %#x force %d", r.Flags, int(r.Force))
		}
		if r.Flags&FlagEpoch == 0 && r.Epoch != 0 {
			t.Fatalf("epoch %d without FlagEpoch", r.Epoch)
		}
		if p := r.Stmt.Projection; p.Kind == qlang.ProjHist && (p.Bins < 1 || p.Bins > qlang.MaxHistBins) {
			t.Fatalf("hist bins %d decoded", p.Bins)
		}
		if !bytes.Equal(EncodeQueryRequest(r.Flags, r.Force, r.Epoch, r.Stmt), data) {
			t.Fatal("round trip drifted")
		}
	})
}

// FuzzDecodeDataRequest hardens the server-side data request decoder.
func FuzzDecodeDataRequest(f *testing.F) {
	f.Add((&DataRequest{Obj: 3, QueryReq: 7}).Encode())
	f.Add((&DataRequest{Obj: 1, Coords: []uint64{9, 10}}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeDataRequest(data)
		if err != nil {
			return
		}
		r2, err := DecodeDataRequest(r.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if r2.Obj != r.Obj || r2.QueryReq != r.QueryReq || len(r2.Coords) != len(r.Coords) {
			t.Fatal("round trip drifted")
		}
	})
}

// FuzzDecodeStatsResponse hardens the telemetry registry decoder against
// hostile payloads.
func FuzzDecodeStatsResponse(f *testing.F) {
	reg := telemetry.NewRegistry()
	reg.Add("msg.query", 3)
	reg.SetGauge("sessions.live", 1)
	reg.Observe("query.cost_ns", 12345)
	reg.Observe("query.cost_ns", 999999)
	f.Add((&StatsResponse{Cost: vclock.CostOf(vclock.Compute, 500), Reg: reg}).Encode())
	f.Add((&StatsResponse{Reg: telemetry.NewRegistry()}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeStatsResponse(data)
		if err != nil {
			return
		}
		// A decoded response re-encodes byte-identically (the encoding is
		// canonical: sorted names).
		enc := r.Encode()
		r2, err := DecodeStatsResponse(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(r2.Encode(), enc) {
			t.Fatal("round trip drifted")
		}
	})
}

// FuzzDecodeTagQuery hardens the tag-query decoder.
func FuzzDecodeTagQuery(f *testing.F) {
	f.Add(EncodeTagQuery(nil))
	f.Add(EncodeTagQuery([]metadata.TagCond{{Key: "RADEG", Value: "153.17"}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		conds, err := DecodeTagQuery(data)
		if err != nil {
			return
		}
		conds2, err := DecodeTagQuery(EncodeTagQuery(conds))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(conds2) != len(conds) {
			t.Fatal("round trip drifted")
		}
	})
}

// replyCodecs are the client's reply decoders that have no fuzz target
// of their own, each returning the re-encoding of what it accepted.
// FuzzDecodeReplies picks one by its input's first byte.
var replyCodecs = []func([]byte) ([]byte, error){
	func(b []byte) ([]byte, error) {
		r, err := DecodeDataResponse(b)
		if err != nil {
			return nil, err
		}
		return r.Encode(), nil
	},
	func(b []byte) ([]byte, error) {
		cost, ids, err := DecodeTagResult(b)
		return EncodeTagResult(cost, ids), err
	},
	func(b []byte) ([]byte, error) {
		r, err := DecodeBusyResponse(b)
		if err != nil {
			return nil, err
		}
		return r.Encode(), nil
	},
	func(b []byte) ([]byte, error) {
		h, err := DecodeHistResult(b)
		return EncodeHistResult(h), err
	},
}

// FuzzDecodeReplies hardens the data, tag, busy and histogram reply
// decoders: no payload panics them, and any payload one accepts
// re-encodes to exactly its bytes.
func FuzzDecodeReplies(f *testing.F) {
	for _, seed := range []struct {
		codec byte
		b     []byte
	}{
		{0, (&DataResponse{Cost: vclock.CostOf(vclock.Storage, 70), Coords: []uint64{1, 5}, Data: []byte{10, 20}}).Encode()},
		{1, EncodeTagResult(vclock.CostOf(vclock.Meta, 9), []object.ID{3, 4})},
		{2, (&BusyResponse{RetryAfterNs: 1 << 20, Queued: 3}).Encode()},
		{3, EncodeHistResult(histogram.Build([]float64{0.5, 2, 9}, 8))},
		{3, EncodeHistResult(nil)},
	} {
		f.Add(append([]byte{seed.codec}, seed.b...))
		f.Add(append([]byte{seed.codec}, append(seed.b, 0)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		which := int(data[0]) % len(replyCodecs)
		re, err := replyCodecs[which](data[1:])
		if err != nil {
			return
		}
		if !bytes.Equal(re, data[1:]) {
			t.Fatalf("decoder %d accepted % x, re-encoded % x", which, data[1:], re)
		}
	})
}

// TestExtentCodecsRefuseUnpayableCounts feeds both extent decoders a
// bare count of 2^32-1 and nothing else: the count must be refused
// against the payload's length, not used to size an allocation (it
// once ended a member with "runtime: out of memory").
func TestExtentCodecsRefuseUnpayableCounts(t *testing.T) {
	payload := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := DecodeFetchExtents(payload); err == nil {
		t.Error("DecodeFetchExtents accepted a count its payload cannot hold")
	}
	if _, err := DecodeExtentsResult(payload); err == nil {
		t.Error("DecodeExtentsResult accepted a count its payload cannot hold")
	}
}

// TestExtentsResultDataAligned checks the padding rule: every extent's
// bytes start at an 8-aligned payload offset, whatever the key lengths.
func TestExtentsResultDataAligned(t *testing.T) {
	var exts []Extent
	for kl := range 9 {
		exts = append(exts, Extent{Key: strings.Repeat("k", kl), Present: true, Data: make([]byte, 3+kl)})
	}
	payload := EncodeExtentsResult(exts)
	got, err := DecodeExtentsResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	base := uintptr(unsafe.Pointer(&payload[0]))
	for _, e := range got {
		if off := uintptr(unsafe.Pointer(&e.Data[0])) - base; off%8 != 0 {
			t.Errorf("extent %q data at payload offset %d", e.Key, off)
		}
	}
}

// FuzzDecodeFetchExtents hardens the fetch request decoder: no payload
// panics it, and any payload it accepts re-encodes to the same bytes.
func FuzzDecodeFetchExtents(f *testing.F) {
	f.Add(EncodeFetchExtents([]string{"obj/1/r0", "obj/1/x0"}))
	f.Add(EncodeFetchExtents(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, err := DecodeFetchExtents(data)
		if err != nil {
			return
		}
		if re := EncodeFetchExtents(keys); !bytes.Equal(re, data) {
			t.Fatalf("accepted % x, re-encoded % x", data, re)
		}
	})
}

// FuzzDecodeExtentsResult hardens the decoder of both extent-carrying
// frames (MsgPutExtents, MsgExtentsResult): no payload panics it, and
// any payload it accepts re-encodes to the same bytes, so the present
// flag and the padding have one spelling each.
func FuzzDecodeExtentsResult(f *testing.F) {
	f.Add(EncodeExtentsResult([]Extent{
		{Key: "obj/1/r0", Present: true, Data: []byte{1, 2, 3, 4}},
		{Key: "obj/1/x0"},
	}))
	f.Add(EncodeExtentsResult(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		exts, err := DecodeExtentsResult(data)
		if err != nil {
			return
		}
		if re := EncodeExtentsResult(exts); !bytes.Equal(re, data) {
			t.Fatalf("accepted % x, re-encoded % x", data, re)
		}
	})
}

// FuzzPreparedStatement holds the prepared path to a fresh server's
// answer: a server that answered prime first — so its plan cache may
// hold prime's query section, under prime's forcing and epoch — answers
// payload exactly as a server that never saw prime does, with a
// byte-identical reply or the same error text. Each answer starts with
// a cold region cache, which would otherwise price the warm server's
// reads lower. The planning charge
// depends on whether the plan cache hit (a hit costs one lookup, a miss
// the cost-model walk), so the warm answer is compared with the fresh
// server's answer at the same cache outcome: its first answer after a
// miss, its second, which finds its own first's entry, after a hit.
// The seeds put a bad forcing, bad hist bins and an unknown projection
// in front of a query section the warm server already cached.
func FuzzPreparedStatement(f *testing.F) {
	const oid = 1 // testWorld's one object
	q := &query.Query{Root: query.Between(oid, 1, 2, false, false)}
	low := &qlang.Lowered{Query: q, Projection: qlang.Projection{Kind: qlang.ProjIDs}}
	good := EncodeQueryRequest(0, plan.ForceAuto, 0, low)
	section := q.Encode()
	header := func(b ...byte) []byte { return append(b, section...) }
	hist := func(marker byte, obj object.ID, bins uint32) []byte {
		b := append([]byte{FlagStatement, 0, marker}, make([]byte, 12)...)
		binary.LittleEndian.PutUint64(b[3:], uint64(obj))
		binary.LittleEndian.PutUint32(b[11:], bins)
		return append(b, section...)
	}
	f.Add(good, header(7<<forceShift))                    // bad forcing
	f.Add(good, hist(1, oid, 0))                          // bad bins
	f.Add(good, hist(2, oid, 8))                          // unknown projection
	f.Add(good, hist(1, oid+1, 8))                        // a hist object that does not exist
	f.Add(good, hist(1, oid, 8))                          // the same query as a hist
	f.Add(good, good)                                     // the same statement again
	f.Add(good, header(byte(plan.ForceScan)<<forceShift)) // another forcing, count
	f.Add(good, EncodeQueryRequest(FlagKeep, plan.ForceAuto, 0, low))
	f.Add(EncodeQueryRequest(FlagEpoch, plan.ForceAuto, 3, low), EncodeQueryRequest(FlagEpoch, plan.ForceAuto, 4, low))
	f.Add(good, EncodeQueryRequest(0, plan.ForceAuto, 0, &qlang.Lowered{Query: q, Tags: []metadata.TagCond{{Key: "k", Value: "v"}}}))
	f.Fuzz(func(t *testing.T, prime, payload []byte) {
		warm, fresh := fuzzServer(t), fuzzServer(t)
		answer(warm, prime)
		before := warm.planCache.Stats().Hits
		got := answer(warm, payload)
		hit := warm.planCache.Stats().Hits > before
		want := answer(fresh, payload)
		if hit {
			want = answer(fresh, payload)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("after prime %x, payload %x answers %s %q; a fresh server answers %s %q",
				prime, payload, MsgName(got.Type), got.Payload, MsgName(want.Type), want.Payload)
		}
	})
}

// fuzzServer is a server over testWorld that a test drives through
// answer, without a connection.
func fuzzServer(t *testing.T) *Server {
	st, meta, _ := testWorld(t)
	srv := New(Config{ID: 0, N: 1, Store: st, Meta: meta, Assign: ModNAssign(0, 1)})
	t.Cleanup(srv.Shutdown)
	return srv
}

// answer runs one MsgQuery through srv's dispatch path, pooled request
// and all, and returns the reply. The region cache starts cold, so the
// plan cache is the only state one answer leaves to the next.
func answer(srv *Server, payload []byte) transport.Message {
	srv.Cache().Clear()
	ss := srv.newSession()
	defer ss.cancel()
	ss.inflight.Add(1)
	srv.serveOne(newRequest(ss, transport.Message{Type: MsgQuery, ReqID: 1, Payload: payload}, 0))
	return <-ss.replyCh
}
