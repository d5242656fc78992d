package server

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"unsafe"

	"pdcquery/internal/exec"
	"pdcquery/internal/histogram"
	"pdcquery/internal/metadata"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/telemetry"
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
