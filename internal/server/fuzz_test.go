package server

import (
	"bytes"
	"errors"
	"testing"

	"pdcquery/internal/exec"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
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
		Values: map[object.ID][]byte{
			1: {1, 2, 3, 4},
		},
	}
	f.Add(resp.Encode())
	f.Add((&QueryResponse{Sel: selection.PackedCount(9, []uint64{5})}).Encode())
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
		if r2.Sel.NHits != r.Sel.NHits || !bytes.Equal(r2.Sel.Chunks, r.Sel.Chunks) || r2.Stats != r.Stats {
			t.Fatal("round trip drifted")
		}
	})
}

// FuzzDecodeQueryRequest hardens the MsgQuery front end's decoder: any
// payload either splits into in-range parts that re-encode to the same
// bytes, or is refused — the reserved bit and a forcing no plan.Force
// names with the typed ErrBadQueryFlags.
func FuzzDecodeQueryRequest(f *testing.F) {
	for force := plan.ForceAuto; force <= plan.ForceFull; force++ {
		f.Add(EncodeQueryRequest(FlagWantSelection|FlagWantTrace, force, 0, []byte("q")))
		f.Add(EncodeQueryRequest(FlagWantValues|FlagEpoch, force, 7, []byte("q")))
	}
	f.Add([]byte{flagReserved, 'q'})
	f.Add([]byte{byte(plan.ForceFull+1) << forceShift, 'q'})
	f.Add([]byte{7<<forceShift | FlagEpoch, 1, 2, 3, 4, 5, 6, 7, 8, 'q'})
	f.Add([]byte{FlagEpoch, 1, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		flags, force, epoch, q, err := DecodeQueryRequest(data)
		if err != nil {
			if len(data) > 0 && (data[0]&flagReserved != 0 || data[0]>>forceShift > byte(plan.ForceFull)) &&
				!errors.Is(err, ErrBadQueryFlags) {
				t.Fatalf("flags byte %#x refused with %v, want ErrBadQueryFlags", data[0], err)
			}
			return
		}
		if !force.Valid() || flags&^flagBits != 0 || flags&flagReserved != 0 {
			t.Fatalf("decoded out-of-range parts: flags %#x force %d", flags, int(force))
		}
		if flags&FlagEpoch == 0 && epoch != 0 {
			t.Fatalf("epoch %d without FlagEpoch", epoch)
		}
		if !bytes.Equal(EncodeQueryRequest(flags, force, epoch, q), data) {
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
