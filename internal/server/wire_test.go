package server

import (
	"fmt"
	"math"
	"testing"

	"pdcquery/internal/exec"
	"pdcquery/internal/histogram"
	"pdcquery/internal/metadata"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/wiretest"
)

// noRest turns a decoder's leftover bytes into an error: an encoding
// the decoder does not consume to the end is not a round trip.
func noRest[T any](v T, rest []byte, err error) (T, error) {
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d bytes left after decode", len(rest))
	}
	return v, err
}

// TestWireRoundTrip is the round trip of every server codec, one subtest
// per encode/decode pair. The cases set every field to a value distinct
// from its same-typed siblings (wiretest enforces it), so a field the
// encoder and decoder disagree on — dropped on one side, or swapped with
// a neighbour — fails here.
func TestWireRoundTrip(t *testing.T) {
	t.Run("Stats", func(t *testing.T) {
		wiretest.RoundTrip(t, []exec.Stats{{
			RegionsEvaluated: 1, RegionsPruned: 2, SortedRegions: 3, ElementsScanned: 4,
			Probes: 5, IndexBinsRead: 6, IndexBytesRead: 7, CandChecks: 8, StorageBytes: 9,
		}}, func(s exec.Stats) (exec.Stats, error) { return noRest(decodeStats(encodeStats(nil, s))) })
	})
	tags := []metadata.TagCond{{Key: "run", Value: "vpic-7"}, {Key: "RADEG", Value: "153.17"}}
	t.Run("Tags", func(t *testing.T) {
		wiretest.RoundTrip(t, [][]metadata.TagCond{tags}, func(c []metadata.TagCond) ([]metadata.TagCond, error) {
			return noRest(decodeTags(encodeTags(nil, c)))
		})
	})
	t.Run("TagQuery", func(t *testing.T) {
		wiretest.RoundTrip(t, [][]metadata.TagCond{tags}, func(c []metadata.TagCond) ([]metadata.TagCond, error) {
			return DecodeTagQuery(EncodeTagQuery(c))
		})
	})
	t.Run("QueryResponse", func(t *testing.T) {
		span := telemetry.NewSpan(telemetry.SpanQuery, "server.0")
		span.Trace = 42
		span.Child(telemetry.SpanRegion, "region.3").SetInt("hits", 7)
		wiretest.RoundTrip(t, []*QueryResponse{{
			Cost:  sampleCost(),
			Stats: exec.Stats{RegionsEvaluated: 5, Probes: 50, StorageBytes: 4096},
			Sel:   packedSel([]uint64{3, 9, 100}, []uint64{1000}),
			Hist:  histogram.Build([]float64{1, 2, 3, math.Inf(1)}, 4),
			Trace: span,
		}}, func(r *QueryResponse) (*QueryResponse, error) { return DecodeQueryResponse(r.Encode()) })
	})
	t.Run("StatsResponse", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		reg.Add("msg.query", 5)
		reg.SetGauge("sessions.live", 2)
		reg.Observe("query.cost_ns", 1000)
		wiretest.RoundTrip(t, []*StatsResponse{{Cost: sampleCost(), Reg: reg}},
			func(r *StatsResponse) (*StatsResponse, error) { return DecodeStatsResponse(r.Encode()) })
	})
	t.Run("DataRequest", func(t *testing.T) {
		wiretest.RoundTrip(t, []*DataRequest{{Obj: 7, QueryReq: 99, Coords: []uint64{5, 10, 15}}},
			func(r *DataRequest) (*DataRequest, error) { return DecodeDataRequest(r.Encode()) })
	})
	t.Run("DataResponse", func(t *testing.T) {
		wiretest.RoundTrip(t, []*DataResponse{{Cost: sampleCost(), Coords: []uint64{1, 5}, Data: []byte{10, 20, 30}}},
			func(r *DataResponse) (*DataResponse, error) { return DecodeDataResponse(r.Encode()) })
	})
	t.Run("BusyResponse", func(t *testing.T) {
		wiretest.RoundTrip(t, []*BusyResponse{{RetryAfterNs: 1 << 40, Queued: 17}},
			func(r *BusyResponse) (*BusyResponse, error) { return DecodeBusyResponse(r.Encode()) })
	})
	t.Run("ExtentsResult", func(t *testing.T) {
		wiretest.RoundTrip(t, [][]Extent{{
			{Key: "obj/1/region/0", Present: true, Data: []byte{1, 2, 3}},
			{Key: "obj/1/region/9", Data: []byte{4}},
		}}, func(e []Extent) ([]Extent, error) { return DecodeExtentsResult(EncodeExtentsResult(e)) })
	})
}
