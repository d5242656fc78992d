package telemetry

import (
	"testing"
	"time"

	"pdcquery/internal/vclock"
	"pdcquery/internal/wiretest"
)

// TestWireRoundTrip is the round trip of every telemetry codec, one
// subtest per encode/decode pair. The cases set every field to a value
// distinct from its same-typed siblings (wiretest enforces it), so a
// field the encoder and decoder disagree on — dropped on one side, or
// swapped with a neighbour — fails here.
func TestWireRoundTrip(t *testing.T) {
	t.Run("Span", func(t *testing.T) {
		root := NewSpan(SpanQuery, "server.0")
		root.Trace = 42
		root.Cost = vclock.CostOf(vclock.Storage, 3*time.Second).Add(vclock.CostOf(vclock.Compute, time.Millisecond))
		root.WallNanos = 1500
		root.SetInt("hits", 7)
		region := root.Child(SpanRegion, "region.3")
		region.SetStr("decision", DecisionHistogramPruned)
		region.WallNanos = 900
		wiretest.RoundTrip(t, []*Span{root}, func(s *Span) (*Span, error) { return DecodeSpan(s.Encode(true)) })
	})
	t.Run("Registry", func(t *testing.T) {
		r := NewRegistry()
		r.Add("a.count", 7)
		r.SetGauge("g", 3.5)
		r.Observe("d", 1)
		r.Observe("d", 42)
		wiretest.RoundTrip(t, []*Registry{r}, func(r *Registry) (*Registry, error) { return DecodeRegistry(r.Encode()) })
	})
	t.Run("Events", func(t *testing.T) {
		events := []Event{
			{Seq: 11, VNanos: 1200, Kind: EvAdmit, Code: 3, Srv: 2, A: 77, B: 88},
			{Seq: 12, VNanos: 1300, Kind: EvPhase, Code: 1, Srv: -1, A: -5, B: 9},
		}
		wiretest.RoundTrip(t, [][]Event{events}, func(ev []Event) ([]Event, error) {
			got, total, err := DecodeEvents(EncodeEvents(ev, 13))
			if err == nil && total != 13 {
				t.Errorf("total = %d, want 13", total)
			}
			return got, err
		}, "Event.WallNanos")
	})
}
