package core

import (
	"bytes"
	"strings"
	"testing"

	"pdcquery/internal/plan"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/workload"
)

// TestRecorderWorkerCountDeterminism extends the worker-count contract
// (TestWorkerCountDeterminism: selections, costs, traces) to the flight
// recorder: every server's encoded event stream — ordering, Seq
// numbers, vclock stamps, and the cache-traffic events aggregated at
// the merge barriers — must be byte-identical whether region evaluation
// runs serially or on 1, 4, or 16 workers. This is the regression gate
// for recording from inside pooled region tasks, where event order
// would depend on goroutine scheduling.
func TestRecorderWorkerCountDeterminism(t *testing.T) {
	for _, strat := range []plan.Force{plan.ForceScan, plan.ForceSorted} {
		t.Run(strat.String(), func(t *testing.T) {
			run := func(workers int) [][]byte {
				d, ids := vpicDeployment(t, 30000, Options{
					Servers: 4, RegionBytes: 8 << 10,
					BuildIndex: true, Workers: workers,
				}, strat)
				for _, q := range workload.SingleObjectQueries(ids["Energy"])[:4] {
					if _, err := d.Client().Run(q, strat); err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
				}
				streams := make([][]byte, 0, len(d.Servers()))
				for _, srv := range d.Servers() {
					events, total := srv.Recorder().SnapshotTotal()
					if total == 0 {
						t.Fatalf("workers=%d: server recorded no events", workers)
					}
					streams = append(streams, telemetry.EncodeEvents(events, total))
				}
				return streams
			}
			base := run(0)
			// The gate only means something if the contested events are in
			// the stream: region evaluation must have produced cache
			// traffic (recorded via the merge-barrier aggregation path).
			var cacheEvents int
			for _, enc := range base {
				events, _, err := telemetry.DecodeEvents(enc)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range events {
					switch e.Kind {
					case telemetry.EvCacheHit, telemetry.EvCacheMiss, telemetry.EvCacheEvict:
						cacheEvents++
					}
				}
			}
			if cacheEvents == 0 {
				t.Fatal("no cache events in the recorded streams: the workload does not exercise the aggregation path")
			}
			for _, workers := range []int{1, 4, 16} {
				got := run(workers)
				for i := range base {
					if !bytes.Equal(got[i], base[i]) {
						t.Errorf("workers=%d: server %d event stream differs from serial run:\n--- serial\n%s\n--- parallel\n%s",
							workers, i, renderStream(t, base[i]), renderStream(t, got[i]))
					}
				}
			}
		})
	}
}

// renderStream decodes an encoded event stream back to the /debug/events
// text form for failure diffs.
func renderStream(t *testing.T, enc []byte) string {
	t.Helper()
	events, total, err := telemetry.DecodeEvents(enc)
	if err != nil {
		t.Fatalf("decode event stream: %v", err)
	}
	var sb strings.Builder
	_ = telemetry.WriteEvents(&sb, events, total)
	return sb.String()
}
