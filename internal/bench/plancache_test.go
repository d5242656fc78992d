package bench

import "testing"

// TestPlanCacheCounters keeps what the plan-cache figure records beyond
// time: round 0 misses every statement at every server (6 statements x 4
// servers), each later round hits all 24, and the corpus's answer is the
// same every round.
func TestPlanCacheCounters(t *testing.T) {
	rows, err := PlanCacheRun(Config{LogN: 16, Seed: 42})
	if err != nil {
		t.Fatalf("PlanCacheRun: %v", err)
	}
	want := []struct{ hits, misses uint64 }{{0, 24}, {24, 24}, {48, 24}}
	if len(rows) != len(want) {
		t.Fatalf("rounds = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.CacheHits != want[i].hits || r.CacheMisses != want[i].misses {
			t.Errorf("round %d: cache hits/misses = %d/%d, want %d/%d",
				r.Round, r.CacheHits, r.CacheMisses, want[i].hits, want[i].misses)
		}
		if r.NHits != rows[0].NHits {
			t.Errorf("round %d: %d hits, round 0 %d", r.Round, r.NHits, rows[0].NHits)
		}
	}
}
