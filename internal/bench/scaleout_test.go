package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestScaleoutShape runs the scale-out figure at a reduced scale with
// brute-force verification: every row must answer the corpus exactly
// (the byte-identical check happens inside ScaleoutRun when Verify is
// set), every row must agree on the hit total, and spreading the
// dataset over more members must never slow the modeled corpus down.
func TestScaleoutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep skipped in -short")
	}
	c := testConfig()
	c.LogN = 16
	rows, err := ScaleoutRun(c)
	if err != nil {
		t.Fatalf("ScaleoutRun: %v", err)
	}
	if len(rows) != len(ScaleoutMembers) {
		t.Fatalf("rows = %d, want %d", len(rows), len(ScaleoutMembers))
	}
	for i, r := range rows {
		if r.Members != ScaleoutMembers[i] {
			t.Errorf("row %d members = %d, want %d", i, r.Members, ScaleoutMembers[i])
		}
		if r.NHits != rows[0].NHits {
			t.Errorf("members=%d hits = %d, want %d (answers must not depend on cluster size)",
				r.Members, r.NHits, rows[0].NHits)
		}
		if r.TimeNs <= 0 {
			t.Errorf("members=%d modeled time = %d, want > 0", r.Members, r.TimeNs)
		}
	}
	// The headline claim: a bigger cluster is no slower (small datasets
	// bottom out on fixed per-query costs, so allow 10% jitter per step),
	// and the largest sweep point is strictly faster than the baseline.
	for i := 1; i < len(rows); i++ {
		if rows[i].TimeNs > rows[i-1].TimeNs+rows[i-1].TimeNs/10 {
			t.Errorf("members=%d modeled %dns > members=%d %dns (scale-out regressed)",
				rows[i].Members, rows[i].TimeNs, rows[i-1].Members, rows[i-1].TimeNs)
		}
	}
	if last := rows[len(rows)-1]; last.Speedup <= 1.0 {
		t.Errorf("members=%d speedup = %.2f, want > 1", last.Members, last.Speedup)
	}

	var tbl, csv bytes.Buffer
	ScaleoutPrint(&tbl, rows)
	if !strings.Contains(tbl.String(), "members") {
		t.Errorf("print output missing header:\n%s", tbl.String())
	}
	ScaleoutCSV(&csv, rows)
	if got := strings.Count(csv.String(), "\n"); got != len(rows)+1 {
		t.Errorf("csv lines = %d, want %d", got, len(rows)+1)
	}

}
