package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// testConfig is a scaled-down configuration that keeps every experiment
// path exercised (and verified against ground truth) while staying fast.
func testConfig() Config {
	return Config{
		LogN:        19,
		Servers:     4,
		Seed:        42,
		Verify:      true,
		BOSSObjects: 3000,
		FluxLen:     100,
		RegionSteps: 3,
		Fig6Servers: []int{4, 8, 16},
	}
}

func TestRegionSweep(t *testing.T) {
	sweep := RegionSweep(1<<22, 6)
	if len(sweep) != 6 {
		t.Fatalf("sweep steps = %d", len(sweep))
	}
	if sweep[0].PaperLabel != "4MB" || sweep[5].PaperLabel != "128MB" {
		t.Errorf("labels = %s..%s", sweep[0].PaperLabel, sweep[5].PaperLabel)
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].Bytes != 2*sweep[i-1].Bytes {
			t.Errorf("sweep not doubling: %v", sweep)
		}
	}
	// Tiny datasets clamp to the floor and merge duplicated sizes into
	// one labeled step.
	small := RegionSweep(1<<12, 6)
	if len(small) != 1 {
		t.Errorf("tiny sweep = %v, want one merged step", small)
	}
	if small[0].PaperLabel != "4-128MB" {
		t.Errorf("merged label = %q", small[0].PaperLabel)
	}
	// At 2^20 the first three steps hit the 16KB floor: 4 distinct sizes.
	if got := RegionSweep(1<<20, 0); len(got) != 4 {
		t.Errorf("default steps = %d (%v)", len(got), got)
	}
}

func TestFig3ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := testConfig()
	rows, err := Fig3Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows)%15 != 0 || len(rows) == 0 {
		t.Fatalf("rows = %d, want a positive multiple of 15", len(rows))
	}
	for _, r := range rows {
		for _, a := range Approaches {
			if r.QueryTime[a] <= 0 {
				t.Fatalf("%s %s: no time for %s", r.Region.PaperLabel, r.Label, a)
			}
		}
		// Selectivity decreases along the window index (allowing ties at
		// the sparse tail).
		if r.QueryIdx == 0 && (r.Selectivity < 0.5 || r.Selectivity > 3) {
			t.Errorf("first window selectivity %.4f%%, paper ~1.30%%", r.Selectivity)
		}
	}
	// The paper's §VI-A claims. Cold-start times isolate the strategies'
	// storage behaviour (at paper scale the caches never hold the whole
	// dataset, so the paper's curves reflect this ordering); warm times
	// show the §VI-A caching effect for the sequential batch.
	for _, r := range rows {
		// Warm, after the first query: every optimized strategy beats the
		// amortized full scans.
		if r.QueryIdx >= 1 && r.QueryIdx <= 6 {
			if 2*r.QueryTime["PDC-H"] > r.QueryTime["PDC-F"] {
				t.Errorf("%s %s: warm PDC-H (%v) not 2x faster than PDC-F (%v)",
					r.Region.PaperLabel, r.Label, r.QueryTime["PDC-H"], r.QueryTime["PDC-F"])
			}
			if r.QueryTime["PDC-SH"] > r.QueryTime["PDC-F"] {
				t.Errorf("%s %s: warm PDC-SH (%v) slower than PDC-F (%v)",
					r.Region.PaperLabel, r.Label, r.QueryTime["PDC-SH"], r.QueryTime["PDC-F"])
			}
		}
		// PDC-F roughly 2x faster than HDF5-F (both amortized).
		if r.QueryTime["PDC-F"] > r.QueryTime["HDF5-F"] {
			t.Errorf("%s %s: PDC-F (%v) slower than HDF5-F (%v)",
				r.Region.PaperLabel, r.Label, r.QueryTime["PDC-F"], r.QueryTime["HDF5-F"])
		}
		// Cold: the paper's strategy ordering on the selective windows.
		if r.QueryIdx >= 2 && r.QueryIdx <= 8 {
			if r.ColdTime["PDC-SH"] > r.ColdTime["PDC-H"] {
				t.Errorf("%s %s: cold PDC-SH (%v) slower than PDC-H (%v)",
					r.Region.PaperLabel, r.Label, r.ColdTime["PDC-SH"], r.ColdTime["PDC-H"])
			}
			if r.ColdTime["PDC-HI"] > r.ColdTime["PDC-H"] {
				t.Errorf("%s %s: cold PDC-HI (%v) slower than PDC-H (%v)",
					r.Region.PaperLabel, r.Label, r.ColdTime["PDC-HI"], r.ColdTime["PDC-H"])
			}
			if r.ColdTime["PDC-H"] > r.ColdTime["HDF5-F"] {
				t.Errorf("%s %s: cold PDC-H (%v) slower than a full HDF5 scan (%v)",
					r.Region.PaperLabel, r.Label, r.ColdTime["PDC-H"], r.ColdTime["HDF5-F"])
			}
		}
	}
	// PDC-HI reads the index, not the data: fetching the actual values
	// afterwards costs more than for the caching strategies (paper: "the
	// total time to get query results and the data may be similar or even
	// longer").
	first := rows[0]
	if first.GetDataTime["PDC-HI"] < first.GetDataTime["PDC-H"] {
		t.Errorf("PDC-HI get-data (%v) unexpectedly faster than PDC-H (%v)",
			first.GetDataTime["PDC-HI"], first.GetDataTime["PDC-H"])
	}
	// Printing produces one table per distinct region size.
	var buf bytes.Buffer
	Fig3Print(&buf, rows)
	if got := strings.Count(buf.String(), "Fig. 3"); got != len(rows)/15 {
		t.Errorf("printed %d tables, want %d", got, len(rows)/15)
	}
	buf.Reset()
	Fig3Speedups(&buf, rows)
	if !strings.Contains(buf.String(), "speedups over HDF5-F") || !strings.Contains(buf.String(), "x") {
		t.Errorf("speedup summary missing: %q", buf.String())
	}
	buf.Reset()
	Fig3CSV(&buf, rows)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rows)+1 {
		t.Errorf("CSV lines = %d, want %d", len(lines), len(rows)+1)
	}
	if !strings.HasPrefix(lines[0], "region,paper_region,query") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := testConfig()
	rows, err := Fig4Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for k, r := range rows {
		for _, a := range Approaches {
			if r.QueryTime[a] <= 0 {
				t.Fatalf("query %d: no time for %s", k, a)
			}
		}
		// Every optimized approach beats the full scans.
		if r.QueryTime["PDC-H"] > r.QueryTime["PDC-F"] {
			t.Errorf("query %d: PDC-H slower than PDC-F", k)
		}
		if r.QueryTime["PDC-HI"] > r.QueryTime["HDF5-F"] {
			t.Errorf("query %d: PDC-HI slower than HDF5-F", k)
		}
	}
	// First query: highly selective on Energy. At paper scale the hits
	// spread over many sorted regions and PDC-SH wins outright; at this
	// scale all hits land in one sorted region, so one server runs the
	// whole probe phase serially (see EXPERIMENTS.md). Assert the sorted
	// path stays in the same league rather than strictly ahead.
	if rows[0].QueryTime["PDC-SH"] > 3*rows[0].QueryTime["PDC-H"] {
		t.Errorf("query 0: PDC-SH (%v) far slower than PDC-H (%v)",
			rows[0].QueryTime["PDC-SH"], rows[0].QueryTime["PDC-H"])
	}
	// Last query: x is the most selective condition, so the engine
	// evaluates x first and the sorted replica cannot help — PDC-SH falls
	// back to the histogram path and matches PDC-H (the paper's Fig. 4
	// observation for its last two queries).
	last := rows[len(rows)-1]
	ratio := float64(last.QueryTime["PDC-SH"]) / float64(last.QueryTime["PDC-H"])
	if ratio < 0.75 || ratio > 1.35 {
		t.Errorf("last query: PDC-SH/PDC-H = %.2f, want ~1 (fallback)", ratio)
	}
	var buf bytes.Buffer
	Fig4Print(&buf, rows)
	if !strings.Contains(buf.String(), "Fig. 4") {
		t.Error("print missing banner")
	}
	buf.Reset()
	Fig4CSV(&buf, rows)
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != len(rows)+1 {
		t.Errorf("fig4 csv lines = %d", got)
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := testConfig()
	rows, err := Fig5Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's multi-fold speedup from the metadata service: PDC
		// locates the 1000 objects instantly instead of traversing all
		// files.
		if 2*r.Time["PDC-H"] > r.Time["HDF5"] {
			t.Errorf("%s: PDC-H (%v) not clearly faster than HDF5 (%v)", r.Label, r.Time["PDC-H"], r.Time["HDF5"])
		}
		if r.Time["PDC-HI"] <= 0 {
			t.Errorf("%s: no PDC-HI time", r.Label)
		}
	}
	// Selectivity spans roughly the paper's 11%..65%.
	if rows[0].Selectivity > 25 || rows[len(rows)-1].Selectivity < 45 {
		t.Errorf("selectivity span = %.1f%%..%.1f%%, want ~11..65",
			rows[0].Selectivity, rows[len(rows)-1].Selectivity)
	}
	var buf bytes.Buffer
	Fig5Print(&buf, rows)
	if !strings.Contains(buf.String(), "Fig. 5") {
		t.Error("print missing banner")
	}
	buf.Reset()
	Fig5CSV(&buf, rows)
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != len(rows)+1 {
		t.Errorf("fig5 csv lines = %d", got)
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := testConfig()
	rows, err := Fig6Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(c.Fig6Servers) {
		t.Fatalf("rows = %d", len(rows))
	}
	// More servers -> lower query time (the paper's scalability claim),
	// comparing the extremes. PDC-SH is exempt: the scalability query is
	// deliberately weak on the sort key so its surviving regions
	// outnumber the fleet (see EXPERIMENTS.md), which sidelines the
	// sorted replica.
	firstRow, lastRow := rows[0], rows[len(rows)-1]
	for _, a := range []string{"PDC-H", "PDC-HI"} {
		if lastRow.Time[a] >= firstRow.Time[a] {
			t.Errorf("%s: %d servers (%v) not faster than %d servers (%v)",
				a, lastRow.Servers, lastRow.Time[a], firstRow.Servers, firstRow.Time[a])
		}
	}
	if lastRow.Time["PDC-SH"] <= 0 {
		t.Error("PDC-SH missing from the scalability sweep")
	}
	// The answer is identical at every scale.
	for _, r := range rows[1:] {
		if r.NHits != rows[0].NHits {
			t.Errorf("nhits varies with server count: %d vs %d", r.NHits, rows[0].NHits)
		}
	}
	var buf bytes.Buffer
	Fig6Print(&buf, rows)
	if !strings.Contains(buf.String(), "Fig. 6") {
		t.Error("print missing banner")
	}
	buf.Reset()
	Fig6CSV(&buf, rows)
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != len(rows)+1 {
		t.Errorf("fig6 csv lines = %d", got)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := testConfig()

	agg, err := AblationAggregation(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 2 {
		t.Fatalf("aggregation rows = %d", len(agg))
	}
	if agg[0].Time > agg[1].Time {
		t.Errorf("aggregated reads (%v) slower than per-request (%v)", agg[0].Time, agg[1].Time)
	}

	gh, err := AblationGlobalHistogram(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(gh) != 2 {
		t.Fatalf("global-histogram rows = %d", len(gh))
	}
	if gh[0].Time > gh[1].Time {
		t.Errorf("histogram ordering (%v) slower than minmax-only (%v)", gh[0].Time, gh[1].Time)
	}

	sorted, err := AblationSorted(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != 2 {
		t.Fatalf("sorted rows = %d", len(sorted))
	}
	if sorted[1].Time > sorted[0].Time {
		t.Errorf("PDC-SH (%v) slower than PDC-H (%v) on a selective query", sorted[1].Time, sorted[0].Time)
	}

	comp, err := AblationCompanions(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) != 2 {
		t.Fatalf("companion rows = %d", len(comp))
	}
	if comp[1].Time > comp[0].Time {
		t.Errorf("companions (%v) slower than sorted-only (%v)", comp[1].Time, comp[0].Time)
	}

	tier, err := AblationTiering(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tier) != 2 {
		t.Fatalf("tiering rows = %d", len(tier))
	}
	if tier[1].Time >= tier[0].Time {
		t.Errorf("burst buffer (%v) not faster than PFS (%v)", tier[1].Time, tier[0].Time)
	}

	var buf bytes.Buffer
	if err := Ablations(&buf, c); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"read-aggregation", "global-histogram", "sorted-replica", "co-sorted-companions", "tier-staging"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

func TestSecsFormatting(t *testing.T) {
	if got := strings.TrimSpace(secs(1500 * time.Millisecond)); got != "1.500000" {
		t.Errorf("secs = %q", got)
	}
}
