package bench

import (
	"fmt"
	"io"
	"time"

	"pdcquery/internal/core"
	"pdcquery/internal/plan"
	"pdcquery/internal/workload"
)

// PlanCacheRow is one round of the prepared-plan cache experiment: the
// text corpus answered once, with the fleet's cumulative plan-cache
// counters after the round.
type PlanCacheRow struct {
	// Round is the repetition index (0 = cold cache).
	Round int
	// Queries is the corpus size.
	Queries int
	// NHits sums the hits across the corpus (identical every round).
	NHits uint64
	// TimeNs is the summed modeled elapsed time of the round.
	TimeNs int64
	// CacheHits/CacheMisses are the fleet's cumulative plan-cache
	// counters after the round.
	CacheHits   uint64
	CacheMisses uint64
	// Speedup is relative to the cold round.
	Speedup float64
}

// planCacheRounds is how many times the corpus is replayed (round 0
// builds every plan; later rounds ride the LRU).
const planCacheRounds = 3

// planCacheCorpus is the text-statement corpus: every projection and a
// mix of single- and multi-object shapes, so each statement exercises
// the client's lowering, the planner, and the plan cache's key.
var planCacheCorpus = []string{
	"select count where Energy > 2",
	"select count where Energy between 1 and 2.5",
	"select ids where Energy > 2 and x < 100",
	"select ids where Energy < 0.5 or Energy > 3",
	"select count where 2 < Energy and Energy <= 3.5",
	"select hist(x, 32) where Energy > 1.5",
}

// PlanCacheRun measures the prepared-plan cache: the same declarative
// corpus replayed over one deployment under auto, the forcing that pays
// the prepare charge. The first round pays the full plan cost at every
// server; repeats hit the LRU and pay one lookup. Modeled time is
// virtual-clock, so the rows are deterministic.
func PlanCacheRun(c Config) ([]PlanCacheRow, error) {
	n := 1 << c.LogN
	v := workload.GenerateVPIC(n, c.Seed)
	rs := RegionSweep(n, 6)[0]
	model := scaledModel(n)

	d := core.NewDeployment(core.Options{
		Servers: 4, RegionBytes: rs.Bytes,
		BuildIndex: true, Model: &model,
	})
	defer d.Close()
	ids, err := ImportVPIC(d, v, workload.VPICNames...)
	if err != nil {
		return nil, err
	}
	if err := d.BuildSortedReplica(ids["Energy"]); err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		return nil, err
	}

	var rows []PlanCacheRow
	for round := 0; round < planCacheRounds; round++ {
		row := PlanCacheRow{Round: round, Queries: len(planCacheCorpus)}
		var total time.Duration
		for i, text := range planCacheCorpus {
			res, err := d.Client().RunText(text, plan.ForceAuto)
			if err != nil {
				return nil, fmt.Errorf("round %d query %d: %w", round, i, err)
			}
			total += res.Info.Elapsed.Total()
			row.NHits += res.Sel.NHits
		}
		row.TimeNs = int64(total)
		for _, s := range d.Servers() {
			reg := s.Metrics()
			row.CacheHits += uint64(reg.Counter("plan.cache_hits"))
			row.CacheMisses += uint64(reg.Counter("plan.cache_misses"))
		}
		rows = append(rows, row)
	}
	for i := range rows {
		rows[i].Speedup = float64(rows[0].TimeNs) / float64(rows[i].TimeNs)
	}
	return rows, nil
}

// PlanCachePrint renders the table.
func PlanCachePrint(w io.Writer, rows []PlanCacheRow) {
	printHeader(w, "Plan cache: declarative corpus replayed, cold vs warm")
	if len(rows) > 0 {
		fmt.Fprintf(w, "corpus: %d statements, %d total hits per round\n", rows[0].Queries, rows[0].NHits)
	}
	fmt.Fprintf(w, "%-8s %11s %9s %12s %12s\n", "round", "modeled", "speedup", "cache hits", "misses")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %s %8.3fx %12d %12d\n",
			r.Round, secs(time.Duration(r.TimeNs)), r.Speedup, r.CacheHits, r.CacheMisses)
	}
}

// PlanCacheCSV writes the rows as CSV.
func PlanCacheCSV(w io.Writer, rows []PlanCacheRow) {
	fmt.Fprintln(w, "round,queries,hits,modeled_s,speedup,cache_hits,cache_misses")
	for _, r := range rows {
		fmt.Fprintf(w, "%d,%d,%d,%.9f,%.4f,%d,%d\n",
			r.Round, r.Queries, r.NHits, time.Duration(r.TimeNs).Seconds(), r.Speedup, r.CacheHits, r.CacheMisses)
	}
}
