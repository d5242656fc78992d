package bench

import (
	"fmt"
	"io"
	"time"

	"pdcquery/internal/core"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/simio"
	"pdcquery/internal/workload"
)

// AblationRow is one toggle comparison.
type AblationRow struct {
	Name    string
	Variant string
	Time    time.Duration
	Extra   string
}

// AblationAggregation toggles read aggregation (§III-E): the PDC-HI
// strategy reads many small bin blobs per region, so merging nearby
// requests is the difference between paying one latency per bin and one
// per region.
func AblationAggregation(c Config) ([]AblationRow, error) {
	n := 1 << c.LogN
	v := workload.GenerateVPIC(n, c.Seed)
	rs := bestRegion(n)
	d, ids, err := deployVPIC(v, c.Servers, rs.Bytes, true, false, false)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	q := &query.Query{Root: query.Between(ids.Energy, 2.1, 2.4, false, false)}

	var rows []AblationRow
	for _, agg := range []bool{true, false} {
		d.Store().SetAggregate(agg)
		d.ResetCaches()
		res, err := d.Client().Run(q, plan.ForceBitmap)
		if err != nil {
			return nil, err
		}
		variant := "aggregated"
		if !agg {
			variant = "per-request"
		}
		rows = append(rows, AblationRow{
			Name: "read-aggregation", Variant: variant,
			Time:  res.Info.Elapsed.Total(),
			Extra: fmt.Sprintf("index bins read: %d", res.Info.Stats.IndexBinsRead),
		})
	}
	d.Store().SetAggregate(true)
	return rows, nil
}

// AblationGlobalHistogram compares full global histograms against
// min/max-only region metadata (§IV): without histograms the planner
// loses selectivity-based condition ordering, so multi-object queries
// whose most selective condition is not the first object probe far more
// elements.
func AblationGlobalHistogram(c Config) ([]AblationRow, error) {
	n := 1 << c.LogN
	v := workload.GenerateVPIC(n, c.Seed)
	rs := bestRegion(n)

	var rows []AblationRow
	for _, disable := range []bool{false, true} {
		row, err := globalHistogramOnce(v, c.Servers, rs.Bytes, disable)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// globalHistogramOnce runs the ablation's query on one deployment, with
// or without histograms.
func globalHistogramOnce(v *workload.VPIC, servers int, regionBytes int64, disable bool) (AblationRow, error) {
	d := core.NewDeployment(core.Options{
		Servers: servers, RegionBytes: regionBytes, DisableHistograms: disable,
	})
	defer d.Close()
	ids, err := ImportVPIC(d, v, workload.VPICNames...)
	if err != nil {
		return AblationRow{}, err
	}
	if err := d.Start(); err != nil {
		return AblationRow{}, err
	}
	// A query where evaluation order matters: the y window is ~1%
	// selective while Energy > 0.5 keeps ~9% of particles. With the
	// global histogram the planner evaluates y first and probes few
	// locations; without it, ID order puts Energy first and the probe
	// volume grows ~9x.
	q := &query.Query{Root: query.And(
		query.Leaf(ids["Energy"], query.OpGT, 0.5),
		query.Between(ids["y"], -3, 3, false, false))}
	res, err := d.Client().Run(q, plan.ForceScan)
	if err != nil {
		return AblationRow{}, err
	}
	variant := "global-histogram"
	if disable {
		variant = "minmax-only"
	}
	return AblationRow{
		Name: "global-histogram", Variant: variant,
		Time:  res.Info.Elapsed.Total(),
		Extra: fmt.Sprintf("probes: %d, pruned: %d", res.Info.Stats.Probes, res.Info.Stats.RegionsPruned),
	}, nil
}

// AblationSorted contrasts PDC-H and PDC-SH on a highly selective
// single-object query (the regime where the paper reports >1000x over
// full scan for the sorted replica), reporting both query and get-data
// time — the latter shows the fewer-servers transfer penalty (§VI-A).
func AblationSorted(c Config) ([]AblationRow, error) {
	n := 1 << c.LogN
	v := workload.GenerateVPIC(n, c.Seed)
	rs := bestRegion(n)
	d, ids, err := deployVPIC(v, c.Servers, rs.Bytes, false, true, false)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	q := workload.SingleObjectQueries(ids.Energy)[14] // 3.5 < E < 3.6

	var rows []AblationRow
	for _, name := range []string{"PDC-H", "PDC-SH"} {
		d.ResetCaches()
		res, err := d.Client().Run(q, pdcStrategies[name])
		if err != nil {
			return nil, err
		}
		var gd time.Duration
		if res.Sel.NHits > 0 {
			_, dinfo, err := res.GetData(ids.Energy)
			if err != nil {
				return nil, err
			}
			gd = dinfo.Elapsed.Total()
		}
		rows = append(rows, AblationRow{
			Name: "sorted-replica", Variant: name,
			Time:  res.Info.Elapsed.Total(),
			Extra: fmt.Sprintf("get-data: %.4fs, regions: %d eval / %d sorted", gd.Seconds(), res.Info.Stats.RegionsEvaluated, res.Info.Stats.SortedRegions),
		})
	}
	return rows, nil
}

// AblationCompanions contrasts the plain energy-sorted replica with one
// extended by co-sorted x/y/z companions (the paper's §IX future work)
// on the most energy-selective multi-object query: companion probing
// reads contiguous co-sorted extents instead of scattered original
// regions.
func AblationCompanions(c Config) ([]AblationRow, error) {
	n := 1 << c.LogN
	v := workload.GenerateVPIC(n, c.Seed)
	rs := bestRegion(n)

	var rows []AblationRow
	for _, withComp := range []bool{false, true} {
		d, ids, err := deployVPIC(v, c.Servers, rs.Bytes, false, true, withComp)
		if err != nil {
			return nil, err
		}
		q := workload.MultiObjectQueries(ids.Energy, ids.X, ids.Y, ids.Z)[0]
		res, err := d.Client().Run(q, plan.ForceSorted)
		if err != nil {
			d.Close()
			return nil, err
		}
		var ops int64
		for _, s := range d.Servers() {
			ops += s.Account().Counter("read.ops")
		}
		variant := "sorted-only"
		if withComp {
			variant = "with-companions"
		}
		rows = append(rows, AblationRow{
			Name: "co-sorted-companions", Variant: variant,
			Time:  res.Info.Elapsed.Total(),
			Extra: fmt.Sprintf("read ops: %d, hits: %d", ops, res.Sel.NHits),
		})
		d.Close()
	}
	return rows, nil
}

// AblationTiering stages the queried object from the parallel file
// system into the burst buffer (PDC's transparent data movement, §II)
// and measures the cold-query difference.
func AblationTiering(c Config) ([]AblationRow, error) {
	n := 1 << c.LogN
	v := workload.GenerateVPIC(n, c.Seed)
	rs := bestRegion(n)
	d, ids, err := deployVPIC(v, c.Servers, rs.Bytes, false, false, false)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	q := &query.Query{Root: query.Between(ids.Energy, 2.1, 2.4, false, false)}

	var rows []AblationRow
	for _, staged := range []bool{false, true} {
		if staged {
			if err := d.MigrateObject(ids.Energy, simio.BurstBuffer); err != nil {
				return nil, err
			}
		}
		d.ResetCaches()
		res, err := d.Client().Run(q, plan.ForceScan)
		if err != nil {
			return nil, err
		}
		variant := "pfs"
		if staged {
			variant = "burst-buffer"
		}
		rows = append(rows, AblationRow{
			Name: "tier-staging", Variant: variant,
			Time:  res.Info.Elapsed.Total(),
			Extra: fmt.Sprintf("hits: %d", res.Sel.NHits),
		})
	}
	return rows, nil
}

// Ablations runs all ablation experiments and prints them.
func Ablations(w io.Writer, c Config) error {
	printHeader(w, "Ablations: design-choice toggles")
	for _, run := range []func(Config) ([]AblationRow, error){
		AblationAggregation, AblationGlobalHistogram, AblationSorted,
		AblationCompanions, AblationTiering,
	} {
		rows, err := run(c)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-20s %-18s %s   %s\n", r.Name, r.Variant, secs(r.Time), r.Extra)
		}
	}
	return nil
}
