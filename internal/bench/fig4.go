package bench

import (
	"fmt"
	"io"
	"time"

	"pdcquery/internal/baseline"
	"pdcquery/internal/plan"
	"pdcquery/internal/workload"
)

// Fig4Row is one multi-object query of Fig. 4.
type Fig4Row struct {
	QueryIdx    int
	Label       string
	Selectivity float64
	NHits       uint64
	QueryTime   map[string]time.Duration
	GetDataTime map[string]time.Duration
}

// Fig4Run reproduces Fig. 4: the six (Energy, x, y, z) queries at the
// best region size (the paper's 32 MB equivalent — the 4th step of the
// sweep).
func Fig4Run(c Config) ([]Fig4Row, error) {
	n := 1 << c.LogN
	v := workload.GenerateVPIC(n, c.Seed)
	rs := bestRegion(n) // the paper's 32MB-equivalent step
	d, ids, err := deployVPIC(v, c.Servers, rs.Bytes, true, true, false)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	queries := workload.MultiObjectQueries(ids.Energy, ids.X, ids.Y, ids.Z)
	rows := make([]Fig4Row, len(queries))
	for k := range rows {
		rows[k] = Fig4Row{
			QueryIdx: k, Label: workload.MultiQueryLabel(k),
			QueryTime:   make(map[string]time.Duration),
			GetDataTime: make(map[string]time.Duration),
		}
	}

	hcfg := baseline.DefaultConfig(d.Store().Model(), c.Servers)
	for k, q := range queries {
		res, err := baseline.FullScan(d.Store(), d.Meta().Get, q, hcfg)
		if err != nil {
			return nil, err
		}
		rows[k].QueryTime["HDF5-F"] = baseline.AmortizedElapsed(res.ReadElapsed, res.ScanElapsed, len(queries))
		rows[k].NHits = res.NHits
		rows[k].Selectivity = 100 * float64(res.NHits) / float64(n)
	}

	for _, name := range Approaches[1:] {
		strat := pdcStrategies[name]
		d.ResetCaches()
		var times []time.Duration
		for k, q := range queries {
			res, err := d.Client().Run(q, strat)
			if err != nil {
				return nil, err
			}
			if c.Verify {
				truth, err := d.GroundTruth(q)
				if err != nil {
					return nil, err
				}
				if truth.NHits != res.Sel.NHits {
					return nil, fmt.Errorf("fig4 %s q%d: %d hits, truth %d", name, k, res.Sel.NHits, truth.NHits)
				}
			}
			times = append(times, res.Info.Elapsed.Total())
			if res.Sel.NHits > 0 {
				_, dinfo, err := res.GetData(ids.Energy)
				if err != nil {
					return nil, err
				}
				rows[k].GetDataTime[name] = dinfo.Elapsed.Total()
			}
		}
		if strat == plan.ForceFull {
			var total time.Duration
			for _, t := range times {
				total += t
			}
			avg := total / time.Duration(len(times))
			for k := range rows {
				rows[k].QueryTime[name] = avg
			}
		} else {
			for k := range rows {
				rows[k].QueryTime[name] = times[k]
			}
		}
	}
	return rows, nil
}

// Fig4Print renders the table.
func Fig4Print(w io.Writer, rows []Fig4Row) {
	printHeader(w, "Fig. 4: multi-object (Energy,x,y,z) queries — 32MB-equivalent regions")
	fmt.Fprintf(w, "%-40s %10s %8s", "query", "sel%", "nhits")
	for _, a := range Approaches {
		fmt.Fprintf(w, " %10s", a)
	}
	for _, a := range Approaches[1:] {
		fmt.Fprintf(w, " %10s", a+"+gd")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-40s %10.4f %8d", r.Label, r.Selectivity, r.NHits)
		for _, a := range Approaches {
			fmt.Fprintf(w, " %s", secs(r.QueryTime[a]))
		}
		for _, a := range Approaches[1:] {
			fmt.Fprintf(w, " %s", secs(r.QueryTime[a]+r.GetDataTime[a]))
		}
		fmt.Fprintln(w)
	}
}
