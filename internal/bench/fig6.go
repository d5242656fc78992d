package bench

import (
	"fmt"
	"io"
	"time"

	"pdcquery/internal/workload"
)

// Fig6Row is one (server count, approach) scalability measurement.
type Fig6Row struct {
	Servers     int
	Selectivity float64
	NHits       uint64
	Time        map[string]time.Duration
}

// fig6Approaches are the three optimized strategies the paper scales.
var fig6Approaches = []string{"PDC-H", "PDC-HI", "PDC-SH"}

// Fig6Run reproduces Fig. 6: one multi-object query (the paper's has
// 0.011% selectivity; we use the middle of the six-query set) evaluated
// with 32..512 PDC servers. More servers means fewer regions per server,
// so query time must fall.
func Fig6Run(c Config) ([]Fig6Row, error) {
	n := 1 << c.LogN
	v := workload.GenerateVPIC(n, c.Seed)
	// The smallest region size of the sweep gives every server work even
	// at 512 servers.
	rs := RegionSweep(n, 6)[0]

	var rows []Fig6Row
	for _, nsrv := range c.Fig6Servers {
		row, err := fig6Fleet(c, v, rs, nsrv)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// fig6Fleet runs Fig. 6's query on a fleet of nsrv servers.
func fig6Fleet(c Config, v *workload.VPIC, rs RegionSize, nsrv int) (Fig6Row, error) {
	d, ids, err := deployVPIC(v, nsrv, rs.Bytes, true, true, false)
	if err != nil {
		return Fig6Row{}, err
	}
	defer d.Close()
	q := workload.Fig6Query(ids.Energy, ids.X, ids.Y, ids.Z)
	row := Fig6Row{Servers: nsrv, Time: make(map[string]time.Duration)}
	for _, name := range fig6Approaches {
		d.ResetCaches()
		res, err := d.Client().Run(q, pdcStrategies[name])
		if err != nil {
			return Fig6Row{}, err
		}
		if c.Verify {
			truth, err := d.GroundTruth(q)
			if err != nil {
				return Fig6Row{}, err
			}
			if truth.NHits != res.Sel.NHits {
				return Fig6Row{}, fmt.Errorf("fig6 %s nsrv=%d: %d hits, truth %d", name, nsrv, res.Sel.NHits, truth.NHits)
			}
		}
		row.Time[name] = res.Info.Elapsed.Total()
		row.NHits = res.Sel.NHits
		row.Selectivity = 100 * float64(res.Sel.NHits) / float64(v.N)
	}
	return row, nil
}

// Fig6Print renders the table.
func Fig6Print(w io.Writer, rows []Fig6Row) {
	printHeader(w, "Fig. 6: scalability of a multi-object query")
	if len(rows) > 0 {
		fmt.Fprintf(w, "query selectivity: %.4f%% (%d hits)\n", rows[0].Selectivity, rows[0].NHits)
	}
	fmt.Fprintf(w, "%-10s", "servers")
	for _, a := range fig6Approaches {
		fmt.Fprintf(w, " %10s", a)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d", r.Servers)
		for _, a := range fig6Approaches {
			fmt.Fprintf(w, " %s", secs(r.Time[a]))
		}
		fmt.Fprintln(w)
	}
}
