package bench

import (
	"fmt"
	"io"
	"time"

	"pdcquery/internal/baseline"
	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/vclock"
	"pdcquery/internal/workload"
)

// Fig5Row is one BOSS metadata+data query.
type Fig5Row struct {
	Label       string
	Selectivity float64 // data selectivity over the matched objects, percent
	NHits       uint64
	Time        map[string]time.Duration
}

// fig5Approaches are the series in the paper's Fig. 5.
var fig5Approaches = []string{"HDF5", "PDC-H", "PDC-HI"}

// Fig5Run reproduces Fig. 5: a metadata condition (RADEG=… AND DECDEG=…)
// fixing 1000 fiber objects, combined with a flux-range data condition of
// varying selectivity. The HDF5 baseline traverses every file; PDC
// resolves the metadata query from the tag index and evaluates data
// conditions only on the matching objects.
func Fig5Run(c Config) ([]Fig5Row, error) {
	objs := workload.GenerateBOSS(c.BOSSObjects, c.FluxLen, c.Seed)

	d := core.NewDeployment(core.Options{
		Servers:     c.Servers,
		RegionBytes: 1 << 20, // each fiber is far smaller: one region per object (§VI-C)
		BuildIndex:  true,
	})
	defer d.Close()
	cont := d.CreateContainer("h5boss")
	ids := make([]object.ID, len(objs))
	for i, bo := range objs {
		o, err := d.ImportObject(cont.ID, object.Property{
			Name: bo.Name, Type: dtype.Float32, Dims: []uint64{uint64(len(bo.Flux))},
			Tags: map[string]string{"RADEG": bo.RADeg, "DECDEG": bo.DECDeg},
		}, dtype.Bytes(bo.Flux))
		if err != nil {
			return nil, err
		}
		ids[i] = o.ID
	}
	if err := d.Start(); err != nil {
		return nil, err
	}

	// The metadata condition: the first group's sky position (1000
	// objects, as in the paper).
	tagConds := []metadata.TagCond{
		{Key: "RADEG", Value: objs[0].RADeg},
		{Key: "DECDEG", Value: objs[0].DECDeg},
	}
	files := make([]baseline.BOSSFile, len(objs))
	for i, bo := range objs {
		files[i] = baseline.BOSSFile{
			Tags: map[string]string{"RADEG": bo.RADeg, "DECDEG": bo.DECDeg},
			Flux: bo.Flux,
		}
	}
	hcfg := baseline.DefaultConfig(d.Store().Model(), c.Servers)

	serverCosts := func() []vclock.Cost {
		out := make([]vclock.Cost, len(d.Servers()))
		for i, s := range d.Servers() {
			out[i] = s.Account().Cost()
		}
		return out
	}

	var rows []Fig5Row
	for k, lo := range workload.BOSSDataBounds {
		iv := query.Interval{Lo: lo, Hi: 20, LoIncl: false, HiIncl: false}
		row := Fig5Row{Label: workload.BOSSQueryLabel(k), Time: make(map[string]time.Duration)}

		// HDF5: traverse all files.
		bres := baseline.BOSSScan(files, map[string]string{
			"RADEG": objs[0].RADeg, "DECDEG": objs[0].DECDeg,
		}, iv, hcfg)
		row.Time["HDF5"] = bres.Elapsed()
		row.NHits = bres.NHits
		matchedElems := float64(workload.BOSSGroupSize * c.FluxLen)
		row.Selectivity = 100 * float64(bres.NHits) / matchedElems

		// PDC: tag query locates the objects, then the data condition is
		// evaluated over those objects only. Servers work in parallel
		// (each object's single region is owned by one server), so the
		// parallel elapsed is the slowest server's account delta.
		for _, name := range []string{"PDC-H", "PDC-HI"} {
			d.ResetCaches()

			matched, tagInfo, err := d.Client().QueryTag(tagConds)
			if err != nil {
				return nil, err
			}
			if len(matched) != workload.BOSSGroupSize {
				return nil, fmt.Errorf("fig5: tag query matched %d objects, want %d", len(matched), workload.BOSSGroupSize)
			}
			before := serverCosts()
			var nhits uint64
			var wire time.Duration
			for _, id := range matched {
				q := &query.Query{Root: query.Between(id, lo, 20, false, false)}
				res, err := d.Client().RunCount(q, pdcStrategies[name])
				if err != nil {
					return nil, err
				}
				nhits += res.Sel.NHits
				wire += res.Info.Elapsed.Part(vclock.Network) / time.Duration(len(matched))
			}
			after := serverCosts()
			var maxDelta time.Duration
			for i := range after {
				if delta := after[i].Sub(before[i]).Total(); delta > maxDelta {
					maxDelta = delta
				}
			}
			if c.Verify && nhits != bres.NHits {
				return nil, fmt.Errorf("fig5 %s %s: %d hits, baseline %d", name, row.Label, nhits, bres.NHits)
			}
			row.Time[name] = tagInfo.Elapsed.Total() + maxDelta + wire
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig5Print renders the table.
func Fig5Print(w io.Writer, rows []Fig5Row) {
	printHeader(w, "Fig. 5: BOSS metadata+data queries (1000 objects fixed by tags)")
	fmt.Fprintf(w, "%-14s %10s %10s", "data cond", "sel%", "nhits")
	for _, a := range fig5Approaches {
		fmt.Fprintf(w, " %10s", a)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.2f %10d", r.Label, r.Selectivity, r.NHits)
		for _, a := range fig5Approaches {
			fmt.Fprintf(w, " %s", secs(r.Time[a]))
		}
		fmt.Fprintln(w)
	}
}
