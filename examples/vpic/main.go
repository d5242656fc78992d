// VPIC example: the paper's motivating plasma-physics workload. A
// synthetic magnetic-reconnection particle dataset is imported with
// histograms, bitmap indexes, and an energy-sorted replica; the example
// then hunts for highly energetic particles with each of the four
// evaluation strategies and compares their modeled costs — a miniature
// Fig. 3/Fig. 4.
package main

import (
	"flag"
	"fmt"
	"log"

	"pdcquery"
	"pdcquery/internal/dtype"
	"pdcquery/internal/workload"
)

func main() {
	logn := flag.Int("logn", 18, "2^logn particles")
	flag.Parse()
	n := 1 << *logn

	fmt.Printf("generating %d particles (7 objects: %v)...\n", n, workload.VPICNames)
	v := workload.GenerateVPIC(n, 42)

	d := pdcquery.NewDeployment(pdcquery.Options{
		Servers:     8,
		RegionBytes: 64 << 10,
		BuildIndex:  true,
	})
	cont := d.CreateContainer("vpic")
	ids := map[string]pdcquery.ObjectID{}
	for _, name := range workload.VPICNames {
		o, err := d.ImportObject(cont.ID, pdcquery.Property{
			Name: name, Type: pdcquery.Float32, Dims: []uint64{uint64(n)},
		}, dtype.Bytes(v.Vars[name]))
		if err != nil {
			log.Fatal(err)
		}
		ids[name] = o.ID
	}
	// The user hint from §III-D3: keep a sorted copy keyed by Energy.
	if err := d.BuildSortedReplica(ids["Energy"]); err != nil {
		log.Fatal(err)
	}
	if err := d.Start(); err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// The physicist's question: where are the energetic particles inside
	// the reconnection region?
	q := pdcquery.NewQuery(pdcquery.And(
		pdcquery.QueryCreate(ids["Energy"], pdcquery.OpGT, 2.5),
		pdcquery.And(
			pdcquery.Between(ids["x"], 100, 200, false, false),
			pdcquery.Between(ids["y"], -90, 0, false, false))))

	fmt.Printf("\nquery: Energy > 2.5 AND 100 < x < 200 AND -90 < y < 0\n\n")
	fmt.Printf("%-8s %12s %12s %10s %10s\n", "strategy", "query-time", "get-data", "hits", "pruned")
	for _, s := range []pdcquery.Strategy{
		pdcquery.StrategyFullScan, pdcquery.StrategyHistogram,
		pdcquery.StrategyIndex, pdcquery.StrategySorted,
	} {
		d.ResetCaches()
		res, err := d.Client().Run(q, s)
		if err != nil {
			log.Fatal(err)
		}
		data, dinfo, err := res.GetData(ids["Energy"])
		if err != nil {
			log.Fatal(err)
		}
		_ = data
		fmt.Printf("%-8s %12v %12v %10d %10d\n",
			s.Label(), res.Info.Elapsed.Total(), dinfo.Elapsed.Total(),
			res.Sel.NHits, res.Info.Stats.RegionsPruned)
	}

	// And the global histogram the system maintains for free (§IV).
	h, _, err := d.Client().GetHistogram(ids["Energy"])
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := h.Estimate(2.5, 1e9, false, false)
	fmt.Printf("\nglobal histogram: %d bins, estimated hits of Energy > 2.5: %d..%d of %d\n",
		h.NumBins(), lo, hi, h.Total)
}
