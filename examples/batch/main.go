// Batch example: out-of-core retrieval with PDCquery_get_data_batch. A
// query selects far more data than the analysis wants to hold at once;
// the client streams the matching values in fixed-size batches and folds
// them into a running statistic (here, mean and max of the selected
// energies).
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
	batch := flag.Uint64("batch", 4096, "hits per batch")
	flag.Parse()
	n := 1 << *logn

	v := workload.GenerateVPIC(n, 42)
	d := pdcquery.NewDeployment(pdcquery.Options{Servers: 4, RegionBytes: 64 << 10})
	cont := d.CreateContainer("vpic")
	obj, err := d.ImportObject(cont.ID, pdcquery.Property{
		Name: "Energy", Type: pdcquery.Float32, Dims: []uint64{uint64(n)},
	}, dtype.Bytes(v.Vars["Energy"]))
	if err != nil {
		log.Fatal(err)
	}
	if err := d.Start(); err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// A low threshold on purpose: the result is "too large" relative to
	// the batch size, the case PDCquery_get_data_batch exists for.
	q := pdcquery.NewQuery(pdcquery.QueryCreate(obj.ID, pdcquery.OpGT, 0.5))
	res, err := d.Client().Run(q, pdcquery.StrategyHistogram)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query Energy > 0.5: %d hits; streaming in batches of %d\n", res.Sel.NHits, *batch)

	var (
		batches int
		count   float64
		sum     float64
		max     float64
	)
	info, err := res.GetDataBatch(obj.ID, *batch, func(sel *pdcquery.Selection, data []byte) error {
		batches++
		for _, e := range dtype.View[float32](data) {
			sum += float64(e)
			count++
			if float64(e) > max {
				max = float64(e)
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processed %d batches (%0.f values): mean energy %.4f, max %.4f\n",
		batches, count, sum/count, max)
	fmt.Printf("modeled retrieval time: %v\n", info.Elapsed.Total())
}
