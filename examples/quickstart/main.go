// Quickstart: create a PDC-Query deployment, import an object, and run a
// range query — the minimal end-to-end use of the public API.
package main

import (
	"fmt"
	"log"

	"pdcquery"
	"pdcquery/internal/dtype"
)

func main() {
	// A deployment with 4 query servers over in-process transport.
	d := pdcquery.NewDeployment(pdcquery.Options{Servers: 4})
	cont := d.CreateContainer("demo")

	// One float32 object holding a million samples of a sine-ish signal.
	const n = 1 << 20
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i%1000) / 10 // 0.0 .. 99.9, repeating
	}
	obj, err := d.ImportObject(cont.ID, pdcquery.Property{
		Name: "signal", Type: pdcquery.Float32, Dims: []uint64{n},
	}, dtype.Bytes(vals))
	if err != nil {
		log.Fatal(err)
	}
	if err := d.Start(); err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// "signal > 99.5" — built with the PDCquery_create/and equivalents.
	q := pdcquery.NewQuery(pdcquery.QueryCreate(obj.ID, pdcquery.OpGT, 99.5))
	res, err := d.Client().Run(q, pdcquery.StrategyHistogram)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %q matched %d of %d elements\n", "signal > 99.5", res.Sel.NHits, n)
	fmt.Printf("modeled elapsed: %v (slowest server %v)\n",
		res.Info.Elapsed.Total(), res.Info.ServerMax.Total())

	// Fetch the matching values (PDCquery_get_data).
	data, info, err := res.GetData(obj.ID)
	if err != nil {
		log.Fatal(err)
	}
	first := dtype.View[float32](data)[0]
	fmt.Printf("fetched %d values in %v; first match: signal[%d] = %v\n",
		res.Sel.NHits, info.Elapsed.Total(), res.Sel.Coords[0], first)
}
