package pdcquery_test

import (
	"fmt"
	"log"

	pdcquery "pdcquery"
	"pdcquery/internal/dtype"
)

// Example demonstrates the Fig. 1 workflow end to end: import an object,
// query a value range, and fetch the matching data.
func Example() {
	d := pdcquery.NewDeployment(pdcquery.Options{Servers: 4})
	cont := d.CreateContainer("demo")

	vals := make([]float32, 10000)
	for i := range vals {
		vals[i] = float32(i) / 100 // 0.00 .. 99.99
	}
	obj, err := d.ImportObject(cont.ID, pdcquery.Property{
		Name: "temperature", Type: pdcquery.Float32, Dims: []uint64{10000},
	}, dtype.Bytes(vals))
	if err != nil {
		log.Fatal(err)
	}
	if err := d.Start(); err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// 99 < temperature <= 99.5
	q := pdcquery.NewQuery(pdcquery.Between(obj.ID, 99, 99.5, false, true))
	res, err := d.Client().Run(q, pdcquery.StrategyHistogram)
	if err != nil {
		log.Fatal(err)
	}
	data, _, err := res.GetData(obj.ID)
	if err != nil {
		log.Fatal(err)
	}
	first := dtype.View[float32](data)[0]
	fmt.Printf("hits: %d\n", res.Sel.NHits)
	fmt.Printf("first match: temperature[%d] = %v\n", res.Sel.Coords[0], first)
	// Output:
	// hits: 50
	// first match: temperature[9901] = 99.01
}
