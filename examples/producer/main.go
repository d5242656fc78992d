// Producer example: the PDC write path. A simulation produces an object
// region by region — each "rank" writes its share in arbitrary order, and
// the system generates per-region histograms, min/max, and bitmap indexes
// on the spot (§III-D2: histograms are generated "when data is either
// produced within PDC or imported"). After finalization the object is
// immediately queryable with every strategy, and the system can be
// checkpointed for later server fleets.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"pdcquery"
	"pdcquery/internal/dtype"
)

func main() {
	logn := flag.Int("logn", 18, "2^logn elements")
	ckpt := flag.String("checkpoint", "", "optionally save a deployment checkpoint here")
	flag.Parse()
	n := 1 << *logn

	d := pdcquery.NewDeployment(pdcquery.Options{
		Servers: 4, RegionBytes: 64 << 10, BuildIndex: true,
	})
	cont := d.CreateContainer("simulation")
	obj, err := d.CreateObject(cont.ID, pdcquery.Property{
		Name: "pressure", Type: pdcquery.Float32, Dims: []uint64{uint64(n)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("object %q created with %d regions; producing out of order...\n",
		obj.Name, len(obj.Regions))

	// "Ranks" write their regions in shuffled order, as a parallel
	// simulation would.
	order := rand.New(rand.NewSource(7)).Perm(len(obj.Regions))
	for _, ri := range order {
		r := obj.Regions[ri].Region
		vals := make([]float32, r.NumElems())
		base := float32(ri) // each region has its own pressure regime
		for i := range vals {
			vals[i] = base + float32(i%100)/100
		}
		if err := d.WriteRegion(obj.ID, ri, dtype.Bytes(vals)); err != nil {
			log.Fatal(err)
		}
	}
	if err := d.FinalizeObject(obj.ID); err != nil {
		log.Fatal(err)
	}
	if err := d.Start(); err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// The freshly produced object is queryable; region pruning works
	// because each region's histogram was built at write time.
	mid := float64(len(obj.Regions) / 2)
	q := pdcquery.NewQuery(pdcquery.Between(obj.ID, mid, mid+0.5, false, false))
	res, err := d.Client().Run(q, pdcquery.StrategyHistogram)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %.1f < pressure < %.1f: %d hits, %d regions pruned of %d\n",
		mid, mid+0.5, res.Sel.NHits, res.Info.Stats.RegionsPruned, len(obj.Regions))

	if *ckpt != "" {
		f, err := os.Create(*ckpt)
		if err != nil {
			log.Fatal(err)
		}
		if err := d.SaveCheckpoint(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("checkpoint written to %s (serve it with: pdc-server -load %s)\n", *ckpt, *ckpt)
	}
}
