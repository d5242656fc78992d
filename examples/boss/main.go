// BOSS example: the paper's astronomy workload (§VI-C). Millions of
// small fiber objects carry sky-position metadata; an astronomer first
// narrows to the fibers at one sky position with a metadata (tag) query,
// then counts flux values in a range across just those objects — without
// traversing the rest of the survey.
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
	objects := flag.Int("objects", 10000, "number of fiber objects")
	fluxLen := flag.Int("flux", 200, "flux samples per fiber")
	flag.Parse()

	fmt.Printf("importing %d fiber objects (%d flux samples each)...\n", *objects, *fluxLen)
	fibers := workload.GenerateBOSS(*objects, *fluxLen, 7)

	d := pdcquery.NewDeployment(pdcquery.Options{Servers: 8, RegionBytes: 1 << 20})
	cont := d.CreateContainer("h5boss")
	for _, f := range fibers {
		_, err := d.ImportObject(cont.ID, pdcquery.Property{
			Name: f.Name, Type: pdcquery.Float32, Dims: []uint64{uint64(len(f.Flux))},
			Tags: map[string]string{"RADEG": f.RADeg, "DECDEG": f.DECDeg},
		}, dtype.Bytes(f.Flux))
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := d.Start(); err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// Metadata query (PDCquery_tag): the paper's
	// "RADEG=153.17 AND DECDEG=23.06" selecting 1000 objects.
	conds := []pdcquery.TagCond{
		{Key: "RADEG", Value: fibers[0].RADeg},
		{Key: "DECDEG", Value: fibers[0].DECDeg},
	}
	matched, tagInfo, err := d.Client().QueryTag(conds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metadata query RADEG=%s AND DECDEG=%s: %d objects in %v\n",
		fibers[0].RADeg, fibers[0].DECDeg, len(matched), tagInfo.Elapsed.Total())

	// Data condition over just the matched objects: 0 < flux < 20.
	var hits, total uint64
	for _, id := range matched {
		q := pdcquery.NewQuery(pdcquery.Between(id, 0, 20, false, false))
		res, err := d.Client().RunCount(q, pdcquery.StrategyHistogram)
		if err != nil {
			log.Fatal(err)
		}
		hits += res.Sel.NHits
		total += uint64(*fluxLen)
	}
	fmt.Printf("data query 0 < flux < 20 over the %d matched fibers: %d of %d values (%.1f%%)\n",
		len(matched), hits, total, 100*float64(hits)/float64(total))
	fmt.Println("(the HDF5 baseline would have opened and inspected every file in the survey)")
}
