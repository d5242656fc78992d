package core

import (
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/workload"
)

// BenchmarkImportObject times the import of one 2^18-element VPIC Energy
// object in 64 KiB regions with histograms and bitmap indexes: storage
// writes, min/max, histogram and index build per region. It reports ns
// per element beside allocs/op.
func BenchmarkImportObject(b *testing.B) {
	const elems = 1 << 18
	data := dtype.Bytes(workload.GenerateVPIC(elems, 7).Vars["Energy"])
	prop := object.Property{Name: "Energy", Type: dtype.Float32, Dims: []uint64{elems}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := NewDeployment(Options{Servers: 1, RegionBytes: 64 << 10, BuildIndex: true})
		c := d.CreateContainer("import")
		b.StartTimer()
		o, err := d.ImportObject(c.ID, prop, data)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		// The fixture: 16 regions, each with its histogram and a
		// non-empty index.
		if len(o.Regions) != elems*4/(64<<10) {
			b.Fatalf("%d regions", len(o.Regions))
		}
		for _, rm := range o.Regions {
			if rm.Hist == nil || rm.IndexKey == "" || rm.IndexBins == 0 {
				b.Fatalf("region %d imported without histogram or index", rm.Index)
			}
		}
		_ = d.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
}
