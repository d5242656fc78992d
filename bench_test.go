// Wall-clock benchmarks of the public API: query throughput per
// strategy, many goroutines sharing one client, and data retrieval. The
// paper's figures are modeled, not timed: cmd/pdc-bench prints them and
// cmd/pdc-benchdiff gates them. Run:
//
//	go test -run '^$' -bench . -benchmem
package pdcquery_test

import (
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/workload"

	pdcquery "pdcquery"
)

// BenchmarkQueryThroughput measures real (wall-clock) end-to-end query
// execution through the full client/server stack, per strategy.
func BenchmarkQueryThroughput(b *testing.B) {
	const n = 1 << 18
	v := workload.GenerateVPIC(n, 42)
	for _, strat := range []pdcquery.Strategy{
		pdcquery.StrategyFullScan, pdcquery.StrategyHistogram,
		pdcquery.StrategyIndex, pdcquery.StrategySorted,
	} {
		b.Run(strat.Label(), func(b *testing.B) {
			d := pdcquery.NewDeployment(pdcquery.Options{
				Servers: 4, RegionBytes: 64 << 10, BuildIndex: true,
			})
			cont := d.CreateContainer("vpic")
			var energy pdcquery.ObjectID
			for _, name := range workload.VPICNames {
				o, err := d.ImportObject(cont.ID, pdcquery.Property{
					Name: name, Type: pdcquery.Float32, Dims: []uint64{n},
				}, dtype.Bytes(v.Vars[name]))
				if err != nil {
					b.Fatal(err)
				}
				if name == "Energy" {
					energy = o.ID
				}
			}
			if strat == pdcquery.StrategySorted {
				if err := d.BuildSortedReplica(energy); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.Start(); err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			q := pdcquery.NewQuery(pdcquery.Between(energy, 2.1, 2.2, false, false))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Client().RunCount(q, strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcurrentQueries measures real wall-clock throughput with
// many application goroutines sharing one client (the background
// aggregator must multiplex them).
func BenchmarkConcurrentQueries(b *testing.B) {
	const n = 1 << 18
	v := workload.GenerateVPIC(n, 42)
	d := pdcquery.NewDeployment(pdcquery.Options{Servers: 4, RegionBytes: 64 << 10})
	cont := d.CreateContainer("vpic")
	o, err := d.ImportObject(cont.ID, pdcquery.Property{
		Name: "Energy", Type: pdcquery.Float32, Dims: []uint64{n},
	}, dtype.Bytes(v.Vars["Energy"]))
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	q := pdcquery.NewQuery(pdcquery.Between(o.ID, 2.1, 2.2, false, false))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := d.Client().RunCount(q, pdcquery.StrategyHistogram); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGetDataThroughput measures real data retrieval through the
// stack.
func BenchmarkGetDataThroughput(b *testing.B) {
	const n = 1 << 18
	v := workload.GenerateVPIC(n, 42)
	d := pdcquery.NewDeployment(pdcquery.Options{Servers: 4, RegionBytes: 64 << 10})
	cont := d.CreateContainer("vpic")
	o, err := d.ImportObject(cont.ID, pdcquery.Property{
		Name: "Energy", Type: pdcquery.Float32, Dims: []uint64{n},
	}, dtype.Bytes(v.Vars["Energy"]))
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	q := pdcquery.NewQuery(pdcquery.QueryCreate(o.ID, pdcquery.OpGT, 1.5))
	res, err := d.Client().Run(q, pdcquery.StrategyHistogram)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(res.Sel.NHits) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, _, err := res.GetData(o.ID)
		if err != nil {
			b.Fatal(err)
		}
		if len(data) == 0 {
			b.Fatal("no data")
		}
	}
}
