// Benchmarks regenerating the paper's evaluation (one per table/figure)
// plus ablation benches for the design choices called out in DESIGN.md.
//
// Scale is controlled by PDCQ_LOGN (2^LogN particles, default 20 ≈ 1M)
// and PDCQ_SERVERS (default 64). Each figure benchmark executes one full
// experiment per iteration and reports the paper's headline numbers as
// custom metrics (modeled seconds). Run:
//
//	go test -bench=. -benchmem
//	PDCQ_LOGN=24 go test -bench=Fig3 -benchtime=1x
package pdcquery_test

import (
	"testing"

	"pdcquery/internal/bench"
	"pdcquery/internal/dtype"
	"pdcquery/internal/workload"

	pdcquery "pdcquery"
)

// benchConfig derives the harness configuration from the environment,
// trimmed so the default `go test -bench=.` completes in minutes.
func benchConfig() bench.Config {
	c := bench.DefaultConfig()
	if c.LogN > 22 {
		// Protect the default run; explicit PDCQ_LOGN still wins below 22.
		c.LogN = 22
	}
	c.BOSSObjects = 10000
	c.FluxLen = 200
	c.Fig6Servers = []int{32, 64, 128, 256}
	return c
}

// BenchmarkFig3SingleObject regenerates Fig. 3 (a)-(f): 15 single-object
// queries x 5 approaches x region-size sweep.
func BenchmarkFig3SingleObject(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig3Run(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			mid := rows[len(rows)/2]
			b.ReportMetric(mid.QueryTime["PDC-H"].Seconds(), "PDC-H-modeled-s")
			b.ReportMetric(mid.QueryTime["PDC-F"].Seconds(), "PDC-F-modeled-s")
		}
	}
}

// BenchmarkFig4MultiObject regenerates Fig. 4: six multi-object queries.
func BenchmarkFig4MultiObject(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig4Run(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].QueryTime["PDC-SH"].Seconds(), "q0-PDC-SH-modeled-s")
		}
	}
}

// BenchmarkFig5BOSS regenerates Fig. 5: metadata+data queries on the BOSS
// stand-in.
func BenchmarkFig5BOSS(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig5Run(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Time["HDF5"].Seconds(), "HDF5-modeled-s")
			b.ReportMetric(rows[0].Time["PDC-H"].Seconds(), "PDC-H-modeled-s")
		}
	}
}

// BenchmarkFig6Scalability regenerates Fig. 6: one multi-object query on
// a growing server fleet.
func BenchmarkFig6Scalability(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6Run(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first, last := rows[0], rows[len(rows)-1]
			b.ReportMetric(first.Time["PDC-H"].Seconds(), "smallest-fleet-modeled-s")
			b.ReportMetric(last.Time["PDC-H"].Seconds(), "largest-fleet-modeled-s")
		}
	}
}

// Ablation benches (DESIGN.md "key design decisions").

// BenchmarkAblationAggregation toggles read aggregation under PDC-HI.
func BenchmarkAblationAggregation(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationAggregation(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Time.Seconds(), "aggregated-s")
			b.ReportMetric(rows[1].Time.Seconds(), "per-request-s")
		}
	}
}

// BenchmarkAblationGlobalHistogram compares global-histogram ordering
// against min/max-only metadata.
func BenchmarkAblationGlobalHistogram(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationGlobalHistogram(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Time.Seconds(), "with-histogram-s")
			b.ReportMetric(rows[1].Time.Seconds(), "minmax-only-s")
		}
	}
}

// BenchmarkAblationSorted contrasts PDC-H and PDC-SH on a tail query.
func BenchmarkAblationSorted(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationSorted(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Time.Seconds(), "PDC-H-s")
			b.ReportMetric(rows[1].Time.Seconds(), "PDC-SH-s")
		}
	}
}

// BenchmarkAblationCompanions contrasts the sorted replica with and
// without co-sorted companions on a multi-object query.
func BenchmarkAblationCompanions(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationCompanions(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Time.Seconds(), "sorted-only-s")
			b.ReportMetric(rows[1].Time.Seconds(), "with-companions-s")
		}
	}
}

// BenchmarkAblationTiering contrasts cold queries from the PFS against
// the burst buffer after staging.
func BenchmarkAblationTiering(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationTiering(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Time.Seconds(), "pfs-s")
			b.ReportMetric(rows[1].Time.Seconds(), "burst-buffer-s")
		}
	}
}

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
