// pdc-bench regenerates the paper's evaluation figures against the
// synthetic workloads.
//
// Usage:
//
//	pdc-bench -fig all                 # every figure, ablations, scaleout, plancache
//	pdc-bench -fig 3 -logn 22          # Fig. 3 at 4M particles
//	pdc-bench -fig 6 -servers 64       # scalability sweep
//	pdc-bench -fig 5 -boss 50000       # BOSS experiment
//
// Times are modeled (virtual) seconds from the deterministic cost model;
// see DESIGN.md for the calibration and EXPERIMENTS.md for the
// paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pdcquery/internal/bench"
)

func main() {
	cfg := bench.DefaultConfig()
	fig := flag.String("fig", "all", "figure to regenerate: 3, 4, 5, 6, ablations, scaleout, plancache, concurrent, or all")
	flag.IntVar(&cfg.LogN, "logn", cfg.LogN, "VPIC scale: 2^logn particles (10-28)")
	flag.IntVar(&cfg.Servers, "servers", cfg.Servers, "PDC server count for Figs. 3-5 (1-1024)")
	flag.IntVar(&cfg.BOSSObjects, "boss", cfg.BOSSObjects, "BOSS object count for Fig. 5")
	flag.IntVar(&cfg.FluxLen, "flux", cfg.FluxLen, "flux samples per BOSS object")
	flag.IntVar(&cfg.RegionSteps, "steps", cfg.RegionSteps, "region sizes to sweep in Fig. 3 (max 6)")
	flag.BoolVar(&cfg.Verify, "verify", false, "cross-check every result against a brute-force oracle")
	flag.IntVar(&cfg.Concurrency, "concurrency", cfg.Concurrency, "client sessions for the concurrent-clients experiment")
	seed := flag.Uint64("seed", cfg.Seed, "dataset seed")
	csvDir := flag.String("csv", "", "also write each figure's rows as CSV files under this directory")
	faults := flag.Bool("faults", false, "also run the fault-recovery overhead experiment (seeded connection drops vs a clean run)")
	flag.Parse()
	cfg.Seed = *seed
	if cfg.LogN < 10 || cfg.LogN > 28 || cfg.Servers < 1 || cfg.Servers > 1024 {
		fmt.Fprintf(os.Stderr, "pdc-bench: -logn %d -servers %d out of range (want 10-28 and 1-1024)\n", cfg.LogN, cfg.Servers)
		os.Exit(2)
	}

	run := func(name string, f func()) {
		switch *fig {
		case "all", name:
			f()
		}
	}
	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdc-bench:", err)
			os.Exit(1)
		}
	}
	writeCSV := func(name string, emit func(io.Writer)) {
		if *csvDir == "" {
			return
		}
		fail(os.MkdirAll(*csvDir, 0o755))
		path := filepath.Join(*csvDir, name)
		f, err := os.Create(path)
		fail(err)
		emit(f)
		fail(f.Close())
		fmt.Fprintf(os.Stderr, "pdc-bench: wrote %s\n", path)
	}
	ran := false
	run("3", func() {
		rows, err := bench.Fig3Run(cfg)
		fail(err)
		bench.Fig3Print(os.Stdout, rows)
		bench.Fig3Speedups(os.Stdout, rows)
		writeCSV("fig3.csv", func(w io.Writer) { bench.Fig3CSV(w, rows) })
		ran = true
	})
	run("4", func() {
		rows, err := bench.Fig4Run(cfg)
		fail(err)
		bench.Fig4Print(os.Stdout, rows)
		writeCSV("fig4.csv", func(w io.Writer) { bench.Fig4CSV(w, rows) })
		ran = true
	})
	run("5", func() {
		rows, err := bench.Fig5Run(cfg)
		fail(err)
		bench.Fig5Print(os.Stdout, rows)
		writeCSV("fig5.csv", func(w io.Writer) { bench.Fig5CSV(w, rows) })
		ran = true
	})
	run("6", func() {
		rows, err := bench.Fig6Run(cfg)
		fail(err)
		bench.Fig6Print(os.Stdout, rows)
		writeCSV("fig6.csv", func(w io.Writer) { bench.Fig6CSV(w, rows) })
		ran = true
	})
	run("ablations", func() { fail(bench.Ablations(os.Stdout, cfg)); ran = true })
	run("scaleout", func() {
		rows, err := bench.ScaleoutRun(cfg)
		fail(err)
		bench.ScaleoutPrint(os.Stdout, rows)
		writeCSV("scaleout.csv", func(w io.Writer) { bench.ScaleoutCSV(w, rows) })
		ran = true
	})
	run("plancache", func() {
		rows, err := bench.PlanCacheRun(cfg)
		fail(err)
		bench.PlanCachePrint(os.Stdout, rows)
		writeCSV("plancache.csv", func(w io.Writer) { bench.PlanCacheCSV(w, rows) })
		ran = true
	})
	run("concurrent", func() {
		rows, err := bench.ConcurrentRun(cfg)
		fail(err)
		bench.ConcurrentPrint(os.Stdout, rows)
		ran = true
	})
	if *faults {
		row, err := bench.FaultsRun(cfg)
		fail(err)
		bench.FaultsPrint(os.Stdout, row)
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "pdc-bench: unknown figure %q (want 3, 4, 5, 6, ablations, scaleout, plancache, concurrent, or all)\n", *fig)
		os.Exit(2)
	}
}
