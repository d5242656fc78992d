package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// manifest is the part of BENCHMARK.json the A/A check reads: the
// bounds live there and nowhere else.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactCount reports whether a per-layer metric must be identical
// between two runs of one seed.
func exactCount(name string) bool {
	return strings.HasSuffix(name, "_per_stmt") &&
		(strings.HasPrefix(name, "exec.") || strings.HasPrefix(name, "bitindex."))
}

// runAA runs each workload twice on the same code and seed, end to end
// and traced, and holds every end-to-end metric to its own bound and
// every exact count to equality. Returns the process exit code.
func runAA(cfg config) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fail(2, "-aa reads the bounds from BENCHMARK.json in the working directory: %v", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		fail(2, "BENCHMARK.json: %v", err)
	}
	specs := workloads
	if cfg.workload != "" {
		spec, ok := findWorkload(cfg.workload)
		if !ok {
			fail(2, "unknown workload %q", cfg.workload)
		}
		specs = []workloadSpec{spec}
	}
	bad := 0
	for _, spec := range specs {
		var runs [2][2]*result // [trace][repeat]
		for trace := 0; trace < 2; trace++ {
			for rep := 0; rep < 2; rep++ {
				c := cfg
				c.trace = trace == 1
				res, err := runWorkload(c, spec)
				if err != nil {
					fail(1, "%s: %v", spec.name, err)
				}
				if !res.Correct {
					fmt.Printf("%s FAIL %d of %d statements failed\n", spec.name, res.Failed, res.Attempted)
					bad++
				}
				runs[trace][rep] = res
			}
		}
		for _, e := range m.EndToEnd {
			a, b := runs[0][0].Metrics[e.Name].Value, runs[0][1].Metrics[e.Name].Value
			diff := math.Abs(b-a) / a
			verdict := "ok"
			if diff > e.Bound {
				verdict = "EXCEEDS"
				bad++
			}
			fmt.Printf("%s %s A=%.6g B=%.6g diff=%.1f%% bound=%.0f%% %s\n", spec.name, e.Name, a, b, 100*diff, 100*e.Bound, verdict)
		}
		for _, name := range runs[1][0].names {
			a, b := runs[1][0].Metrics[name].Value, runs[1][1].Metrics[name].Value
			switch {
			case !exactCount(name):
				fmt.Printf("%s %s A=%.6g B=%.6g\n", spec.name, name, a, b)
			case a == b:
				fmt.Printf("%s %s A=B=%.6g identical\n", spec.name, name, a)
			default:
				fmt.Printf("%s %s A=%.6g B=%.6g DIFFER\n", spec.name, name, a, b)
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
