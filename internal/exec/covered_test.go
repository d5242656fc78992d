package exec

import (
	"math"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/workload"
)

// TestCoveredRegionsOnBenchmarkStatements counts, from region metadata
// alone, the regions a "covered" decision could answer on the wall-clock
// benchmark's dataset (VPIC, 2^21 particles, 64 KiB regions) and
// statements: a region is covered when every condition of the conjunct
// holds at both its Min and its Max, so all of it is selected and it
// would need no read and no kernel. Pruning here reads the extrema only
// (the engine's histograms prune at least as much), so the unpruned
// counts are upper bounds. The counts are logged; the test fails when a
// class reaches 5 % of its unpruned regions, the share below which such
// a decision is not worth building.
func TestCoveredRegionsOnBenchmarkStatements(t *testing.T) {
	const n, elems = 1 << 21, 1 << 14
	const energy, x, y, z = object.ID(1), object.ID(2), object.ID(3), object.ID(4)
	vars := workload.GenerateVPIC(n, 7).Vars
	// Each region's extrema, computed as import computes them.
	meta := map[object.ID][]object.RegionMeta{}
	for id, name := range map[object.ID]string{energy: "Energy", x: "x", y: "y", z: "z"} {
		for _, r := range region.Split1D(n, elems) {
			raw := dtype.Bytes(vars[name][r.Offset[0] : r.Offset[0]+r.Count[0]])
			mn, mx := dtype.MinMax(dtype.Float32, raw)
			meta[id] = append(meta[id], object.RegionMeta{Region: r, Min: mn, Max: mx})
		}
	}

	// No threshold above the largest per-region Energy minimum can cover
	// a region with its Energy condition.
	maxMin := math.Inf(-1)
	for _, rm := range meta[energy] {
		maxMin = max(maxMin, rm.Min)
	}
	t.Logf("every region holds an Energy at or below %.3g", maxMin)

	var bulk, points []*query.Query
	for _, th := range []float64{0.1, 0.3, 0.6, 1.0} {
		bulk = append(bulk, &query.Query{Root: query.Leaf(energy, query.OpGT, th)})
	}
	// Every point window either point workload can draw: 0.01 to 0.05
	// wide, starting on the 0.01 grid in [2.4, 3.6).
	for a := 240; a < 360; a++ {
		for w := 1; w <= 5; w++ {
			lo, hi := float64(a)/100, float64(a+w)/100
			points = append(points, &query.Query{Root: query.Between(energy, lo, hi, true, true)})
		}
	}
	classes := []struct {
		name       string
		statements []*query.Query
	}{
		{"bulk thresholds", bulk},
		{"Fig. 3 windows", workload.SingleObjectQueries(energy)},
		{"Fig. 4 conjuncts", workload.MultiObjectQueries(energy, x, y, z)},
		{"point windows", points},
	}
	for _, cl := range classes {
		var evaluated, covered int
		for _, q := range cl.statements {
			conjuncts, err := query.Normalize(q.Root)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range conjuncts {
				for r := range meta[energy] {
					pruned, all := false, true
					for id, iv := range c {
						rm := &meta[id][r]
						pruned = pruned || Prunable(rm, iv)
						all = all && iv.Contains(rm.Min) && iv.Contains(rm.Max)
					}
					if pruned {
						continue
					}
					evaluated++
					if all {
						covered++
					}
				}
			}
		}
		t.Logf("%s: %d statements, %d of %d unpruned regions covered", cl.name, len(cl.statements), covered, evaluated)
		if 20*covered >= evaluated {
			t.Errorf("%s: %d of %d unpruned regions are covered, 5 %% or more", cl.name, covered, evaluated)
		}
	}
}
