package histogram

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The tests in this file pin the boundary behavior of Quantile and
// Estimate/SelectivityBounds that the cost-based planner depends on.
// Each named regression fails on the pre-fix code (infinities clamped
// into grid bins, NaN quantile arithmetic, q=0/q=1 interpolation).

func TestQuantileEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram Quantile = %v, want 0", got)
	}
	h := &Histogram{}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile = %v, want 0", got)
	}
}

func TestQuantileBoundaryQ(t *testing.T) {
	h := Build([]float64{3.25, 7.5, 12.125, 99.5}, 8)
	// q<=0 must return the exact Min and q>=1 the exact Max — not a
	// bin-interpolated value.
	if got := h.Quantile(0); got != 3.25 {
		t.Errorf("Quantile(0) = %v, want exact Min 3.25", got)
	}
	if got := h.Quantile(-0.5); got != 3.25 {
		t.Errorf("Quantile(-0.5) = %v, want exact Min 3.25", got)
	}
	if got := h.Quantile(1); got != 99.5 {
		t.Errorf("Quantile(1) = %v, want exact Max 99.5", got)
	}
	if got := h.Quantile(2); got != 99.5 {
		t.Errorf("Quantile(2) = %v, want exact Max 99.5", got)
	}
}

func TestQuantileNaNQ(t *testing.T) {
	h := Build([]float64{1, 2, 3}, 4)
	if got := h.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(NaN) = %v, want NaN", got)
	}
}

func TestQuantileSingleValue(t *testing.T) {
	h := Build([]float64{42.5}, 4)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got := h.Quantile(q)
		lo, hi := h.BinRange(0)
		if got < lo || got > hi {
			t.Errorf("Quantile(%v) = %v outside the only bin [%v,%v]", q, got, lo, hi)
		}
	}
	if h.Quantile(0) != 42.5 || h.Quantile(1) != 42.5 {
		t.Errorf("single-value Quantile(0)/Quantile(1) = %v/%v, want 42.5",
			h.Quantile(0), h.Quantile(1))
	}
}

// Regression: with Min = -Inf the pre-fix interpolation computed
// -Inf + frac*(hi - -Inf) = NaN for interior quantiles. Interior
// quantiles over the finite mass must stay finite; only ranks that
// fall inside the -Inf mass may return -Inf.
func TestQuantileNegInfDataNotNaN(t *testing.T) {
	h := &Histogram{}
	h.Observe(math.Inf(-1))
	for i := 1; i <= 9; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0); !math.IsInf(got, -1) {
		t.Errorf("Quantile(0) = %v, want -Inf (the exact Min)", got)
	}
	// Rank 1 of 10 is the -Inf observation.
	if got := h.Quantile(0.05); !math.IsInf(got, -1) {
		t.Errorf("Quantile(0.05) = %v, want -Inf (rank inside the -Inf mass)", got)
	}
	for _, q := range []float64{0.3, 0.5, 0.9} {
		got := h.Quantile(q)
		if math.IsNaN(got) {
			t.Fatalf("Quantile(%v) = NaN with -Inf in the data (pre-fix bug)", q)
		}
		if math.IsInf(got, 0) {
			t.Errorf("Quantile(%v) = %v, want a finite interior value", q, got)
		}
	}
	if got := h.Quantile(1); got != 9 {
		t.Errorf("Quantile(1) = %v, want exact Max 9", got)
	}
}

func TestQuantilePosInfData(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 9; i++ {
		h.Observe(float64(i))
	}
	h.Observe(math.Inf(1))
	if got := h.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("Quantile(1) = %v, want +Inf (the exact Max)", got)
	}
	if got := h.Quantile(0.5); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("Quantile(0.5) = %v, want a finite interior value", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want exact Min 1", got)
	}
}

// Regression: pre-fix, an observed +Inf was clamped into the then-last
// grid bin. When later observations grew the grid, the clamped count
// was stranded in an interior bin, so Estimate's upper bound for a
// range covering +Inf undercounted the truth — an inverted bound that
// silently reorders planner conjuncts.
func TestEstimateStrandedInfinityUpperBound(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 10; i++ {
		h.Observe(float64(i % 4))
	}
	h.Observe(math.Inf(1))
	for i := 4; i <= 20; i++ {
		h.Observe(float64(i))
	}
	// Truth for [18, +Inf]: values 18, 19, 20 and the +Inf = 4.
	lower, upper := h.Estimate(18, math.Inf(1), true, true)
	if upper < 4 {
		t.Fatalf("Estimate(18, +Inf) upper = %d, below truth 4 (stranded +Inf, pre-fix bug)", upper)
	}
	if lower > 4 {
		t.Errorf("Estimate(18, +Inf) lower = %d, above truth 4", lower)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// Regression: pre-fix, a +Inf clamped into (what later becomes) an
// interior bin was counted by Estimate's lower bound for a finite
// range that fully covers the bin — lower > truth, the inverted bound
// from the issue.
func TestEstimateHiddenInfinityLowerBound(t *testing.T) {
	h := &Histogram{}
	h.Observe(1)
	h.Observe(2)
	h.Observe(math.Inf(1))
	h.Observe(50)
	// Truth for [0, 10]: values 1 and 2 only.
	lower, upper := h.Estimate(0, 10, true, true)
	if lower > 2 {
		t.Fatalf("Estimate(0, 10) lower = %d, above truth 2 (+Inf counted in a covered bin, pre-fix bug)", lower)
	}
	if upper < 2 {
		t.Errorf("Estimate(0, 10) upper = %d, below truth 2", upper)
	}
}

// Point queries at infinity: [+Inf, +Inf] closed must bracket the
// number of observed +Inf values exactly; open endpoints match nothing.
func TestEstimateInfinityPointQueries(t *testing.T) {
	h := &Histogram{}
	h.Observe(math.Inf(-1))
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(1))
	h.Observe(5)

	lower, upper := h.Estimate(math.Inf(1), math.Inf(1), true, true)
	if lower != 2 || upper != 2 {
		t.Errorf("Estimate(+Inf, +Inf, closed) = [%d,%d], want [2,2]", lower, upper)
	}
	lower, upper = h.Estimate(math.Inf(-1), math.Inf(-1), true, true)
	if lower != 1 || upper != 1 {
		t.Errorf("Estimate(-Inf, -Inf, closed) = [%d,%d], want [1,1]", lower, upper)
	}
	lower, upper = h.Estimate(math.Inf(1), math.Inf(1), false, false)
	if lower != 0 || upper != 0 {
		t.Errorf("Estimate(+Inf, +Inf, open) = [%d,%d], want [0,0]", lower, upper)
	}
	// [-Inf, +Inf] closed covers everything.
	lower, upper = h.Estimate(math.Inf(-1), math.Inf(1), true, true)
	if lower != 4 || upper != 4 {
		t.Errorf("Estimate(-Inf, +Inf, closed) = [%d,%d], want [4,4]", lower, upper)
	}
	// [-Inf, +Inf) excludes only the +Inf observations.
	lower, upper = h.Estimate(math.Inf(-1), math.Inf(1), true, false)
	if lower > 2 || upper < 2 {
		t.Errorf("Estimate(-Inf, +Inf, half-open) = [%d,%d], must bracket 2", lower, upper)
	}
}

// Degenerate Lo==Hi point queries on finite data: closed must bracket
// the exact multiplicity, open must report zero.
func TestEstimateFinitePointQueries(t *testing.T) {
	vals := []float64{1, 2, 2, 3, 3, 3, 8.5}
	h := Build(vals, 8)
	for _, v := range []float64{1, 2, 3, 8.5, 4.75, -1} {
		truth := trueCount(vals, v, v, true, true)
		lower, upper := h.Estimate(v, v, true, true)
		if lower > truth || upper < truth {
			t.Errorf("point [%v,%v] closed: bounds [%d,%d] do not bracket truth %d", v, v, lower, upper, truth)
		}
		lower, upper = h.Estimate(v, v, false, false)
		if lower != 0 || upper != 0 {
			t.Errorf("point (%v,%v) open: bounds [%d,%d], want [0,0]", v, v, lower, upper)
		}
		lower, upper = h.Estimate(v, v, true, false)
		if lower != 0 || upper != 0 {
			t.Errorf("point [%v,%v) half-open: bounds [%d,%d], want [0,0]", v, v, lower, upper)
		}
	}
}

// Differential check against brute-force counts on seeded spectra:
// for every interval (endpoints drawn from exact data values, bin
// edges, and ±Inf; all four open/closed combinations; Lo==Hi points)
// the bounds must bracket the true count and SelectivityBounds must
// bracket the true fraction. Spectra include uniform, integer-heavy
// (mass exactly on bin edges), log-skewed, ±Inf-sprinkled and
// edge-of-float64 data, built both via Build and via a grid-growing
// Observe stream.
func TestEstimateBruteForceSeededSpectra(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	spectra := func(mode, n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			switch mode {
			case 0: // uniform floats
				vals[i] = rng.Float64()*200 - 100
			case 1: // small integers: mass lands exactly on bin edges
				vals[i] = float64(rng.Intn(32))
			case 2: // log-skewed (the Yıldız et al. failure shape)
				vals[i] = math.Exp(rng.Float64()*12 - 4)
			case 3: // tiny magnitudes around zero
				vals[i] = (rng.Float64() - 0.5) / 512
			case 5: // the edge of float64 beside ordinary values and infinities
				switch rng.Intn(8) {
				case 0:
					vals[i] = math.MaxFloat64 * (1 - rng.Float64()/4)
				case 1:
					vals[i] = -math.MaxFloat64 * (1 - rng.Float64()/4)
				case 2:
					vals[i] = math.Inf(1 - 2*rng.Intn(2))
				case 3:
					vals[i] = math.Ldexp(rng.Float64()-0.5, 1021) // either side of the grid limit
				default:
					vals[i] = rng.NormFloat64() * 1e150
				}
			default: // integers with sprinkled infinities
				switch rng.Intn(10) {
				case 0:
					vals[i] = math.Inf(1)
				case 1:
					vals[i] = math.Inf(-1)
				default:
					vals[i] = float64(rng.Intn(64))
				}
			}
		}
		return vals
	}
	for trial := 0; trial < 480; trial++ {
		mode := trial % 6
		n := 16 + rng.Intn(200)
		vals := spectra(mode, n)
		var h *Histogram
		if trial%2 == 0 {
			h = Build(vals, 16)
		} else {
			h = &Histogram{}
			for _, v := range vals {
				h.Observe(v)
			}
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("trial %d mode %d: invariants: %v", trial, mode, err)
		}
		// Candidate endpoints: exact values, bin edges, ±Inf.
		var pts []float64
		for i := 0; i < 6; i++ {
			pts = append(pts, vals[rng.Intn(n)])
		}
		if h.NumBins() > 0 {
			for i := 0; i < 4; i++ {
				bl, bh := h.BinRange(rng.Intn(h.NumBins()))
				pts = append(pts, bl, bh)
			}
		}
		pts = append(pts, math.Inf(-1), math.Inf(1))
		for q := 0; q < 30; q++ {
			lo := pts[rng.Intn(len(pts))]
			hi := pts[rng.Intn(len(pts))]
			if hi < lo {
				lo, hi = hi, lo
			}
			if q%5 == 0 {
				hi = lo // degenerate point query
			}
			loIncl := rng.Intn(2) == 0
			hiIncl := rng.Intn(2) == 0
			truth := trueCount(vals, lo, hi, loIncl, hiIncl)
			lower, upper := h.Estimate(lo, hi, loIncl, hiIncl)
			if lower > truth || upper < truth {
				t.Fatalf("trial %d mode %d: Estimate(%v,%v,%v,%v) = [%d,%d] does not bracket truth %d",
					trial, mode, lo, hi, loIncl, hiIncl, lower, upper, truth)
			}
			fl, fh := h.SelectivityBounds(lo, hi, loIncl, hiIncl)
			frac := float64(truth) / float64(h.Total)
			const eps = 1e-12
			if fl > frac+eps || fh < frac-eps {
				t.Fatalf("trial %d mode %d: SelectivityBounds(%v,%v,%v,%v) = [%v,%v] does not bracket %v",
					trial, mode, lo, hi, loIncl, hiIncl, fl, fh, frac)
			}
		}
	}
}

// Quantiles must land within the bin (to grid resolution) of the true
// order statistic on seeded spectra, and never return NaN for finite
// data.
func TestQuantileBruteForceSeededSpectra(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	for trial := 0; trial < 100; trial++ {
		n := 8 + rng.Intn(300)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 50
		}
		h := Build(vals, 16)
		for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			got := h.Quantile(q)
			if math.IsNaN(got) {
				t.Fatalf("trial %d: Quantile(%v) = NaN on finite data", trial, q)
			}
			if got < h.Min || got > h.Max {
				t.Fatalf("trial %d: Quantile(%v) = %v outside [Min=%v, Max=%v]",
					trial, q, got, h.Min, h.Max)
			}
		}
	}
}

// Merging must carry the off-grid infinity counters so merged
// estimates stay sound.
func TestMergeCarriesInfinityCounters(t *testing.T) {
	a := &Histogram{}
	a.Observe(1)
	a.Observe(math.Inf(1))
	b := &Histogram{}
	b.Observe(math.Inf(-1))
	b.Observe(2)
	b.Observe(math.Inf(1))
	a.Merge(b)
	if a.PosInf != 2 || a.NegInf != 1 {
		t.Fatalf("merged counters PosInf=%d NegInf=%d, want 2/1", a.PosInf, a.NegInf)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("invariants after merge: %v", err)
	}
	lower, upper := a.Estimate(math.Inf(-1), math.Inf(1), true, true)
	if lower != 5 || upper != 5 {
		t.Errorf("merged Estimate(-Inf,+Inf) = [%d,%d], want [5,5]", lower, upper)
	}
}

// Encode/Decode must round-trip the infinity counters.
func TestEncodeDecodeInfinityCounters(t *testing.T) {
	h := &Histogram{}
	h.Observe(math.Inf(-1))
	h.Observe(3)
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(1))
	b := h.Encode()
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.NegInf != 1 || got.PosInf != 2 || got.Total != 4 {
		t.Fatalf("round-trip NegInf=%d PosInf=%d Total=%d, want 1/2/4", got.NegInf, got.PosInf, got.Total)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("decoded invariants: %v", err)
	}
}

// Regression: grid arithmetic on boundaries near ±MaxFloat64 overflowed
// — merging a histogram holding 1.7e308 with one holding -4e174 doubled
// the width to +Inf and left Start = NaN (found by FuzzHistogramMerge;
// reachable from a `select hist` reply). Values beyond the grid limit
// are binned in the edge bin that ends at it, and every invariant holds.
func TestBuildMergeAtTheEdgeOfFloat64(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b []float64
		nbin int
	}{
		{"fuzz input", []float64{1.7e308, 1e-76}, []float64{-4e174}, 9},
		{"one build", []float64{1.7e308, -4e174, 1e-76}, nil, 9},
		{"both ends", []float64{1.7e308, -1.7e308}, nil, 9},
		{"both ends, one bin", []float64{math.MaxFloat64, -math.MaxFloat64}, []float64{0}, 1},
		{"beside infinities", []float64{math.MaxFloat64, math.Inf(1), 3}, []float64{-math.MaxFloat64, math.Inf(-1)}, 4},
		{"at the grid limit", []float64{gridLimit, gridTop, -gridLimit}, []float64{2 * gridLimit, 1}, 16},
	} {
		h := Build(tc.a, tc.nbin)
		if err := h.CheckInvariants(); err != nil {
			t.Errorf("%s: built: %v", tc.name, err)
		}
		h.Merge(Build(tc.b, tc.nbin/2))
		if err := h.CheckInvariants(); err != nil {
			t.Errorf("%s: merged: %v", tc.name, err)
		}
		vals := append(slices.Clone(tc.a), tc.b...)
		if math.IsInf(h.Width, 0) || math.IsNaN(h.Start) || h.Total != uint64(len(vals)) {
			t.Errorf("%s: width %v start %v total %d of %d", tc.name, h.Width, h.Start, h.Total, len(vals))
		}
		if _, hi := h.BinRange(h.NumBins() - 1); hi > gridLimit && hi <= h.Max && !math.IsInf(h.Max, 1) {
			t.Errorf("%s: last bin ends at %v, below the maximum %v it holds", tc.name, hi, h.Max)
		}
		pts := append(slices.Clone(vals), gridLimit, -gridLimit, math.MaxFloat64, math.Inf(1), math.Inf(-1), 0)
		for _, lo := range pts {
			for _, hi := range pts {
				for incl := 0; incl < 4 && lo <= hi; incl++ {
					truth := trueCount(vals, lo, hi, incl&1 == 1, incl&2 == 2)
					if lower, upper := h.Estimate(lo, hi, incl&1 == 1, incl&2 == 2); lower > truth || upper < truth {
						t.Errorf("%s: Estimate(%v,%v,%v,%v) = [%d,%d] does not bracket %d", tc.name, lo, hi, incl&1 == 1, incl&2 == 2, lower, upper, truth)
					}
				}
			}
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
			if got := h.Quantile(q); math.IsNaN(got) || got < h.Min || got > h.Max {
				t.Errorf("%s: Quantile(%v) = %v outside [%v, %v]", tc.name, q, got, h.Min, h.Max)
			}
		}
	}
}
