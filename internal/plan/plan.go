// Package plan is the cost-based query planner: from a metadata
// snapshot (global + per-region histograms, min-max extrema, bitmap
// index and sorted-replica availability) and a normalized query it
// produces an exec.QueryPlan — per-conjunct condition order and
// per-region scan-vs-bitmap-probe choices, plus whether the sorted
// replica beats both — by modeling the engine's own vclock compute
// charges. The planner is a pure function of (metadata snapshot,
// query, forcing): no clocks, no randomness, no map-order dependence,
// so client and server derive the identical plan from replicated
// metadata and worker-count determinism is untouched.
package plan

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pdcquery/internal/exec"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
)

// Force is the one strategy vocabulary: how a statement's access paths
// are chosen. ForceAuto lets the cost model decide; the other four are
// the paper's evaluation strategies (§III-D). The values are the wire
// encoding (the forcing bits of a MsgQuery's flags byte), so new
// forcings are appended.
type Force int

// Forcings.
const (
	ForceAuto Force = iota
	// ForceScan (PDC-H) prunes by histogram and resolves every
	// surviving region by scan+probe.
	ForceScan
	// ForceBitmap (PDC-HI) resolves every indexed region by
	// bitmap-probe and never collects values: the index strategy reads
	// no raw data it can avoid (§III-D4).
	ForceBitmap
	// ForceSorted (PDC-SH) uses the sorted replica for every conjunct
	// whose first-ordered condition has one; the rest scan+probe.
	ForceSorted
	// ForceFull (PDC-F) preloads every assigned region and scans it:
	// no histogram pruning, conditions in object-ID order.
	ForceFull
)

// forceNames and forceLabels are indexed by Force.
var (
	forceNames  = [...]string{"auto", "scan", "bitmap", "sorted", "full"}
	forceLabels = [...]string{"auto", "PDC-H", "PDC-HI", "PDC-SH", "PDC-F"}
)

// String names the forcing ("auto" for a value out of range).
func (f Force) String() string {
	if !f.Valid() {
		f = ForceAuto
	}
	return forceNames[f]
}

// Label returns the paper's name for the strategy the forcing pins
// ("auto" for the cost model) — the trace span's strategy attribute.
func (f Force) Label() string {
	if !f.Valid() {
		f = ForceAuto
	}
	return forceLabels[f]
}

// Valid reports whether f is a defined forcing (wire values are checked
// with it before they reach the planner).
func (f Force) Valid() bool { return f >= ForceAuto && f <= ForceFull }

// ParseForce reads a forcing by name or by paper label.
func ParseForce(s string) (Force, error) {
	switch s {
	case "", "auto":
		return ForceAuto, nil
	case "scan", "PDC-H", "histogram", "hist":
		return ForceScan, nil
	case "bitmap", "probe", "index", "PDC-HI", "histindex":
		return ForceBitmap, nil
	case "sorted", "PDC-SH", "sorthist":
		return ForceSorted, nil
	case "full", "PDC-F", "fullscan":
		return ForceFull, nil
	}
	return 0, fmt.Errorf("plan: unknown forcing %q", s)
}

// Source is the metadata the planner reads (metadata.Service satisfies
// it).
type Source interface {
	Get(id object.ID) (*object.Object, bool)
}

// CondPlan is one planned condition of a conjunct, in evaluation
// order.
type CondPlan struct {
	Obj      object.ID
	Name     string
	Interval query.Interval
	// SelLower/SelUpper are the selectivity fraction bounds from the
	// global histogram (0..1); EstLower/EstUpper the corresponding row
	// estimates.
	SelLower, SelUpper float64
	EstLower, EstUpper uint64
}

// ConjunctPlan is the plan for one AND-term: the ordered conditions,
// the chosen access paths, and the modeled cost.
type ConjunctPlan struct {
	Conds []CondPlan
	// Sorted is true when the sorted-replica path was chosen for
	// Conds[0].
	Sorted bool
	// ScanRegions/ProbeRegions/PrunedRegions count the per-region
	// choices over the first condition's regions.
	ScanRegions   int
	ProbeRegions  int
	PrunedRegions int
	// CostNs is the modeled compute cost of this conjunct.
	CostNs float64
	// Exec is the engine-facing form.
	Exec exec.ConjunctPlan
	// scanNs is CostNs without the sorted path.
	scanNs float64
}

// Plan is the planner's output for one query.
type Plan struct {
	Conjuncts []ConjunctPlan
	// CostNs is the total modeled compute cost.
	CostNs float64
	// Force records the forcing the plan was built under.
	Force Force
	// Exec is the engine-facing form the server hands to the engine.
	Exec exec.QueryPlan
	// Normalized is the query's disjunctive normal form, which Conjuncts
	// and Exec.Conjuncts follow index by index: what the engine prepares
	// the plan against.
	Normalized []query.Conjunct
}

// Modeled per-operation costs beyond the engine's per-element rates:
// reading one bitmap-index bin and one binary-search step of the
// sorted path. Like the engine's constants these are fractions of a
// nanosecond per unit at full node parallelism.
const (
	indexBinNs   = 40.0
	sortedStepNs = 60.0
)

// Build plans q against the metadata snapshot. The result depends only
// on (snapshot contents, query, force).
func Build(src Source, q *query.Query, force Force) (*Plan, error) {
	conjuncts, err := query.Normalize(q.Root)
	if err != nil {
		return nil, err
	}
	p := &Plan{Force: force, Normalized: conjuncts}
	p.Exec.Label = force.Label()
	p.Exec.Full = force == ForceFull
	p.Exec.IndexOnly = force == ForceBitmap
	for _, c := range conjuncts {
		cp, err := buildConjunct(src, c, force)
		if err != nil {
			return nil, err
		}
		p.Conjuncts = append(p.Conjuncts, cp)
	}
	// Servers split a statement's work by original region, or on the
	// sorted path by the sorted regions of the leading object's replica,
	// and the client adds up their partial answers. A statement whose
	// conjuncts split it two ways would count a location two of them
	// match on two servers, so unless every conjunct takes the sorted
	// path on one replica, none does.
	oneReplica := true
	for _, cp := range p.Conjuncts {
		oneReplica = oneReplica && cp.Sorted && cp.Conds[0].Obj == p.Conjuncts[0].Conds[0].Obj
	}
	for i := range p.Conjuncts {
		cp := &p.Conjuncts[i]
		if cp.Sorted && !oneReplica {
			cp.Sorted, cp.Exec.Sorted, cp.CostNs = false, false, cp.scanNs
		}
		p.CostNs += cp.CostNs
		p.Exec.Conjuncts = append(p.Exec.Conjuncts, cp.Exec)
	}
	return p, nil
}

// buildConjunct orders one conjunct's conditions by ascending
// selectivity upper bound from the global histograms, stable on object
// ID (§III-D2; ForceFull keeps object-ID order), and chooses access
// paths by modeled cost. It is the only place either decision is made:
// the engine executes the order and choices it is handed.
func buildConjunct(src Source, c query.Conjunct, force Force) (ConjunctPlan, error) {
	ids := c.ObjectsSorted()
	conds := make([]CondPlan, 0, len(ids))
	for _, id := range ids {
		o, ok := src.Get(id)
		if !ok {
			return ConjunctPlan{}, fmt.Errorf("plan: object %d not found", id)
		}
		iv := c[id]
		cp := CondPlan{Obj: id, Name: o.Name, Interval: iv, SelLower: 0, SelUpper: 1}
		n := o.NumElems()
		cp.EstLower, cp.EstUpper = 0, n
		if o.Global != nil {
			cp.SelLower, cp.SelUpper = o.Global.SelectivityBounds(iv.Lo, iv.Hi, iv.LoIncl, iv.HiIncl)
			lo, hi := o.Global.Estimate(iv.Lo, iv.Hi, iv.LoIncl, iv.HiIncl)
			cp.EstLower, cp.EstUpper = lo, hi
		}
		conds = append(conds, cp)
	}
	if force != ForceFull {
		slices.SortStableFunc(conds, func(x, y CondPlan) int { return cmp.Compare(x.SelUpper, y.SelUpper) })
	}

	out := ConjunctPlan{Conds: conds}
	out.Exec.Order = make([]object.ID, len(conds))
	for i, cp := range conds {
		out.Exec.Order[i] = cp.Obj
	}

	first, ok := src.Get(conds[0].Obj)
	if !ok {
		return ConjunctPlan{}, fmt.Errorf("plan: object %d not found", conds[0].Obj)
	}
	iv := c[first.ID]

	// Later conditions probe at the locations surviving so far; model
	// them at the first condition's upper-bound hit estimate.
	probeNs := float64(conds[0].EstUpper) * exec.ProbeNsPerElem * float64(len(conds)-1)

	// Per-region choice over the first condition's regions. bins and
	// cands are the index selection's storage, reused region to region.
	var scanProbeNs float64
	var bins, cands []int
	choices := make(map[int]exec.RegionChoice, len(first.Regions))
	for r := range first.Regions {
		rm := &first.Regions[r]
		if force != ForceFull && exec.Prunable(rm, iv) {
			out.PrunedRegions++
			continue
		}
		elems := first.RegionElems(r)
		scanNs := float64(elems) * exec.ScanNsPerElem
		probeRegionNs := math.Inf(1)
		switch {
		case rm.IndexKey == "" || rm.IndexBins == 0:
		case rm.IndexDir != nil:
			// The index path reads the bins the engine's own selection
			// touches and candidate-checks the candidate bins' elements.
			bins, cands, _ = rm.IndexDir.Select(bins[:0], cands[:0], iv.Lo, iv.Hi, iv.LoIncl, iv.HiIncl)
			var checks uint64
			for _, b := range cands {
				checks += rm.IndexDir.Bins[b].Count
			}
			probeRegionNs = float64(len(bins)+len(cands))*indexBinNs + float64(checks)*exec.CandNsPerElem
		default:
			// Without the directory in metadata, estimate the touched
			// bins and candidate-check the estimated hits.
			upper := elems
			if rm.Hist != nil {
				_, upper = rm.Hist.Estimate(iv.Lo, iv.Hi, iv.LoIncl, iv.HiIncl)
				upper = min(upper, elems)
			}
			touched := 1 + float64(rm.IndexBins)*frac(upper, elems)
			probeRegionNs = touched*indexBinNs + float64(upper)*exec.CandNsPerElem
		}
		choice := exec.ChoiceScan
		costNs := scanNs
		switch force {
		case ForceScan, ForceSorted, ForceFull:
			// keep scan
		case ForceBitmap:
			// Unindexed regions go to the index evaluator too: it
			// degrades per condition to scan semantics, at scan cost.
			choice = exec.ChoiceProbe
			if !math.IsInf(probeRegionNs, 1) {
				costNs = probeRegionNs
			}
		default:
			if probeRegionNs < scanNs {
				choice, costNs = exec.ChoiceProbe, probeRegionNs
			}
		}
		if choice == exec.ChoiceProbe {
			out.ProbeRegions++
		} else {
			out.ScanRegions++
		}
		choices[r] = choice
		scanProbeNs += costNs
	}
	out.Exec.Regions = choices
	scanProbeNs += probeNs

	// Sorted-replica alternative: binary-search the sorted regions for
	// the interval, then probe the remaining conditions at the matching
	// locations.
	sortedNs := math.Inf(1)
	if first.SortedBy != 0 {
		n := float64(first.NumElems())
		steps := math.Log2(n + 1)
		sortedNs = steps*sortedStepNs +
			float64(conds[0].EstUpper)*exec.ProbeNsPerElem +
			probeNs
	}
	switch force {
	case ForceSorted:
		if !math.IsInf(sortedNs, 1) {
			out.Sorted = true
		}
	case ForceScan, ForceBitmap, ForceFull:
		// keep the forced per-region path
	default:
		if sortedNs < scanProbeNs {
			out.Sorted = true
		}
	}
	out.CostNs, out.scanNs = scanProbeNs, scanProbeNs
	if out.Sorted {
		out.CostNs = sortedNs
	}
	out.Exec.Sorted = out.Sorted
	return out, nil
}

// frac is a safe ratio.
func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
