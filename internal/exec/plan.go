package exec

import (
	"errors"
	"fmt"

	"pdcquery/internal/object"
	"pdcquery/internal/query"
)

// Exported mirrors of the engine's compute-cost constants, so the
// cost-based planner models exactly what the engine charges.
const (
	// ScanNsPerElem is the per-element cost of a first-condition scan.
	ScanNsPerElem = scanNsPerElem
	// ProbeNsPerElem is the per-element cost of probing a later
	// condition at already-selected locations.
	ProbeNsPerElem = probeNsPerElem
	// CandNsPerElem is the per-element cost of a boundary-bin candidate
	// check on the bitmap-index path.
	CandNsPerElem = candNsPerElem
)

// RegionChoice is how one region resolves a conjunct.
type RegionChoice uint8

// Region choices. A region the plan does not list scans.
const (
	// ChoiceScan is the scan+probe path.
	ChoiceScan RegionChoice = iota
	// ChoiceProbe is the bitmap-index path (conditions on regions
	// without an index degrade to scan semantics inside the index
	// evaluator, so the choice is always safe).
	ChoiceProbe
)

// ConjunctPlan fixes one conjunct's evaluation: the condition order
// and the per-region resolution choice.
type ConjunctPlan struct {
	// Order is the condition evaluation order. It must list exactly the
	// conjunct's objects, each once (ErrPlan otherwise).
	Order []object.ID
	// Sorted selects the sorted-replica path for Order[0] (taken only
	// when the engine actually has the replica).
	Sorted bool
	// Regions maps region index → choice; absent regions scan.
	Regions map[int]RegionChoice
}

// QueryPlan is the prepared form of a statement, the only thing the
// engine executes: one ConjunctPlan per normalized conjunct, in
// query.Normalize order, plus what the statement's forcing decided for
// the whole query. A plan changes cost, never results.
type QueryPlan struct {
	Conjuncts []ConjunctPlan
	// Label is the trace span's strategy attribute: the paper's name
	// for the statement's forcing.
	Label string
	// Full is PDC-F: every assigned region of every queried object is
	// preloaded in one streaming read per object, and no region is
	// pruned by histogram or extrema.
	Full bool
	// IndexOnly is PDC-HI: values are never collected, because the
	// index strategy deliberately avoids raw reads (§III-D4).
	IndexOnly bool
}

// ErrPlan reports a plan that does not cover the query it was handed
// with: a missing conjunct, or an order that omits, repeats or invents
// a condition. The engine refuses it rather than reorder on its own.
var ErrPlan = errors.New("exec: plan does not cover the query")

// order validates the plan's order against the conjunct it is about to
// drive.
func (cp *ConjunctPlan) order(i int, c query.Conjunct) ([]object.ID, error) {
	if len(cp.Order) != len(c) {
		return nil, fmt.Errorf("%w: conjunct %d has %d conditions, plan orders %d", ErrPlan, i, len(c), len(cp.Order))
	}
	// Conjuncts hold a handful of conditions, so the quadratic duplicate
	// scan beats a map on the hot path.
	for k, id := range cp.Order {
		if _, ok := c[id]; !ok {
			return nil, fmt.Errorf("%w: conjunct %d has no condition on object %d", ErrPlan, i, id)
		}
		for j := 0; j < k; j++ {
			if cp.Order[j] == id {
				return nil, fmt.Errorf("%w: conjunct %d orders object %d twice", ErrPlan, i, id)
			}
		}
	}
	return cp.Order, nil
}
