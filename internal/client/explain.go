package client

import (
	"fmt"

	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/telemetry"
)

// Explain returns the plan the servers execute for q under the client's
// forcing (SetForce): the planner's own output — every server derives
// the identical one from the replicated metadata — computed entirely
// from metadata, with no server round trip or storage access. Render it
// with plan.Format.
func (c *Client) Explain(q *query.Query) (*plan.Plan, error) {
	if c.meta == nil {
		return nil, fmt.Errorf("client: no metadata; call SyncMeta first")
	}
	if err := q.Validate(c.meta.Get); err != nil {
		return nil, err
	}
	c.mu.Lock()
	force := c.force
	c.mu.Unlock()
	return plan.Build(c.meta, q, force)
}

// Analyzed couples a query plan with an actual traced run (EXPLAIN
// ANALYZE semantics).
type Analyzed struct {
	Plan *plan.Plan
	Res  *QueryResult
	// Explain is the rendered plan with, per condition, the planner's
	// estimated rows next to what the servers really observed.
	Explain string
}

// ExplainAnalyze computes the plan, then executes the query with tracing
// and pairs the two: estimates from metadata, actuals from the servers'
// span trees.
func (c *Client) ExplainAnalyze(q *query.Query) (*Analyzed, error) {
	pl, err := c.Explain(q)
	if err != nil {
		return nil, err
	}
	res, err := c.RunTraced(q)
	if err != nil {
		return nil, err
	}
	return &Analyzed{Plan: pl, Res: res, Explain: pl.FormatAnalyze(q.Root.String(), traceActuals(res.Traces))}, nil
}

// traceActuals builds the EXPLAIN ANALYZE actuals lookup from the
// servers' span trees: for conjunct ci and condition object id, the
// summed in/out element counts across all servers. Conjunct indices are
// stable across servers: they come from the same query.Normalize order.
func traceActuals(traces []*telemetry.Span) plan.Actuals {
	return func(ci int, id object.ID) (in, out int64, ok bool) {
		name := fmt.Sprintf("conjunct.%d", ci)
		inKey := fmt.Sprintf("cond.%d.in", id)
		outKey := fmt.Sprintf("cond.%d.out", id)
		for _, t := range traces {
			if t == nil {
				continue
			}
			t.Walk(func(s *telemetry.Span) {
				if s.Kind != telemetry.SpanConjunct || s.Name != name {
					return
				}
				if v, found := s.Int(inKey); found {
					in += v
					ok = true
				}
				if v, found := s.Int(outKey); found {
					out += v
					ok = true
				}
			})
		}
		return in, out, ok
	}
}
