// Text-query client API: parse the declarative statement locally,
// broadcast the canonical text to every server (each plans it against
// the same replicated metadata, so every server derives the identical
// plan), and merge the partial results — selections for ids, counts for
// count, mergeable histograms for hist. EXPLAIN renders the client-side
// plan without executing; EXPLAIN ANALYZE executes with tracing and
// pairs estimated rows with the observed per-condition actuals.
package client

import (
	"context"
	"fmt"

	"pdcquery/internal/histogram"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/selection"
	"pdcquery/internal/server"
	"pdcquery/internal/telemetry"
)

// TextResult is the outcome of one text query.
type TextResult struct {
	// Statement is the parsed form; Text its canonical rendering (what
	// was sent to the servers, explain prefix stripped).
	Statement *qlang.Query
	Text      string
	// Sel is the merged selection (count-only unless the projection was
	// ids). Nil for plain EXPLAIN, which does not execute.
	Sel *selection.Selection
	// Hist is the merged value histogram of a hist projection.
	Hist *histogram.Histogram
	// Plan is the client-derived plan of an EXPLAIN / EXPLAIN ANALYZE
	// statement (identical to each server's: both are pure functions of
	// the replicated metadata and the text); nil for plain statements.
	Plan *plan.Plan
	// Explain is the rendered EXPLAIN / EXPLAIN ANALYZE text; empty for
	// plain statements.
	Explain string
	// Info models the call's execution profile (zero for plain EXPLAIN).
	Info Info
	// Traces holds each server's span tree when the statement was
	// EXPLAIN ANALYZE.
	Traces []*telemetry.Span
}

// RunText parses and executes a declarative query statement. force pins
// the planner's strategy choice (plan.ForceAuto lets cost decide).
func (c *Client) RunText(text string, force plan.Force) (*TextResult, error) {
	return c.RunTextContext(context.Background(), text, force)
}

// RunTextContext is RunText with cancellation.
func (c *Client) RunTextContext(ctx context.Context, text string, force plan.Force) (*TextResult, error) {
	parsed, err := qlang.Parse(text)
	if err != nil {
		return nil, err
	}
	if c.meta == nil {
		return nil, fmt.Errorf("client: no metadata; call SyncMeta first")
	}
	low, err := parsed.Lower(func(name string) (object.ID, bool) {
		o, ok := c.meta.GetByName(name)
		if !ok {
			return 0, false
		}
		return o.ID, true
	})
	if err != nil {
		return nil, err
	}
	res := &TextResult{Statement: parsed, Text: parsed.CacheKey()}
	if parsed.Explain {
		// Only an explain statement reads the plan; every server plans
		// (and caches) for itself.
		if res.Plan, err = plan.Build(c.meta, low.Query, force); err != nil {
			return nil, err
		}
		if !parsed.Analyze {
			// Plain EXPLAIN: metadata only, no execution.
			res.Explain = res.Plan.Format(res.Text)
			return res, nil
		}
	}

	var flags byte
	if low.Projection.Kind == qlang.ProjIDs {
		flags |= server.FlagWantSelection
	}
	if parsed.Analyze {
		flags |= server.FlagWantTrace
	}
	c.mu.Lock()
	useEpoch, epoch := c.useEpoch, c.epoch
	c.mu.Unlock()
	if useEpoch {
		flags |= server.FlagEpoch
	}
	qr, hists, err := c.ask(ctx, server.MsgTextQuery, server.EncodeTextQuery(flags, epoch, force, res.Text), parsed.Analyze)
	if err != nil {
		return nil, err
	}
	res.Sel, res.Info, res.Traces = qr.Sel, qr.Info, qr.Traces
	if low.Projection.Kind == qlang.ProjHist {
		res.Hist = histogram.MergeAll(hists)
	}
	if parsed.Explain {
		res.Explain = res.Plan.FormatAnalyze(res.Text, traceActuals(res.Traces))
	}
	return res, nil
}
