// The statement path, client side: a Statement — declarative text or a
// prepared condition tree — enters Do, which lowers it (text only),
// plans it (EXPLAIN only), broadcasts the lowered statement with the
// call's forcing and merges the partial answers: selections for ids,
// counts for count, mergeable histograms for hist. Every server plans
// the statement for itself against the same replicated metadata, so all
// derive the plan EXPLAIN shows.
package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pdcquery/internal/histogram"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/server"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/vclock"
)

var (
	errNoMeta      = errors.New("client: no metadata; call SyncMeta first")
	errNotExecuted = errors.New("client: the statement was not executed (plain EXPLAIN)")
)

// Statement is what Do runs: a condition tree plus how much of the
// answer is wanted, built from text or from a prepared query.
type Statement struct {
	// Explain asks for the plan instead of the answer; Analyze (which
	// implies it) also runs the statement, traced, and pairs the plan's
	// estimates with what the servers observed. A text statement's own
	// prefix sets them too.
	Explain, Analyze bool

	src string         // a text statement; Do prepares it through the client's cache
	low *qlang.Lowered // a prepared statement: lowered already
}

// Text is a declarative statement (package qlang has the grammar). Do
// parses it; a parse error is returned by Do.
func Text(src string) Statement {
	return Statement{src: src}
}

// textEntry is a text statement prepared once on a client: parsed, its
// canonical form rendered, lowered against one metadata view and its
// query encoded. Do finds it by source text and uses it while the view
// is the one it was lowered against, at the same generation, so a warm
// statement is not parsed, rendered, lowered or encoded again.
// Read-only once cached: results share its parse.
type textEntry struct {
	parsed *qlang.Query
	text   string // parsed's canonical form, explain prefix stripped
	meta   *metadata.Service
	low    *qlang.Lowered
	query  []byte // low.Query's encoding
}

// prepareText returns src's entry for the metadata view meta, through
// the client's cache.
func (c *Client) prepareText(src string, meta *metadata.Service) (*textEntry, error) {
	var gen uint64
	if meta != nil {
		gen = meta.Gen()
		if ent, ok := c.texts.Get(src, 0, gen); ok && ent.meta == meta {
			return ent, nil
		}
	}
	parsed, err := qlang.Parse(src)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		return nil, errNoMeta
	}
	low, err := parsed.Lower(meta.IDByName)
	if err != nil {
		return nil, err
	}
	ent := &textEntry{parsed: parsed, text: parsed.Bare(), meta: meta, low: low, query: low.Query.Encode()}
	c.texts.Put(src, 0, gen, ent)
	return ent, nil
}

// Prepared wraps an already built condition tree with a count or ids
// projection (the servers refuse hist, which needs a column and bins).
// It travels exactly as a text statement lowers to, and is the only kind
// whose result the servers keep for Result.GetData.
func Prepared(q *query.Query, kind qlang.ProjKind) Statement {
	return Statement{low: &qlang.Lowered{Query: q, Projection: qlang.Projection{Kind: kind}}}
}

// Options is how one call runs a statement.
type Options struct {
	// Force pins the servers' choice of access paths to one of the
	// paper's strategies; the zero value, plan.ForceAuto, is cost-based.
	Force plan.Force
	// Trace has every server record a span tree of its evaluation
	// (conjuncts, regions, per-region decisions) and return it.
	Trace bool
}

// Result is a completed statement.
type Result struct {
	// Statement is the parsed form of a text statement and Text its
	// canonical rendering, explain prefix stripped; nil and empty for a
	// prepared one. Results of the same text may share Statement: it is
	// read-only.
	Statement *qlang.Query
	Text      string
	// Sel is the merged selection (count-only unless the projection was
	// ids). Nil for plain EXPLAIN, which does not execute.
	Sel *selection.Selection
	// Hist is the merged value histogram of a hist projection.
	Hist *histogram.Histogram
	// Plan is the plan of an EXPLAIN / EXPLAIN ANALYZE statement, derived
	// here exactly as each server derives it; Explain is its rendering,
	// with per-condition actuals after ANALYZE.
	Plan    *plan.Plan
	Explain string
	// Info models the call's execution profile (zero for plain EXPLAIN).
	Info Info
	// TraceID identifies the statement's trace (the request ID) and
	// Traces holds each server's span tree, indexed by rank; zero and nil
	// unless the call was traced (Options.Trace, EXPLAIN ANALYZE).
	TraceID telemetry.TraceID
	Traces  []*telemetry.Span

	client *Client
	reqID  uint64
}

// Trace assembles the per-server span trees under a single client-side
// root whose cost is the modeled end-to-end elapsed time (servers run in
// parallel, so the root cost is not the sum of its children). Returns
// nil when the statement was not traced.
func (r *Result) Trace() *telemetry.Span {
	if r.Traces == nil {
		return nil
	}
	root := telemetry.NewSpan(telemetry.SpanQuery, "client")
	root.Trace = r.TraceID
	root.Cost = r.Info.Elapsed
	root.SetInt("hits", int64(r.Info.NHits))
	root.SetInt("servers", int64(len(r.Traces)))
	for _, t := range r.Traces {
		if t != nil {
			root.Adopt(t)
		}
	}
	return root
}

// Do runs one statement. If ctx ends before every server has answered,
// the call returns ctx's error (servers finish their evaluation; the
// late responses are discarded).
func (c *Client) Do(ctx context.Context, st Statement, o Options) (*Result, error) {
	c.mu.Lock()
	meta, useEpoch, epoch := c.meta, c.useEpoch, c.epoch
	c.mu.Unlock()
	res := &Result{client: c}
	low, query := st.low, []byte(nil)
	explain, analyze := st.Explain, st.Analyze
	switch {
	case low == nil:
		ent, err := c.prepareText(st.src, meta)
		if err != nil {
			return nil, err
		}
		res.Statement, res.Text = ent.parsed, ent.text
		low, query = ent.low, ent.query
		explain, analyze = explain || ent.parsed.Explain, analyze || ent.parsed.Analyze
	case meta != nil:
		if err := low.Query.Validate(meta.Get); err != nil {
			return nil, err
		}
	}
	label := res.Text
	if explain || analyze {
		// Only an explain statement reads the plan; every server plans
		// (and caches) for itself.
		if meta == nil {
			return nil, errNoMeta
		}
		if st.low != nil {
			label = low.Query.Root.String()
		}
		var err error
		if res.Plan, err = plan.Build(meta, low.Query, o.Force); err != nil {
			return nil, err
		}
		if !analyze {
			// Plain EXPLAIN: metadata only, no execution.
			res.Explain = res.Plan.Format(label)
			return res, nil
		}
	}

	traced := o.Trace || analyze
	var flags byte
	if st.low != nil {
		// The one difference between the spellings: a prepared result is
		// kept for GetData.
		flags |= server.FlagKeep
	}
	if traced {
		flags |= server.FlagWantTrace
	}
	if useEpoch {
		flags |= server.FlagEpoch
	}
	if query == nil {
		query = low.Query.Encode()
	}
	hists, err := c.ask(ctx, server.AppendQueryRequest(nil, flags, o.Force, epoch, low, query), traced, low.Projection.Kind == qlang.ProjHist, res)
	if err != nil {
		return nil, err
	}
	if low.Projection.Kind == qlang.ProjHist {
		res.Hist = histogram.MergeAll(hists)
	}
	if analyze {
		res.Explain = res.Plan.FormatAnalyze(label, traceActuals(res.Traces))
	}
	return res, nil
}

// Run executes a prepared query for the merged selection
// (PDCquery_get_selection semantics: hit count plus locations).
func (c *Client) Run(q *query.Query, f plan.Force) (*Result, error) {
	return c.Do(context.Background(), Prepared(q, qlang.ProjIDs), Options{Force: f})
}

// RunCount executes a prepared query for the hit count only
// (PDCquery_get_nhits): servers do full evaluation but transfer no
// locations.
func (c *Client) RunCount(q *query.Query, f plan.Force) (*Result, error) {
	return c.Do(context.Background(), Prepared(q, qlang.ProjCount), Options{Force: f})
}

// RunText parses and executes a declarative statement.
func (c *Client) RunText(text string, f plan.Force) (*Result, error) {
	return c.Do(context.Background(), Text(text), Options{Force: f})
}

// ask broadcasts one encoded statement to every server and folds the
// partial answers into res: the merged selection and the modeled
// end-to-end profile. With hist set it returns the servers' partial
// histograms, nil where a server sent none.
func (c *Client) ask(ctx context.Context, payload []byte, traced, hist bool, res *Result) ([]*histogram.Histogram, error) {
	x := c.getExchange()
	defer c.putExchange(x)
	if err := c.roundTrip(ctx, x, server.MsgQuery, allServers, func(int) []byte { return payload }); err != nil {
		return nil, err
	}
	msgs, busyWait := x.out, x.busyWait
	res.reqID = x.req
	if traced {
		res.TraceID = telemetry.TraceID(x.req)
		res.Traces = make([]*telemetry.Span, len(msgs))
	}
	// Broadcast cost: the request goes out to all servers concurrently.
	// Admission-control backoff (if any) delays the whole call.
	res.Info.Elapsed = res.Info.Elapsed.Add(vclock.CostOf(vclock.Network, c.wire(len(payload))+busyWait))

	var partBuf [8]*selection.Packed
	parts := partBuf[:0]
	var hists []*histogram.Histogram
	if hist {
		hists = make([]*histogram.Histogram, 0, len(msgs))
	}
	var respBytes int
	for i, m := range msgs {
		qr, err := server.DecodeQueryResponse(m.Payload)
		if err != nil {
			return nil, err
		}
		if hist {
			hists = append(hists, qr.Hist)
		}
		res.Info.ServerMax = res.Info.ServerMax.Max(qr.Cost)
		res.Info.Stats.Add(qr.Stats)
		// The model prices the paper's reply, 8 bytes per coordinate: the
		// packed selection is charged as the flat one it stands for.
		respBytes += len(m.Payload) - qr.Sel.EncodedLen() + qr.Sel.FlatLen()
		parts = append(parts, qr.Sel)
		if traced {
			res.Traces[i] = qr.Trace
		}
	}
	var err error
	if res.Sel, err = selection.MergePacked(parts); err != nil {
		return nil, err
	}
	res.Info.NHits = res.Sel.NHits
	// Servers evaluate in parallel; responses serialize into the client.
	// The parallel phase cannot beat the shared backend: if the fleet
	// moved more storage bytes than the slowest server's own time covers
	// at the aggregate bandwidth, the backend saturation is the floor.
	res.Info.Elapsed = res.Info.Elapsed.Add(res.Info.ServerMax)
	if c.sharedBW > 0 && res.Info.Stats.StorageBytes > 0 {
		floor := time.Duration(float64(res.Info.Stats.StorageBytes) / c.sharedBW * 1e9)
		if extra := floor - res.Info.ServerMax.Total(); extra > 0 {
			res.Info.Elapsed = res.Info.Elapsed.Add(vclock.CostOf(vclock.Storage, extra))
		}
	}
	// Responses arrive concurrently: one wire latency, serialized bytes.
	res.Info.Elapsed = res.Info.Elapsed.Add(vclock.CostOf(vclock.Network, c.wire(respBytes)))
	res.Info.Elapsed = res.Info.Elapsed.Add(vclock.CostOf(vclock.Compute, time.Duration(res.Sel.NHits)*mergeCostPerHit))
	return hists, nil
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

// Future is an in-flight asynchronous statement (§III-C: "a client can
// either block and wait for the query result or continue to other tasks
// while the servers are processing"). Wait blocks until completion;
// Done is closed when the result is ready.
type Future struct {
	done chan struct{}
	res  *Result
	err  error
}

// Done is closed once the result is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the statement completes and returns its result.
func (f *Future) Wait() (*Result, error) {
	<-f.done
	return f.res, f.err
}

// DoAsync is Do without the wait: it returns immediately and the
// broadcast and aggregation happen in the background (the paper's
// non-blocking client mode); if ctx ends before the servers answer, the
// Future completes with ctx's error. The background goroutine is owned
// by the client: Close unblocks and reaps it even if the Future is
// abandoned, so async statements cannot leak.
func (c *Client) DoAsync(ctx context.Context, st Statement, o Options) *Future {
	f := &Future{done: make(chan struct{})}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		f.err = ErrClosed
		close(f.done)
		return f
	}
	// Registering on the client's WaitGroup under the same lock that
	// Close takes before waiting makes Close reap this goroutine.
	c.wg.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.wg.Done()
		defer close(f.done)
		f.res, f.err = c.Do(ctx, st, o)
	}()
	return f
}
