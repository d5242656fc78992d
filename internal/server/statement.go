// The statement path: every query a server evaluates — a binary
// MsgQuery or a text MsgTextQuery — is decoded by its per-kind front
// end into a statement, and from there runs the one sequence
// validate → plan → assign → execute → project → epilogue.
package server

import (
	"errors"
	"fmt"
	"time"

	"pdcquery/internal/dtype"
	"pdcquery/internal/exec"
	"pdcquery/internal/histogram"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/sched"
	"pdcquery/internal/selection"
	"pdcquery/internal/sortstore"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// DefaultPlanCacheSize bounds the prepared-plan LRU per server.
const DefaultPlanCacheSize = 64

// Modeled metadata-service charges for preparing a statement that
// arrived as text. A cache miss pays the full cost-model walk (per
// condition); a hit pays one lookup. Both are deterministic functions of
// the query, so virtual time stays byte-identical across runs and worker
// counts. A binary query is the prepared form already — its client
// lowered and stamped it — so it is planned through the same LRU but
// charged nothing.
const (
	planHitCost      = 1 * time.Microsecond
	planBuildBase    = 10 * time.Microsecond
	planBuildPerCond = 2 * time.Microsecond
)

func planBuildCost(p *plan.Plan) time.Duration {
	n := 0
	for _, cj := range p.Conjuncts {
		n += len(cj.Conds)
	}
	return planBuildBase + time.Duration(n)*planBuildPerCond
}

// statement is what a front end makes of a request payload: everything
// the shared path needs to answer it.
type statement struct {
	// low is the lowered statement; a binary query is one with a count
	// projection and no tags.
	low   *qlang.Lowered
	force plan.Force
	flags byte
	epoch uint64
	// need is how much of the answer the reply (or a later get-data on
	// it) can use.
	need exec.Need
	// planKey keys the prepared-plan LRU (the forcing included).
	planKey string
	// text marks a statement that arrived as text: it pays the modeled
	// prepare charge, is answered in the text envelope, and is never
	// stashed (the text API hands out no request ID a get-data could
	// name).
	text bool
	// gated marks a statement whose tag conditions exclude an object it
	// reads: the answer is empty without evaluating anything.
	gated bool
}

// queryStatement is the MsgQuery front end: the payload is the prepared
// form, with the forcing in the flags byte.
func (s *Server) queryStatement(r *request) (*statement, error) {
	flags, force, epoch, qbytes, err := DecodeQueryRequest(r.m.Payload)
	if err != nil {
		return nil, err
	}
	q, err := query.Decode(qbytes)
	if err != nil {
		return nil, err
	}
	return &statement{
		low: &qlang.Lowered{Query: q}, force: force, flags: flags, epoch: epoch,
		// Always let the engine capture values it has in hand: that is
		// the paper's server-side result caching, which the stash serves
		// to later get-data requests on this request ID (even a
		// count-only reply can be followed by one). The response only
		// carries the values when the client asked for them inline.
		need: exec.NeedValues,
		// NUL never starts a canonical text, so the two key spaces are
		// disjoint.
		planKey: "\x00" + string(qbytes) + "|" + force.String(),
	}, nil
}

// textStatement is the MsgTextQuery front end: parse the declarative
// text, resolve names against the metadata, and close the tag gate.
func (s *Server) textStatement(r *request) (*statement, error) {
	flags, epoch, force, text, err := DecodeTextQuery(r.m.Payload)
	if err != nil {
		return nil, err
	}
	parsed, err := qlang.Parse(text)
	if err != nil {
		return nil, err
	}
	low, err := parsed.Lower(func(name string) (object.ID, bool) {
		o, ok := s.cfg.Meta.GetByName(name)
		if !ok {
			return 0, false
		}
		return o.ID, true
	})
	if err != nil {
		return nil, err
	}
	st := &statement{
		low: low, force: force, flags: flags, epoch: epoch,
		// What the statement can use decides what the engine
		// materialises: ids are returned and hist reads values at the
		// coordinates; a count needs neither.
		need:    exec.NeedCount,
		planKey: parsed.CacheKey() + "|" + force.String(),
		text:    true,
	}
	if flags&FlagWantSelection != 0 || low.Projection.Kind == qlang.ProjHist {
		st.need = exec.NeedCoords
	}
	st.gated = s.tagGated(r.acct, low)
	return st, nil
}

// tagGated applies a statement's tag conditions: every object its
// numeric conditions and projection touch must carry all the requested
// tags, else the statement addresses data outside the tagged set.
func (s *Server) tagGated(acct *vclock.Account, low *qlang.Lowered) bool {
	if len(low.Tags) == 0 {
		return false
	}
	inTag := make(map[object.ID]bool)
	for _, id := range s.cfg.Meta.TagQuery(acct, low.Tags) {
		inTag[id] = true
	}
	for _, id := range low.Query.Root.Objects() {
		if !inTag[id] {
			return true
		}
	}
	return low.Projection.Kind == qlang.ProjHist && !inTag[low.HistObj]
}

// prepare returns the statement's plan through the LRU: valid only for
// the exact (placement epoch, metadata generation) it was built against.
func (s *Server) prepare(acct *vclock.Account, st *statement) (*plan.Plan, error) {
	gen := s.cfg.Meta.Gen()
	pl, hit := s.planCache.Get(st.planKey, st.epoch, gen)
	if !hit {
		var err error
		if pl, err = plan.Build(s.cfg.Meta, st.low.Query, st.force); err != nil {
			return nil, err
		}
		s.planCache.Put(st.planKey, st.epoch, gen, pl)
	}
	if st.text {
		if hit {
			acct.Charge(vclock.Meta, planHitCost)
		} else {
			acct.Charge(vclock.Meta, planBuildCost(pl))
		}
	}
	return pl, nil
}

// handleStatement answers one statement. Everything after the front end
// is written once, for both kinds.
func (s *Server) handleStatement(r *request, front func(*request) (*statement, error)) transport.Message {
	if s.cfg.OnQuery != nil {
		// Counts every statement handed to the server, answered or
		// refused, before its reply leaves.
		defer func() { s.cfg.OnQuery(uint64(s.queriesServed.Add(1))) }()
	}
	st, err := front(r)
	if err != nil {
		return s.errMsg(err)
	}
	q := st.low.Query
	if err := q.Validate(s.cfg.Meta.Get); err != nil {
		return s.errMsg(err)
	}
	ss, tok, acct, m := r.ss, r.tok, r.acct, r.m
	fail := func(err error) transport.Message {
		if errors.Is(err, sched.ErrDeadline) {
			s.rec.Record(telemetry.EvDeadline, 0, int32(s.cfg.ID), acct.Cost().Total().Nanoseconds(), int64(m.ReqID), 0)
		}
		return s.errMsg(err)
	}

	var span *telemetry.Span
	// The span is built when the client asked for a trace OR the
	// slow-query log is armed (the log captures the span of a query that
	// crossed the threshold); it is only returned on explicit request.
	wantTrace := st.flags&FlagWantTrace != 0
	var wallStart int64
	if wantTrace || s.cfg.SlowQueryNs > 0 {
		span = telemetry.NewSpan(telemetry.SpanQuery, fmt.Sprintf("server.%d", s.cfg.ID))
		span.Trace = telemetry.TraceID(m.Trace)
		wallStart = s.clock().Now()
	}

	ids := q.Root.Objects()
	anchor, _ := s.cfg.Meta.Get(ids[0])
	res := &exec.Result{Sel: selection.PackedCount(0, anchor.Dims)}
	var hist *histogram.Histogram
	var phases telemetry.PhaseTimes
	if !st.gated {
		pl, err := s.prepare(acct, st)
		if err != nil {
			return s.errMsg(err)
		}
		var rep *sortstore.Replica
		for _, id := range ids {
			if rp := s.cfg.Replicas[id]; rp != nil {
				rep = rp
				break
			}
		}
		assign, err := s.cfg.Assign(st.epoch, anchor, rep)
		if err != nil {
			return s.errMsg(err)
		}
		eng := s.reqEngine(acct, &phases)
		if res, err = eng.EvaluateToken(tok, q, &pl.Exec, assign, st.need, span); err != nil {
			return fail(err)
		}
		if st.low.Projection.Kind == qlang.ProjHist {
			if hist, err = s.projectHist(eng, tok, st.low, res.Sel); err != nil {
				return fail(err)
			}
		}
	}
	// The budget is a deadline on the reply, not just a cancellation
	// point: a cost charged by the final read — the evaluation's or the
	// projection's — can cross it after the last region-boundary check,
	// and in virtual time that reply arrives late.
	if err := tok.Err(); err != nil {
		return fail(err)
	}
	cost := acct.Cost()
	res.Stats.StorageBytes = acct.Counter("read.bytes")

	if !st.text {
		ss.put(m.ReqID, &stashEntry{sel: res.Sel, values: res.Values})
	}
	ss.reg.Add("query.count", 1)
	ss.reg.Observe("query.cost_ns", float64(cost.Total()))
	s.rec.Record(telemetry.EvQueryDone, 0, int32(s.cfg.ID), cost.Total().Nanoseconds(), int64(m.ReqID), int64(res.Sel.NHits))

	if s.cfg.Log != nil {
		s.cfg.Log.Info("query",
			"server", s.cfg.ID,
			"req", m.ReqID,
			"trace", m.Trace,
			"strategy", st.force.Label(),
			"hits", res.Sel.NHits,
			"cost", cost.Total().String(),
			"regions_evaluated", res.Stats.RegionsEvaluated,
			"regions_pruned", res.Stats.RegionsPruned,
			"storage_bytes", res.Stats.StorageBytes,
		)
	}

	resp := QueryResponse{Cost: cost, Stats: res.Stats, Sel: res.Sel}
	if span != nil {
		// The root span's cost is exactly the response's incremental cost;
		// child spans break it down.
		span.Cost = cost
		if wall := s.clock().Now(); wall != 0 || wallStart != 0 {
			span.WallNanos = wall - wallStart
		}
		// No scheduler attributes in the trace: the traced response
		// payload is part of the modeled wire cost, so span bytes must be
		// identical at any worker count (worker count is a gauge instead).
		span.SetInt("hits", int64(res.Sel.NHits))
		if wantTrace {
			resp.Trace = span
		}
	}
	if st.flags&FlagWantSelection == 0 {
		resp.Sel = selection.PackedCount(res.Sel.NHits, res.Sel.Dims)
	}
	if st.flags&FlagWantValues != 0 {
		resp.Values = res.Values
	}
	encStart := s.clock().Now()
	reply := transport.Message{Type: MsgQueryResult}
	if st.text {
		reply.Type = MsgTextResult
		reply.Payload = (&TextQueryResponse{Base: resp, Hist: hist}).Encode()
	} else {
		reply.Payload = resp.Encode()
	}
	if st.text {
		// The reply is encoded and a text statement is never stashed.
		res.Release()
	}
	// With query.count beside it, the bytes per reply any member sends.
	ss.reg.Add("query.reply_bytes", int64(len(reply.Payload)))
	if encEnd := s.clock().Now(); encEnd != 0 || encStart != 0 {
		// Encoding is pure compute with no modeled virtual cost; the
		// phase is wall-only.
		phases.Add(telemetry.PhaseEncode, 0, encEnd-encStart)
	}
	s.observePhases(ss, &phases)
	s.maybeLogSlowQuery(ss, m, span, cost, wallStart, res)
	return reply
}

// projectHist is the hist projection: the server's partial histogram of
// the projected column's values at the matching coordinates — one of
// the few readers of the coordinates themselves, so it unpacks them.
func (s *Server) projectHist(eng *exec.Engine, tok *sched.Token, low *qlang.Lowered, sel *selection.Packed) (*histogram.Histogram, error) {
	coords, err := sel.Coords(nil)
	if err != nil {
		return nil, err
	}
	vals, err := eng.ExtractValues(tok, low.HistObj, coords)
	if err != nil {
		return nil, err
	}
	ho, _ := s.cfg.Meta.Get(low.HistObj)
	fv := make([]float64, len(coords))
	for i := range fv {
		fv[i] = dtype.At(ho.Type, vals, i)
	}
	return histogram.Build(fv, low.Projection.Bins), nil
}

// PlanCacheStats exposes the prepared-plan LRU's hit/miss counters
// (read by the plancache benchmark figure and tests).
func (s *Server) PlanCacheStats() (hits, misses uint64) {
	return s.planCache.Stats()
}
