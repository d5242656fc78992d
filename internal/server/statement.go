// The statement path: every query a server evaluates arrives as one
// MsgQuery — a statement its client already lowered, whichever way it was
// spelled — and runs the one sequence
// decode → validate → plan → assign → execute → project → epilogue.
package server

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"pdcquery/internal/dtype"
	"pdcquery/internal/exec"
	"pdcquery/internal/histogram"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/sched"
	"pdcquery/internal/selection"
	"pdcquery/internal/sortstore"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// DefaultPlanCacheSize bounds the prepared-plan LRU per server.
const DefaultPlanCacheSize = 64

// Modeled metadata-service charges for preparing a statement the planner
// prices — one whose forcing is auto. A cache miss pays the full
// cost-model walk (per condition); a hit pays one lookup. Both are
// deterministic functions of the query, so virtual time stays
// byte-identical across runs and worker counts. A forced statement names
// its access paths itself: it is planned through the same LRU but
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

// statement is a decoded request and what the front end derived from
// it: everything the path needs to answer it.
type statement struct {
	*QueryRequest
	// need is how much of the answer the reply (or a later get-data on
	// it) can use.
	need exec.Need
	// planKey keys the prepared-plan LRU: the encoded query and the
	// forcing, so both spellings of a statement share one plan.
	planKey string
	// gated marks a statement whose tag conditions exclude an object it
	// reads: the answer is empty without evaluating anything.
	gated bool
}

// decodeStatement is the one front end. It checks what a server no
// longer derives itself — the objects and the hist projection's shape —
// sets the need from the statement, and closes the tag gate.
func (s *Server) decodeStatement(r *request) (*statement, error) {
	req, err := DecodeQueryRequest(r.m.Payload)
	if err != nil {
		return nil, err
	}
	low := req.Stmt
	if err := low.Query.Validate(s.cfg.Meta.Get); err != nil {
		return nil, err
	}
	if low.Projection.Kind == qlang.ProjHist {
		// The projection reads the hist object at the anchor's
		// coordinates, so it must exist and have the anchor's shape.
		anchor, _ := s.cfg.Meta.Get(low.Query.Root.Objects()[0])
		if ho, ok := s.cfg.Meta.Get(low.HistObj); !ok || !slices.Equal(ho.Dims, anchor.Dims) {
			return nil, fmt.Errorf("%w: hist object %d is missing or not shaped %v like the statement's objects", ErrBadStatement, low.HistObj, anchor.Dims)
		}
	}
	st := &statement{
		QueryRequest: req,
		// What the statement can use decides what the engine
		// materialises: a kept result captures the values it has in hand
		// (the paper's server-side result caching, which the stash serves
		// to later get-data requests on this request ID); ids are returned
		// and hist reads values at the coordinates; a count needs neither.
		need:    exec.NeedCount,
		planKey: string(req.Query) + "|" + req.Force.String(),
	}
	if req.Flags&FlagKeep != 0 {
		st.need = exec.NeedValues
	} else if low.Projection.Kind != qlang.ProjCount {
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
	pl, hit := s.planCache.Get(st.planKey, st.Epoch, gen)
	if !hit {
		var err error
		if pl, err = plan.Build(s.cfg.Meta, st.Stmt.Query, st.Force); err != nil {
			return nil, err
		}
		s.planCache.Put(st.planKey, st.Epoch, gen, pl)
	}
	if st.Force == plan.ForceAuto {
		if hit {
			acct.Charge(vclock.Meta, planHitCost)
		} else {
			acct.Charge(vclock.Meta, planBuildCost(pl))
		}
	}
	return pl, nil
}

// handleStatement answers one MsgQuery.
func (s *Server) handleStatement(r *request) transport.Message {
	st, err := s.decodeStatement(r)
	if err != nil {
		return s.errMsg(err)
	}
	q := st.Stmt.Query
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
	wantTrace := st.Flags&FlagWantTrace != 0
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
		assign, err := s.cfg.Assign(st.Epoch, anchor, rep)
		if err != nil {
			return s.errMsg(err)
		}
		eng := s.reqEngine(acct, &phases)
		if res, err = eng.EvaluateToken(tok, q, &pl.Exec, assign, st.need, span); err != nil {
			return fail(err)
		}
		if st.Stmt.Projection.Kind == qlang.ProjHist {
			if hist, err = s.projectHist(eng, tok, st.Stmt, res.Sel); err != nil {
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

	keep := st.Flags&FlagKeep != 0
	if keep {
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
			"strategy", st.Force.Label(),
			"hits", res.Sel.NHits,
			"cost", cost.Total().String(),
			"regions_evaluated", res.Stats.RegionsEvaluated,
			"regions_pruned", res.Stats.RegionsPruned,
			"storage_bytes", res.Stats.StorageBytes,
		)
	}

	resp := QueryResponse{Cost: cost, Stats: res.Stats, Sel: res.Sel, Hist: hist}
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
	if st.Flags&FlagWantSelection == 0 {
		resp.Sel = selection.PackedCount(res.Sel.NHits, res.Sel.Dims)
	}
	encStart := s.clock().Now()
	reply := transport.Message{Type: MsgQueryResult, Payload: resp.Encode()}
	if !keep {
		// The reply is encoded and nothing else holds the result.
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
