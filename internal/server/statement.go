// The statement path: every query a server evaluates arrives as one
// MsgQuery — a statement its client already lowered, whichever way it was
// spelled — and runs the one sequence
// decode → validate → plan → assign → execute → project → epilogue.
package server

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"
	"unsafe"

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

// planEntry is a plan-cache entry: a statement's query decoded,
// validated, planned — normalizing it once — and compiled for the engine
// against one (placement epoch, metadata generation). Every request
// whose forcing and encoded query match shares it, whichever way it was
// spelled; what differs per request — flags, the epoch stamp, tags and
// projection — comes from each request's own header. Read-only once
// cached.
type planEntry struct {
	query *query.Query
	ids   []object.ID // the query's objects, ascending
	plan  *plan.Plan  // nil until prepare builds it
	exec  *exec.Prepared
}

// statement is a decoded request and what the front end derived from
// it: everything the path needs to answer it.
type statement struct {
	*QueryRequest
	// need is how much of the answer the reply (or a later get-data on
	// it) can use.
	need exec.Need
	// gen is the metadata generation the statement was checked against.
	gen uint64
	// prep is the statement's cache entry or, when the cache had none,
	// its decoded and validated query, which prepare plans.
	prep *planEntry
	// gated marks a statement whose tag conditions exclude an object it
	// reads: the answer is empty without evaluating anything.
	gated bool
}

// planKey is the request's plan-cache key — forcing, then the encoded
// query — as a string over the request's reusable key buffer: looking
// it up allocates nothing, and a Put stores a copy.
func (r *request) planKey() string {
	return unsafe.String(unsafe.SliceData(r.key), len(r.key))
}

// decodeStatement is the one front end. It decodes and checks the
// request's header on every statement; the query itself is decoded and
// validated only when the plan cache has no entry for it at this epoch
// and generation, since an entry's query was validated against the same
// metadata. It then checks the hist projection's shape, sets the need
// from the statement, and closes the tag gate. Nothing here touches the
// cache's counters or recency: a statement the gate or a check stops
// never reaches prepare.
func (s *Server) decodeStatement(r *request) (*statement, error) {
	st, req := &r.st, &r.req
	st.QueryRequest, req.Stmt = req, &r.low
	if err := req.decodeHeader(r.m.Payload); err != nil {
		return nil, err
	}
	r.key = append(append(r.key[:0], byte(req.Force)), req.Query...)
	st.gen = s.cfg.Meta.Gen()
	prep, ok := s.planCache.Peek(r.planKey(), req.Epoch, st.gen)
	if !ok {
		q, err := query.Decode(req.Query)
		if err != nil {
			return nil, err
		}
		if err := q.Validate(s.cfg.Meta.Get); err != nil {
			return nil, err
		}
		prep = &planEntry{query: q, ids: q.Root.Objects()}
	}
	st.prep = prep
	low := req.Stmt
	low.Query = prep.query
	if low.Projection.Kind == qlang.ProjHist {
		// The projection reads the hist object at the anchor's
		// coordinates, so it must exist and have the anchor's shape.
		anchor, _ := s.cfg.Meta.Get(prep.ids[0])
		if ho, ok := s.cfg.Meta.Get(low.HistObj); !ok || !slices.Equal(ho.Dims, anchor.Dims) {
			return nil, fmt.Errorf("%w: hist object %d is missing or not shaped %v like the statement's objects", ErrBadStatement, low.HistObj, anchor.Dims)
		}
	}
	// What the statement can use decides what the engine materialises:
	// a kept result captures the values it has in hand (the paper's
	// server-side result caching, which the stash serves to later
	// get-data requests on this request ID); ids are returned and hist
	// reads values at the coordinates; a count needs neither.
	st.need = exec.NeedCount
	if req.Flags&FlagKeep != 0 {
		st.need = exec.NeedValues
	} else if low.Projection.Kind != qlang.ProjCount {
		st.need = exec.NeedCoords
	}
	st.gated = s.tagGated(r.acct, low, prep.ids)
	return st, nil
}

// tagGated applies a statement's tag conditions: every object its
// numeric conditions (ids) and projection touch must carry all the
// requested tags, else the statement addresses data outside the tagged
// set.
func (s *Server) tagGated(acct *vclock.Account, low *qlang.Lowered, ids []object.ID) bool {
	if len(low.Tags) == 0 {
		return false
	}
	inTag := make(map[object.ID]bool)
	for _, id := range s.cfg.Meta.TagQuery(acct, low.Tags) {
		inTag[id] = true
	}
	for _, id := range ids {
		if !inTag[id] {
			return true
		}
	}
	return low.Projection.Kind == qlang.ProjHist && !inTag[low.HistObj]
}

// prepare returns the statement's entry through the LRU: valid only for
// the exact (placement epoch, metadata generation) it was built against.
// A miss plans the query and compiles it for the engine, and the entry
// serves every later request with the same key.
func (s *Server) prepare(r *request, acct *vclock.Account, st *statement) (*planEntry, error) {
	key := r.planKey()
	prep, hit := s.planCache.Get(key, st.Epoch, st.gen)
	if !hit {
		// Unless the entry was evicted since decodeStatement looked, the
		// statement's own is private to this request until the Put.
		prep = st.prep
		if prep.plan == nil {
			pl, err := plan.Build(s.cfg.Meta, prep.query, st.Force)
			if err != nil {
				return nil, err
			}
			if prep.exec, err = s.engine.Prepare(prep.query, pl.Normalized, &pl.Exec); err != nil {
				return nil, err
			}
			prep.plan = pl
		}
		s.planCache.Put(strings.Clone(key), st.Epoch, st.gen, prep)
	}
	if st.Force == plan.ForceAuto {
		if hit {
			acct.Charge(vclock.Meta, planHitCost)
		} else {
			acct.Charge(vclock.Meta, planBuildCost(prep.plan))
		}
	}
	return prep, nil
}

// handleStatement answers one MsgQuery.
func (s *Server) handleStatement(r *request) transport.Message {
	st, err := s.decodeStatement(r)
	if err != nil {
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
	wantTrace := st.Flags&FlagWantTrace != 0
	var wallStart int64
	if wantTrace || s.cfg.SlowQueryNs > 0 {
		span = telemetry.NewSpan(telemetry.SpanQuery, fmt.Sprintf("server.%d", s.cfg.ID))
		span.Trace = telemetry.TraceID(m.Trace)
		wallStart = s.clock().Now()
	}

	var res *exec.Result
	var hist *histogram.Histogram
	if st.gated {
		anchor, _ := s.cfg.Meta.Get(st.prep.ids[0])
		res = &exec.Result{Sel: selection.PackedCount(0, anchor.Dims)}
	} else {
		prep, err := s.prepare(r, acct, st)
		if err != nil {
			return s.errMsg(err)
		}
		var rep *sortstore.Replica
		for _, id := range prep.ids {
			if rp := s.cfg.Replicas[id]; rp != nil {
				rep = rp
				break
			}
		}
		assign, err := s.cfg.Assign(st.Epoch, prep.exec.Anchor(), rep)
		if err != nil {
			return s.errMsg(err)
		}
		eng := r.engine(s.engine, true)
		if res, err = eng.Execute(tok, prep.exec, assign, st.need, span); err != nil {
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
	if st.Flags&FlagWantSelection == 0 && !res.Sel.CountOnly {
		// Only the count travels; res keeps the chunks for the stash or
		// Release.
		resp.Sel = &selection.Packed{NHits: res.Sel.NHits, CountOnly: true, Dims: res.Sel.Dims}
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
		r.phases.Add(telemetry.PhaseEncode, 0, encEnd-encStart)
	}
	s.observePhases(ss, &r.phases)
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
