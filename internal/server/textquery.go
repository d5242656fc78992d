// MsgTextQuery handling: parse the declarative query text, resolve
// names against the metadata, plan it with the cost-based planner
// (through the prepared-plan LRU), and evaluate it with the plan
// installed on the request engine. The text path is a strict superset
// of MsgQuery: same engine, same accounting, plus tag gating and the
// count/ids/hist projections.
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
	"pdcquery/internal/sched"
	"pdcquery/internal/selection"
	"pdcquery/internal/sortstore"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// DefaultPlanCacheSize bounds the prepared-plan LRU per server.
const DefaultPlanCacheSize = 64

// Modeled metadata-service charges for planning. A cache miss pays the
// full cost-model walk (per condition); a hit pays one lookup. Both are
// deterministic functions of the query, so virtual time stays
// byte-identical across runs and worker counts.
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

func (s *Server) handleTextQuery(ss *session, tok *sched.Token, acct *vclock.Account, m transport.Message) transport.Message {
	flags, epoch, forceB, text, err := DecodeTextQuery(m.Payload)
	if err != nil {
		return s.errMsg(err)
	}
	if forceB > byte(plan.ForceSorted) {
		return s.errMsg(fmt.Errorf("protocol: bad plan forcing %d", forceB))
	}
	force := plan.Force(forceB)
	parsed, err := qlang.Parse(text)
	if err != nil {
		return s.errMsg(err)
	}
	low, err := parsed.Lower(func(name string) (object.ID, bool) {
		o, ok := s.cfg.Meta.GetByName(name)
		if !ok {
			return 0, false
		}
		return o.ID, true
	})
	if err != nil {
		return s.errMsg(err)
	}
	q := low.Query
	if err := q.Validate(s.cfg.Meta.Get); err != nil {
		return s.errMsg(err)
	}
	ids := q.Root.Objects()
	anchor, _ := s.cfg.Meta.Get(ids[0])

	// Tag conditions gate object visibility: every object the numeric
	// conditions touch must carry all the requested tags, else the query
	// addresses data outside the tagged set and the answer is empty.
	if len(low.Tags) > 0 {
		tagged := s.cfg.Meta.TagQuery(acct, low.Tags)
		inTag := make(map[object.ID]bool, len(tagged))
		for _, id := range tagged {
			inTag[id] = true
		}
		gated := false
		for _, id := range ids {
			if !inTag[id] {
				gated = true
				break
			}
		}
		if low.Projection.Kind == qlang.ProjHist && !inTag[low.HistObj] {
			gated = true
		}
		if gated {
			resp := &TextQueryResponse{Base: QueryResponse{
				Cost: acct.Cost(),
				Sel:  selection.NewCount(0, anchor.Dims),
			}}
			ss.reg.Add("query.count", 1)
			return transport.Message{Type: MsgTextResult, Payload: resp.Encode()}
		}
	}

	// Plan through the LRU: the canonical text plus the forcing is the
	// key, valid only for the exact (placement epoch, metadata
	// generation) it was built against.
	key := parsed.CacheKey() + "|" + force.String()
	gen := s.cfg.Meta.Gen()
	pl, hit := s.planCache.Get(key, epoch, gen)
	if hit {
		acct.Charge(vclock.Meta, planHitCost)
	} else {
		pl, err = plan.Build(s.cfg.Meta, q, force)
		if err != nil {
			return s.errMsg(err)
		}
		s.planCache.Put(key, epoch, gen, pl)
		acct.Charge(vclock.Meta, planBuildCost(pl))
	}

	var rep *sortstore.Replica
	for _, id := range ids {
		if r := s.cfg.Replicas[id]; r != nil {
			rep = r
			break
		}
	}
	var assign exec.Assignment
	if s.cfg.ClusterAssign != nil {
		assign, err = s.cfg.ClusterAssign(epoch, anchor, rep)
		if err != nil {
			return s.errMsg(err)
		}
	} else {
		assign = s.assignment(anchor, rep)
	}

	var span *telemetry.Span
	wantTrace := flags&FlagWantTrace != 0
	var wallStart int64
	if wantTrace || s.cfg.SlowQueryNs > 0 {
		span = telemetry.NewSpan(telemetry.SpanQuery, fmt.Sprintf("server.%d", s.cfg.ID))
		span.Trace = telemetry.TraceID(m.Trace)
		wallStart = s.clock().Now()
	}

	// What the statement can use decides what the engine materialises:
	// ids are returned and hist reads values at the coordinates; a count
	// needs neither. No text reply is stashed — the text API hands out no
	// request ID a get-data could name — so values are never collected.
	need := exec.NeedCount
	if flags&FlagWantSelection != 0 || low.Projection.Kind == qlang.ProjHist {
		need = exec.NeedCoords
	}
	var phases telemetry.PhaseTimes
	eng := s.reqEngine(acct, &phases)
	eng.Plan = &pl.Exec
	res, err := eng.EvaluateToken(tok, q, assign, need, span)
	if err != nil {
		if errors.Is(err, sched.ErrDeadline) {
			s.rec.Record(telemetry.EvDeadline, 0, int32(s.cfg.ID), acct.Cost().Total().Nanoseconds(), int64(m.ReqID), 0)
		}
		return s.errMsg(err)
	}
	if err := tok.Err(); err != nil {
		if errors.Is(err, sched.ErrDeadline) {
			s.rec.Record(telemetry.EvDeadline, 0, int32(s.cfg.ID), acct.Cost().Total().Nanoseconds(), int64(m.ReqID), 0)
		}
		return s.errMsg(err)
	}

	resp := &TextQueryResponse{}
	if low.Projection.Kind == qlang.ProjHist {
		vals, err := eng.ExtractValues(tok, low.HistObj, res.Sel.Coords)
		if err != nil {
			return s.errMsg(err)
		}
		ho, _ := s.cfg.Meta.Get(low.HistObj)
		fv := make([]float64, len(res.Sel.Coords))
		for i := range fv {
			fv[i] = dtype.At(ho.Type, vals, i)
		}
		resp.Hist = histogram.Build(fv, low.Projection.Bins)
	}

	cost := acct.Cost()
	res.Stats.StorageBytes = acct.Counter("read.bytes")
	ss.reg.Add("query.count", 1)
	ss.reg.Observe("query.cost_ns", float64(cost.Total()))
	s.rec.Record(telemetry.EvQueryDone, 0, int32(s.cfg.ID), cost.Total().Nanoseconds(), int64(m.ReqID), int64(res.Sel.NHits))

	resp.Base = QueryResponse{Cost: cost, Stats: res.Stats, Sel: res.Sel}
	if span != nil {
		span.Cost = cost
		if wall := s.clock().Now(); wall != 0 || wallStart != 0 {
			span.WallNanos = wall - wallStart
		}
		span.SetInt("hits", int64(res.Sel.NHits))
		if wantTrace {
			resp.Base.Trace = span
		}
	}
	if flags&FlagWantSelection == 0 {
		resp.Base.Sel = selection.NewCount(res.Sel.NHits, res.Sel.Dims)
	}
	encStart := s.clock().Now()
	payload := resp.Encode()
	if encEnd := s.clock().Now(); encEnd != 0 || encStart != 0 {
		phases.Add(telemetry.PhaseEncode, 0, encEnd-encStart)
	}
	s.observePhases(ss, &phases)
	s.maybeLogSlowQuery(ss, m, span, cost, wallStart, res)
	return transport.Message{Type: MsgTextResult, Payload: payload}
}

// PlanCacheStats exposes the prepared-plan LRU's hit/miss counters
// (read by the plancache benchmark figure and tests).
func (s *Server) PlanCacheStats() (hits, misses uint64) {
	return s.planCache.Stats()
}
