// Package exec is the query evaluation engine that runs inside each PDC
// server: it executes a prepared plan (QueryPlan) for a normalized
// query over the server's assigned regions. The engine chooses nothing
// itself — condition order, per-region access path, the sorted-replica
// path and the whole-query switches all arrive in the plan, built by
// internal/plan from the statement's forcing. The paper's four
// strategies (§III-D) are four shapes of plan:
//
//   - PDC-F: Full — preload every assigned region of every queried
//     object, prune nothing, scan the first condition (object-ID order),
//     refine with probes.
//   - PDC-H (the default): per-region histograms/extrema prune regions,
//     the plan's order (ascending estimated selectivity) drives scan +
//     probe of the survivors.
//   - PDC-HI: like PDC-H for pruning/ordering, but every region is
//     ChoiceProbe: conditions resolve from the per-region bitmap indexes,
//     reading only the index directory and the touched bins — no raw
//     data unless a boundary candidate check requires it (IndexOnly).
//   - PDC-SH: Sorted — when the first-ordered condition is on an object
//     with a sorted replica on this engine, the first condition's
//     matches come from binary searches of the sorted regions instead of
//     a scan; otherwise scan + probe (the paper's Fig. 4 behaviour when a
//     non-sort-key condition is evaluated first).
//
// The strategies differ only in how the first condition's matches are
// found, which Prepare settles once per statement; Execute runs one
// evaluator (region tasks, merge barrier, bitset packer) for all four.
// The engine also implements the AND short-circuit ("one condition has no
// hit → stop") and evaluates OR terms independently, merging them with
// duplicate removal.
package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/sched"
	"pdcquery/internal/selection"
	"pdcquery/internal/simio"
	"pdcquery/internal/sortstore"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/vclock"
	"pdcquery/internal/wah"
)

// Assignment names the regions this server evaluates: original region
// indices (shared by all same-shaped objects) and sorted-replica region
// indices for the sorted-replica path. Both are in ascending order and
// read-only: the engine walks Orig and binary-searches Sorted in place,
// and an assigner may hand the same slices to every statement.
type Assignment struct {
	Orig   []int
	Sorted []int
}

// Stats counts what the evaluation did; experiments assert on these.
type Stats struct {
	RegionsEvaluated int64 // regions actually scanned/probed/indexed
	RegionsPruned    int64 // regions eliminated by histogram/min-max
	SortedRegions    int64 // sorted-replica regions read
	ElementsScanned  int64
	Probes           int64
	IndexBinsRead    int64
	IndexBytesRead   int64
	CandChecks       int64
	// StorageBytes is the total bytes this evaluation read from storage
	// (filled in by the server from its account); the client uses the
	// fleet-wide sum to model shared-backend saturation.
	StorageBytes int64
}

// Add accumulates.
func (s *Stats) Add(o Stats) {
	s.RegionsEvaluated += o.RegionsEvaluated
	s.RegionsPruned += o.RegionsPruned
	s.SortedRegions += o.SortedRegions
	s.ElementsScanned += o.ElementsScanned
	s.Probes += o.Probes
	s.IndexBinsRead += o.IndexBinsRead
	s.IndexBytesRead += o.IndexBytesRead
	s.CandChecks += o.CandChecks
	s.StorageBytes += o.StorageBytes
}

// Result is one server's partial query result.
type Result struct {
	// Sel is the partial selection in its packed (wire) form: region
	// tasks write their chunks and nothing on the way to the reply turns
	// them back into coordinates.
	Sel   *selection.Packed
	Stats Stats
	// Values holds, per object, the matching elements' values encoded in
	// the object's element type, aligned with Sel's coordinates. It is populated
	// only when the evaluation had the data in hand (scan/probe and sorted
	// paths) and values were requested — the caching behaviour behind the
	// paper's get-data results.
	Values map[object.ID][]byte
}

// Compute cost model (charged to the Compute category). The paper's
// application scans with all 31 remaining cores of each node, so the
// effective per-element cost is well below a nanosecond; fractional
// nanoseconds are accumulated in float and truncated once per charge.
const (
	scanNsPerElem   = 0.15
	probeNsPerElem  = 0.3
	candNsPerElem   = 0.6
	decodeCostPerKB = 300 * time.Nanosecond
)

// computeCost converts an element count at a per-element nanosecond rate
// into a duration.
func computeCost(n int64, nsPerElem float64) time.Duration {
	return time.Duration(float64(n) * nsPerElem)
}

// Engine evaluates queries over one server's assigned regions.
type Engine struct {
	Store *simio.Store
	// Acct is charged every virtual cost the evaluation spends and is
	// required: the engine never tests it for nil, so a forgotten account
	// panics on the first charge instead of zeroing a figure.
	Acct *vclock.Account
	// Lookup resolves object metadata (distributed to the server before
	// evaluation, §III-C).
	Lookup func(object.ID) (*object.Object, bool)
	// Replica returns the object's sorted replica metadata (nil when
	// absent).
	Replica func(object.ID) *sortstore.Replica
	Cache   *Cache
	// Pool, when non-nil, fans region-level evaluation out to a bounded
	// worker pool. A nil pool runs the same task/merge code serially, so
	// results, traces, and virtual costs are byte-identical at any worker
	// count by construction.
	Pool *sched.Pool
	// Rec, when non-nil, receives flight-recorder events. The engine
	// records only at the serial barriers (prune pass, merge pass), never
	// inside pooled region tasks, so the event sequence for a fixed
	// workload is identical at any worker count.
	Rec *telemetry.Recorder
	// Phases, when non-nil, accumulates this request's per-phase latency
	// (virtual ns at the deterministic barriers, wall ns through Clock).
	Phases *telemetry.PhaseTimes
	// cacheEv, when non-nil, collects cache traffic instead of recording
	// it: region tasks point it at their task result (alongside nilling
	// Rec) and the merge barrier flushes the totals as aggregate events
	// in region order.
	cacheEv *CacheTraffic
	// Clock supplies wall stamps for phase accounting; nil or NoClock in
	// every deterministic context.
	Clock telemetry.Clock
	// SrvID tags recorded events with this server's rank.
	SrvID int32
}

// vnow reads the engine account's accumulated virtual time — the
// deterministic timestamp base for recorded events and phase deltas.
func (e *Engine) vnow() int64 {
	return e.Acct.Cost().Total().Nanoseconds()
}

// wnow reads the wall clock through the seam (0 when no clock is
// installed, so deterministic runs record zero wall phase time).
func (e *Engine) wnow() int64 {
	if e.Clock == nil {
		return 0
	}
	return e.Clock.Now()
}

// The cache counters, interned once.
var (
	cacheHitsCounter   = vclock.Intern("cache.hits")
	cacheMissesCounter = vclock.Intern("cache.misses")
)

// readRegion returns a region's raw bytes as an immutable shared view,
// going through the LRU cache. Cache hits are charged at memory-tier
// cost.
func (e *Engine) readRegion(o *object.Object, r int) (dtype.ROBytes, error) {
	return e.readExtent(o.Regions[r].ExtentKey)
}

// readExtent is the cached read used for regions and sorted-replica
// extents alike. Both the cache and the store return immutable views of
// the same underlying extent, so the whole read path is zero-copy.
func (e *Engine) readExtent(key string) (dtype.ROBytes, error) {
	if e.Cache != nil {
		if data, ok := e.Cache.Get(key); ok {
			m := e.Store.Model()
			e.Acct.ChargeCost(m.ReadCost(simio.Memory, int64(len(data))))
			e.Acct.CountID(cacheHitsCounter, 1)
			e.noteCache(telemetry.EvCacheHit, int64(len(data)), 1)
			return data, nil
		}
		e.Acct.CountID(cacheMissesCounter, 1)
	}
	data, err := e.Store.ReadAll(e.Acct, key)
	if err != nil {
		return nil, err
	}
	if e.Cache != nil {
		e.noteCache(telemetry.EvCacheMiss, int64(len(data)), 1)
	}
	if n, freed := e.Cache.Put(key, data); n > 0 {
		e.noteCache(telemetry.EvCacheEvict, freed, n)
	}
	return data, nil
}

// noteCache accounts one cache operation (ops operations touching the
// given byte count). Pooled region tasks accumulate into the task's
// CacheTraffic — their Rec is nil, and the serial merge barrier flushes
// the totals in region order — while serial contexts (get-data extract,
// the full-scan preload, sorted rest-probes) record the event directly.
// Both halves are nil-safe, so an unconfigured engine records nothing.
func (e *Engine) noteCache(kind telemetry.EventKind, bytes, ops int64) {
	if e.cacheEv != nil {
		switch kind {
		case telemetry.EvCacheHit:
			e.cacheEv.Hits += ops
			e.cacheEv.HitBytes += bytes
		case telemetry.EvCacheMiss:
			e.cacheEv.Misses += ops
			e.cacheEv.MissBytes += bytes
		case telemetry.EvCacheEvict:
			e.cacheEv.Evictions += ops
			e.cacheEv.EvictBytes += bytes
		}
		return
	}
	e.Rec.Record(kind, 0, e.SrvID, e.vnow(), bytes, ops)
}

// flushCacheTraffic records one task's accumulated cache traffic as up
// to three aggregate events. Called only at the serial merge barriers,
// after the task's account is absorbed, so ordering and the vclock
// stamps are identical at any worker count.
func (e *Engine) flushCacheTraffic(t *CacheTraffic) {
	if t.Hits > 0 {
		e.Rec.Record(telemetry.EvCacheHit, 0, e.SrvID, e.vnow(), t.HitBytes, t.Hits)
	}
	if t.Misses > 0 {
		e.Rec.Record(telemetry.EvCacheMiss, 0, e.SrvID, e.vnow(), t.MissBytes, t.Misses)
	}
	if t.Evictions > 0 {
		e.Rec.Record(telemetry.EvCacheEvict, 0, e.SrvID, e.vnow(), t.EvictBytes, t.Evictions)
	}
}

// Need is how much of the answer the request can use. The engine
// materialises no more than that: each level includes the one before.
type Need uint8

const (
	// NeedCount asks for the number of hits only. On the scan path
	// conjuncts of one condition are counted without a hit list and
	// longer ones keep hits only to probe them; the index path counts
	// the bits of its result. Result.Sel is count-only.
	NeedCount Need = iota
	// NeedCoords asks for the matching coordinates.
	NeedCoords
	// NeedValues additionally asks for the matching values of the
	// queried objects when the evaluation has them in hand — what a
	// later get-data request on the same result is served from.
	NeedValues
)

// spanCost captures the account cost before a traced section; done adds
// the delta to the span. Both are no-ops when the span is nil, so the
// untraced path never touches the account mutex for tracing.
func (e *Engine) spanCost(s *telemetry.Span) vclock.Cost {
	if s == nil {
		return vclock.Cost{}
	}
	return e.Acct.Cost()
}

func (e *Engine) spanCostDone(s *telemetry.Span, before vclock.Cost) {
	if s != nil {
		s.AddCost(e.Acct.Cost().Sub(before))
	}
}

// condIn/condOut accumulate per-condition actual selectivity on the
// conjunct span: "cond.<object>.in" counts elements the condition was
// evaluated against, "cond.<object>.out" counts survivors. The EXPLAIN
// ANALYZE renderer divides them into an actual selectivity per condition.
func condIn(cs *telemetry.Span, id object.ID, n int64) {
	if cs != nil {
		cs.AddInt(fmt.Sprintf("cond.%d.in", id), n)
	}
}

func condOut(cs *telemetry.Span, id object.ID, n int64) {
	if cs != nil {
		cs.AddInt(fmt.Sprintf("cond.%d.out", id), n)
	}
}

// Prepared is a statement made ready for the engine: its query, the
// query's normalized conjuncts with the plan that covers them, the
// objects it reads, each conjunct's conditions compiled in plan order,
// and the sorted-replica path of each conjunct that takes it. It
// depends only on the statement, the plan and the engine and metadata
// it was built from and is read-only once built, so evaluations share
// it: a server keeps one per prepared-plan cache entry.
type Prepared struct {
	query     *query.Query
	plan      *QueryPlan
	conjuncts []query.Conjunct
	objs      map[object.ID]*object.Object
	anchor    *object.Object
	preds     [][]pred      // per conjunct, in its plan's order
	sorted    []*sortedPath // per conjunct; nil where it scans
}

// sortedPath is a conjunct's sorted-replica path: the replica of its
// first condition's object, the later conditions a co-sorted companion
// resolves, compiled for the companion copy's element type, and the
// rest, probed at the original regions afterwards.
type sortedPath struct {
	rep   *sortstore.Replica
	comps []sortedCond
	rests []sortedCond
}

// sortedCond is one later condition of a sorted conjunct: its object,
// the element type its predicate reads and the predicate; for a
// companion, also its co-sorted extents' keys, one per sorted region.
type sortedCond struct {
	id   object.ID
	t    dtype.Type
	p    pred
	keys []string
}

// Prepare checks that pl covers conjuncts — q's normalized conjuncts, in
// query.Normalize order — and refuses it with ErrPlan otherwise; looks
// up q's objects, which must share one region decomposition; compiles
// every condition; and resolves the sorted-replica path of each
// conjunct whose plan asks for it and whose first object has a replica
// on this engine (the others scan).
func (e *Engine) Prepare(q *query.Query, conjuncts []query.Conjunct, pl *QueryPlan) (*Prepared, error) {
	if pl == nil || len(pl.Conjuncts) != len(conjuncts) {
		return nil, fmt.Errorf("%w: %d conjuncts", ErrPlan, len(conjuncts))
	}
	ids := q.Root.Objects()
	p := &Prepared{query: q, plan: pl, conjuncts: conjuncts, objs: make(map[object.ID]*object.Object, len(ids))}
	for _, id := range ids {
		o, ok := e.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("exec: object %d not found", id)
		}
		p.objs[id] = o
		if p.anchor == nil {
			p.anchor = o
		} else if len(o.Regions) != len(p.anchor.Regions) {
			return nil, fmt.Errorf("exec: objects %d and %d have different region decompositions", p.anchor.ID, o.ID)
		}
	}
	p.preds = make([][]pred, len(conjuncts))
	p.sorted = make([]*sortedPath, len(conjuncts))
	for i, c := range conjuncts {
		order, err := pl.Conjuncts[i].order(i, c)
		if err != nil {
			return nil, err
		}
		if p.preds[i], err = compilePreds(c, order, p.objs); err != nil {
			return nil, err
		}
		if !pl.Conjuncts[i].Sorted || e.Replica == nil {
			continue
		}
		if rep := e.Replica(order[0]); rep != nil {
			if p.sorted[i], err = prepareSorted(rep, c, order, p.preds[i], p.objs); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// prepareSorted splits a sorted conjunct's later conditions into those
// rep's companions resolve, compiled for the companion copies, and the
// rest, which keep their compiled predicates.
func prepareSorted(rep *sortstore.Replica, c query.Conjunct, order []object.ID, preds []pred,
	objs map[object.ID]*object.Object) (*sortedPath, error) {

	sp := &sortedPath{rep: rep}
	for k, id := range order[1:] {
		cd := sortedCond{id: id, t: objs[id].Type, p: preds[k+1]}
		i := slices.IndexFunc(rep.Companions, func(comp sortstore.Companion) bool { return comp.Obj == id })
		if i < 0 {
			sp.rests = append(sp.rests, cd)
			continue
		}
		cd.t, cd.keys = rep.Companions[i].Type, rep.Companions[i].ValKeys
		var err error
		if cd.p, err = compile(cd.t, c[id]); err != nil {
			return nil, err
		}
		sp.comps = append(sp.comps, cd)
	}
	return sp, nil
}

// Anchor is the first of the statement's objects: its shape is the
// answer's.
func (p *Prepared) Anchor() *object.Object { return p.anchor }

// EvaluateToken executes pl — the plan of q — over the assigned regions
// and returns the partial result: Prepare, then Execute. A plan that
// does not cover q's conjuncts is refused with ErrPlan.
func (e *Engine) EvaluateToken(tok *sched.Token, q *query.Query, pl *QueryPlan, assign Assignment, need Need, span *telemetry.Span) (*Result, error) {
	conjuncts, err := query.Normalize(q.Root)
	if err != nil {
		return nil, err
	}
	p, err := e.Prepare(q, conjuncts, pl)
	if err != nil {
		return nil, err
	}
	return e.Execute(tok, p, assign, need, span)
}

// Execute evaluates a prepared statement over the assigned regions and
// returns the partial result. Per-conjunct and per-region trace spans
// are recorded as children of span (which may be nil: all span
// operations are nil-safe and skipped). Each region child carries the
// pruning decision (histogram-pruned / bitmap-probed / cache-hit /
// full-scan / scan) and the virtual cost spent on that region. tok is
// checked between regions and before storage reads, so a session
// disconnect or a virtual-deadline overrun stops the evaluation instead
// of running it to completion. A nil token never cancels.
func (e *Engine) Execute(tok *sched.Token, p *Prepared, assign Assignment, need Need, span *telemetry.Span) (*Result, error) {
	pl, conjuncts, objs, anchor := p.plan, p.conjuncts, p.objs, p.anchor
	orig := assign.Orig
	if span != nil {
		span.SetStr("strategy", pl.Label)
		span.SetInt("conjuncts", int64(len(conjuncts)))
		span.SetInt("regions.assigned", int64(len(orig)))
	}

	// Full scan pre-loads every assigned region of every queried object —
	// the paper's "load all the data of the queried object into memory".
	// PDC's read path merges these bulk sequential reads into large
	// streaming requests (SIII-E), so the preload is charged one
	// operation latency per object plus the full transfer, instead of
	// one latency per region.
	if pl.Full {
		ps := span.Child(telemetry.SpanPhase, "preload")
		before := e.spanCost(ps)
		for _, o := range objs {
			if err := tok.Err(); err != nil {
				return nil, err
			}
			var bytes int64
			var tier simio.Tier
			loaded := false
			for _, r := range orig {
				key := o.Regions[r].ExtentKey
				if e.Cache.Touch(key) {
					continue
				}
				data, err := e.Store.ReadAll(nil, key)
				if err != nil {
					return nil, err
				}
				if n, freed := e.Cache.Put(key, data); n > 0 {
					e.noteCache(telemetry.EvCacheEvict, freed, n)
				}
				bytes += int64(len(data))
				tier = o.Regions[r].Tier
				loaded = true
			}
			if loaded {
				m := e.Store.Model()
				e.Acct.ChargeCost(m.ReadCost(tier, bytes))
				simio.CountRead(e.Acct, tier, 1, bytes)
			}
		}
		e.spanCostDone(ps, before)
	}

	res := &Result{}
	// Values are collected only when the plan reads raw data anyway
	// (IndexOnly) and the result is a single conjunct (OR merging would
	// misalign values); OR merging also removes duplicates by
	// coordinate, so a count over several conjuncts still needs them.
	asked := need
	switch {
	case len(conjuncts) > 1:
		need = NeedCoords
	case pl.IndexOnly:
		need = min(need, NeedCoords)
	}
	collect := need == NeedValues
	var partBuf [4]*selection.Packed
	parts := partBuf[:0]
	for i := range conjuncts {
		if err := tok.Err(); err != nil {
			return nil, err
		}
		var cs *telemetry.Span
		if span != nil {
			cs = span.Child(telemetry.SpanConjunct, fmt.Sprintf("conjunct.%d", i))
		}
		before := e.spanCost(cs)
		var sel *selection.Packed
		var vals map[object.ID][]byte
		var err error
		if sp := p.sorted[i]; sp != nil {
			sel, vals, err = e.evalConjunctSorted(tok, p, i, sp, assign.Sorted, need, &res.Stats, cs)
		} else {
			sel, vals, err = e.evalConjunctScanProbe(tok, p, i, orig, need, &res.Stats, cs)
		}
		if err != nil {
			return nil, err
		}
		e.spanCostDone(cs, before)
		cs.SetInt("hits", int64(sel.NHits))
		parts = append(parts, sel)
		if collect {
			res.Values = vals
		}
	}
	mergeV, mergeW := e.vnow(), e.wnow()
	var err error
	if res.Sel, err = orConjuncts(parts, anchor, asked); err != nil {
		return nil, err
	}
	e.Phases.Add(telemetry.PhaseMerge, e.vnow()-mergeV, e.wnow()-mergeW)
	return res, nil
}

// orConjuncts combines the conjuncts' selections. One conjunct is the
// answer as it stands; several have to become coordinate lists to be
// merged with duplicate removal, and the union is packed once, split at
// the anchor's region boundaries (or only counted, when a count is all
// that was asked for).
func orConjuncts(parts []*selection.Packed, anchor *object.Object, asked Need) (*selection.Packed, error) {
	if len(parts) == 1 {
		return parts[0], nil
	}
	var union []uint64
	for i, p := range parts {
		coords, err := p.Coords(nil)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			union = coords
		} else {
			union = selection.MergeCoords(nil, union, coords)
		}
	}
	if asked == NeedCount {
		return selection.PackedCount(uint64(len(union)), anchor.Dims), nil
	}
	return selection.Pack(union, anchor.Dims, anchor), nil
}

// Prunable reports whether a region cannot contain any value in iv,
// using the region histogram when present, else stored extrema. The
// planner counts pruned regions with the same predicate the engine
// prunes by.
func Prunable(rm *object.RegionMeta, iv query.Interval) bool {
	if rm.Hist != nil {
		return !rm.Hist.Overlaps(iv.Lo, iv.Hi, iv.LoIncl, iv.HiIncl)
	}
	if rm.Max < iv.Lo || (rm.Max == iv.Lo && !iv.LoIncl) {
		return true
	}
	if rm.Min > iv.Hi || (rm.Min == iv.Hi && !iv.HiIncl) {
		return true
	}
	return false
}

// constraintRuns returns the local element runs of region r that fall
// inside the query constraint cons, or ok=false when the constraint
// excludes the region entirely. An unconstrained statement takes no runs:
// its region tasks cover their whole region.
func constraintRuns(o *object.Object, r int, cons *region.Region) ([]localRun, bool) {
	rr := o.Regions[r].Region
	sub, ok := region.Intersect(rr, *cons)
	if !ok {
		return nil, false
	}
	start := o.LinearStart(r)
	abs := region.LinearRuns(o.Dims, sub)
	runs := make([]localRun, len(abs))
	for i, a := range abs {
		runs[i] = localRun{Start: a.Start - start, Len: a.Len}
	}
	return runs, true
}

func runsElems(runs []localRun) int64 {
	var n int64
	for _, r := range runs {
		n += int64(r.Len)
	}
	return n
}

// regionTaskResult is one region-evaluation task: the region (a sorted
// region on the sorted-replica path) and the constraint runs the prune
// pass handed it, and everything the task produced on its shadow engine.
// The merge barrier folds results back in region order, so the query's
// output never depends on task interleaving.
type regionTaskResult struct {
	r       int
	runs    []localRun      // the constraint's runs; nil when the statement has no constraint
	span    *telemetry.Span // detached region span (nil when untraced)
	condLog *telemetry.Span // private condition-selectivity log
	acct    vclock.Account  // shadow account the task charges
	stats   Stats
	cacheEv CacheTraffic // cache traffic, flushed at the merge barrier
	nhits   int64
	chunk   *[]byte                 // the region's packed hits, in a pooled buffer; nil under NeedCount
	coords  []uint64                // a sorted region's matches, in the replica's value order
	vals    map[object.ID][]float64 // aligned with the hits (scan) or coords (sorted)
}

// shadow makes te, a copy of the engine, the engine region task res
// runs on. Tasks run concurrently: recording or phase accounting from
// there would race and make event order depend on scheduling, so both
// stay with the serial barriers. The task nils te's Rec and Phases
// itself, where barrierdet sees them dominate its calls; shadow has the
// task charge its own account, collect its cache traffic in res for the
// merge barrier to flush, and never fan out again. When the conjunct is
// traced (cs non-nil) the task gets a detached span of the given kind,
// named after the region, and a private condition log.
func (res *regionTaskResult) shadow(te *Engine, cs *telemetry.Span, kind telemetry.SpanKind, name string) {
	te.Pool = nil
	te.cacheEv = &res.cacheEv
	te.Acct = &res.acct
	if cs != nil {
		res.span = telemetry.NewSpan(kind, fmt.Sprintf("%s.%d", name, res.r))
		res.condLog = telemetry.NewSpan(telemetry.SpanPhase, "cond")
	}
}

// absorb folds a finished task into the conjunct at the merge barrier:
// it adopts the task's span, replays its condition log, absorbs its
// account and adds its stats, then flushes its cache traffic and records
// its EvRegionExec. Called in region order, so the event sequence is
// deterministic at any worker count; each stamp is the account total
// after the task's absorb.
func (e *Engine) absorb(res *regionTaskResult, cs *telemetry.Span, stats *Stats) {
	cs.Adopt(res.span)
	replayCondAttrs(cs, res.condLog)
	e.Acct.Absorb(&res.acct)
	stats.Add(res.stats)
	e.flushCacheTraffic(&res.cacheEv)
	e.Rec.Record(telemetry.EvRegionExec, 0, e.SrvID, e.vnow(), int64(res.r), res.nhits)
}

// pruneCond is one condition of a conjunct as the prune pass reads it:
// its interval and its object's region metadata, hoisted out of the
// conjunct map in plan order.
type pruneCond struct {
	id      object.ID
	iv      query.Interval
	regions []object.RegionMeta
}

// prunedRegion is a histogram-pruned region's pre-built span, kept only
// when the statement is traced.
type prunedRegion struct {
	r    int
	span *telemetry.Span
}

// survivor is a region the prune pass kept, with its constraint runs.
type survivor struct {
	r    int
	runs []localRun
}

// Chunk bytes are written once per statement and read once, by the next
// stage, so their buffers are recycled: a member answering ids
// statements otherwise walks through fresh memory at the rate it
// replies. chunkBufs holds the buffers region tasks pack into (task to
// merge barrier); streamBufs the concatenated streams (barrier to
// Result.Release).
var (
	chunkBufs  = sync.Pool{New: func() any { return new([]byte) }}
	streamBufs = sync.Pool{New: func() any { return new([]byte) }}
)

// Release gives the selection's chunk stream back for a later
// evaluation to reuse; the selection is empty afterwards. It is for the
// caller that has encoded its reply and keeps nothing. A result that is
// kept (the stash) is simply never released.
func (r *Result) Release() {
	if cap(r.Sel.Chunks) == 0 {
		return
	}
	stream := r.Sel.Chunks[:0]
	r.Sel.Chunks = nil
	streamBufs.Put(&stream)
}

// compilePreds compiles the conjunct's conditions once, in evaluation
// order, each for its object's element type.
func compilePreds(c query.Conjunct, order []object.ID, objs map[object.ID]*object.Object) ([]pred, error) {
	preds := make([]pred, len(order))
	for k, id := range order {
		p, err := compile(objs[id].Type, c[id])
		if err != nil {
			return nil, err
		}
		preds[k] = p
	}
	return preds, nil
}

// replayCondAttrs folds a task's private condition-selectivity log into
// the conjunct span, preserving attribute insertion order — the merge
// half of the per-task condIn/condOut recording.
func replayCondAttrs(cs, log *telemetry.Span) {
	if cs == nil || log == nil {
		return
	}
	for _, a := range log.Attrs {
		cs.AddInt(a.Key, a.Int)
	}
}

// evalConjunctScanProbe is the scan+probe path used by PDC-F (full),
// PDC-H, and PDC-HI (ChoiceProbe regions replace the scan with index
// lookups). It runs in
// three phases so regions can be evaluated in parallel without changing
// a single output byte:
//
//  1. a serial pruning pass in region order — histogram/min-max pruning
//     reads only metadata; a surviving region costs one slot of the
//     pass's stack list, a pruned one nothing unless the statement is
//     traced, when its span is built for the merge to adopt in place;
//  2. a fan-out of the surviving regions over the worker pool, each task
//     on a shadow engine (private account, detached spans) touching only
//     its own region's extents;
//  3. a serial merge in region order that adopts spans, replays condition
//     counters, absorbs shadow accounts, and concatenates the tasks'
//     packed chunks into a stream sized once from their total.
func (e *Engine) evalConjunctScanProbe(tok *sched.Token, p *Prepared, ci int, orig []int,
	need Need, stats *Stats, cs *telemetry.Span) (*selection.Packed, map[object.ID][]byte, error) {

	cp := &p.plan.Conjuncts[ci]
	full, q, c, order, preds, objs, anchor := p.plan.Full, p.query, p.conjuncts[ci], cp.Order, p.preds[ci], p.objs, p.anchor
	collect := need == NeedValues

	// The pass reads each condition's interval and region metadata in
	// plan order, hoisted out of the conjunct map once, so a region more
	// than one condition could prune is attributed to the first of them.
	// Full scan prunes nothing.
	var condBuf [4]pruneCond
	conds := condBuf[:0]
	if !full {
		for _, id := range order {
			conds = append(conds, pruneCond{id: id, iv: c[id], regions: objs[id].Regions})
		}
	}
	var survBuf [64]survivor
	surv := survBuf[:0]
	var pruned []prunedRegion // traced statements only
	pruneV, pruneW := e.vnow(), e.wnow()
regions:
	for _, r := range orig {
		var runs []localRun
		if q.Constraint != nil {
			var ok bool
			if runs, ok = constraintRuns(anchor, r, q.Constraint); !ok {
				continue // outside the spatial constraint
			}
		}
		for k := range conds {
			pc := &conds[k]
			if !Prunable(&pc.regions[r], pc.iv) {
				continue
			}
			stats.RegionsPruned++
			if cs != nil {
				ps := telemetry.NewSpan(telemetry.SpanRegion, fmt.Sprintf("region.%d", r))
				ps.SetStr("decision", telemetry.DecisionHistogramPruned)
				ps.SetInt("by", int64(pc.id))
				pruned = append(pruned, prunedRegion{r: r, span: ps})
			}
			continue regions
		}
		surv = append(surv, survivor{r: r, runs: runs})
	}
	e.Phases.Add(telemetry.PhasePrune, e.vnow()-pruneV, e.wnow()-pruneW)

	results := make([]regionTaskResult, len(surv))
	for i, s := range surv {
		results[i].r, results[i].runs = s.r, s.runs
	}
	runTask := func(i int) error {
		res := &results[i]
		r := res.r
		te := *e
		te.Rec, te.Phases = nil, nil
		res.shadow(&te, cs, telemetry.SpanRegion, "region")
		rs := res.span
		res.stats.RegionsEvaluated++
		// An unconstrained task covers its whole region: one run, built
		// here instead of by the prune pass.
		runs := res.runs
		if runs == nil {
			whole := [1]localRun{{Start: 0, Len: anchor.RegionElems(r)}}
			runs = whole[:]
		}

		useIndex := cp.Regions[r] == ChoiceProbe

		// Classify how this region will be resolved before reading it:
		// once readRegion runs, the cache state that made it a hit is gone.
		if rs != nil {
			switch {
			case useIndex:
				rs.SetStr("decision", telemetry.DecisionBitmapProbed)
			case full:
				rs.SetStr("decision", telemetry.DecisionFullScan)
			case e.Cache.Contains(objs[order[0]].Regions[r].ExtentKey):
				rs.SetStr("decision", telemetry.DecisionCacheHit)
			default:
				rs.SetStr("decision", telemetry.DecisionScan)
			}
		}

		// The task evaluates in pooled scratch and keeps only the packed
		// chunk of its hits, written from the region bitset either access
		// path leaves its answer in.
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		var set []uint64
		var err error
		if useIndex {
			set, res.nhits, err = te.evalRegionIndex(tok, c, order, preds, objs, r, runs, sc, &res.stats, res.condLog)
		} else {
			set, res.nhits, err = te.evalRegionScan(tok, order, preds, objs, r, runs, sc, &res.stats, res.condLog)
		}
		if err != nil {
			return err
		}
		rs.AddCost(res.acct.Cost())
		rs.SetInt("hits", res.nhits)
		if need >= NeedCoords && res.nhits > 0 {
			base := anchor.LinearStart(r)
			res.chunk = chunkBufs.Get().(*[]byte)
			*res.chunk = selection.AppendChunkBits((*res.chunk)[:0], base, anchor.RegionElems(r), set, uint64(res.nhits))
			if collect {
				sc.hits = appendSetBits(sc.hits, set, base, res.nhits)
				res.vals = make(map[object.ID][]float64, len(order))
				if err := te.collectRegionValues(tok, order, objs, r, base, sc.hits, res.vals); err != nil {
					return err
				}
			}
		}
		return nil
	}
	execV, execW := e.vnow(), e.wnow()
	if err := e.Pool.Map(tok, len(results), runTask); err != nil {
		return nil, nil, err
	}

	var nhits int64
	var chunkBytes int
	for i := range results {
		nhits += results[i].nhits
		if results[i].chunk != nil {
			chunkBytes += len(*results[i].chunk)
		}
	}
	var stream []byte
	if chunkBytes > 0 {
		stream = slices.Grow((*streamBufs.Get().(*[]byte))[:0], chunkBytes)[:chunkBytes]
	}
	filled := 0
	var vals map[object.ID][]float64
	if collect {
		vals = make(map[object.ID][]float64, len(order))
	}
	// Pruned spans (traced only) are adopted between the task spans, so
	// the conjunct's children stay in region order.
	k := 0
	for i := range results {
		res := &results[i]
		for ; k < len(pruned) && pruned[k].r < res.r; k++ {
			cs.Adopt(pruned[k].span)
		}
		e.absorb(res, cs, stats)
		if res.nhits == 0 {
			continue
		}
		if collect {
			for _, id := range order {
				vals[id] = append(vals[id], res.vals[id]...)
			}
		}
		if res.chunk != nil {
			filled += copy(stream[filled:], *res.chunk)
			chunkBufs.Put(res.chunk)
		}
	}
	for ; k < len(pruned); k++ {
		cs.Adopt(pruned[k].span)
	}
	e.Phases.Add(telemetry.PhaseRegionExec, e.vnow()-execV, e.wnow()-execW)
	if need == NeedCount {
		return selection.PackedCount(uint64(nhits), anchor.Dims), nil, nil
	}
	var out map[object.ID][]byte
	if collect {
		out = encodeValues(objs, vals)
	}
	return &selection.Packed{NHits: uint64(nhits), Dims: anchor.Dims, Chunks: stream}, out, nil
}

// evalRegionScan marks the first condition into the region bitset
// (sc.acc) and probes the rest (§III-C: only already selected locations
// are evaluated for subsequent conditions). The spatial constraint is a
// range mask on the mark. A single condition's bitset is the answer; for
// a longer conjunct the survivors are extracted once as local indices,
// probed as a list, and written back. It returns the bitset (held in sc,
// valid until the scratch is reused) and its popcount, as
// evalRegionIndex does.
func (e *Engine) evalRegionScan(tok *sched.Token, order []object.ID, preds []pred, objs map[object.ID]*object.Object,
	r int, runs []localRun, sc *scratch, stats *Stats, cs *telemetry.Span) ([]uint64, int64, error) {

	first := objs[order[0]]
	data, err := e.readRegion(first, r)
	if err != nil {
		return nil, 0, err
	}
	n := first.Regions[r].Region.NumElems()
	sc.acc = sized(sc.acc, wah.DenseWords(n))
	acc := sc.acc
	nhits := preds[0].mark(data, n, acc)
	if !coversRegion(runs, n) {
		keepRuns(acc, runs, n)
		nhits = popcount(acc)
	}
	scanned := runsElems(runs)
	stats.ElementsScanned += scanned
	condIn(cs, order[0], scanned)
	condOut(cs, order[0], nhits)
	e.Acct.Charge(vclock.Compute, computeCost(scanned, scanNsPerElem))
	if len(order) == 1 || nhits == 0 {
		return acc, nhits, nil
	}
	sc.hits = appendSetBits(sc.hits, acc, 0, nhits)
	hits := sc.hits
	for k, id := range order[1:] {
		if err := tok.Err(); err != nil {
			return nil, 0, err
		}
		if len(hits) == 0 {
			break // AND short-circuit
		}
		o := objs[id]
		data, err := e.readRegion(o, r)
		if err != nil {
			return nil, 0, err
		}
		stats.Probes += int64(len(hits))
		condIn(cs, id, int64(len(hits)))
		e.Acct.Charge(vclock.Compute, computeCost(int64(len(hits)), probeNsPerElem))
		hits = preds[k+1].probe(data, 0, hits)
		condOut(cs, id, int64(len(hits)))
	}
	clear(acc)
	setBits(acc, hits)
	return acc, int64(len(hits)), nil
}

// evalRegionIndex resolves every condition from the per-region bitmap
// indexes into a dense bitset over the region's elements (sc.acc) and
// ANDs the conditions word-wise; conditions on regions without an index
// fall back to scan semantics. The spatial constraint is a range mask
// on the result. It returns the bitset (held in sc, valid until the
// scratch is reused) and its popcount, and materialises no coordinate:
// a count needs none, and the caller packs a chunk from the bits.
func (e *Engine) evalRegionIndex(tok *sched.Token, c query.Conjunct, order []object.ID, preds []pred, objs map[object.ID]*object.Object,
	r int, runs []localRun, sc *scratch, stats *Stats, cs *telemetry.Span) ([]uint64, int64, error) {

	// Every object of a conjunct shares the region decomposition; a bin
	// encoded for another element count is refused by the kernel.
	n := objs[order[0]].Regions[r].Region.NumElems()
	words := wah.DenseWords(n)
	sc.acc = zeroed(sc.acc, words)
	acc := sc.acc
	var nhits int64
	for k, id := range order {
		if err := tok.Err(); err != nil {
			return nil, 0, err
		}
		o := objs[id]
		rm := &o.Regions[r]
		// The first condition lands in acc itself; later ones in cur,
		// ANDed into acc below.
		dst := acc
		if k > 0 {
			sc.cur = zeroed(sc.cur, words)
			dst = sc.cur
		}
		if rm.IndexKey == "" {
			// No index for this region: degrade to a scan of this
			// condition (kept correct, costed as a raw read).
			data, err := e.readRegion(o, r)
			if err != nil {
				return nil, 0, err
			}
			preds[k].mark(data, n, dst)
			stats.ElementsScanned += int64(n)
			e.Acct.Charge(vclock.Compute, computeCost(int64(n), scanNsPerElem))
		} else if err := e.evalIndexCondition(o, r, n, c[id], preds[k], sc, dst, stats); err != nil {
			return nil, 0, err
		}
		nhits = popcount(dst)
		condIn(cs, id, int64(n))
		condOut(cs, id, nhits)
		if k > 0 {
			nhits = andInto(acc, dst)
		}
		if nhits == 0 {
			return nil, 0, nil // AND short-circuit
		}
	}
	if !coversRegion(runs, n) {
		keepRuns(acc, runs, n)
		nhits = popcount(acc)
	}
	return acc, nhits, nil
}

// evalIndexCondition reads the index directory and only the touched
// bins, and ORs into dst — a zeroed dense bitset over the region's nbits
// elements — every element the condition surely matches plus the
// boundary candidates that pass a check against raw data. Of the sure
// bins and the rest it reads the side with fewer blob bytes
// (bitindex.Directory.Select); from the rest, the sure elements are the
// complement of the rest and candidate bins.
func (e *Engine) evalIndexCondition(o *object.Object, r int, nbits uint64, iv query.Interval, p pred, sc *scratch, dst []uint64, stats *Stats) error {
	rm := &o.Regions[r]
	// The directory usually lives in the region metadata (cached on all
	// servers after metadata distribution); otherwise read its prefix
	// from the index extent.
	dir := rm.IndexDir
	if dir == nil {
		dirLen := bitindex.DirectorySize(rm.IndexBins)
		dirBytes, err := e.Store.Read(e.Acct, rm.IndexKey, 0, dirLen)
		if err != nil {
			return err
		}
		dir, err = bitindex.DecodeDirectory(dirBytes)
		if err != nil {
			return err
		}
	}
	var invert bool
	sc.bins, sc.cands, invert = dir.Select(sc.bins[:0], sc.cands[:0], iv.Lo, iv.Hi, iv.LoIncl, iv.HiIncl)
	bins, cands := sc.bins, sc.cands
	if invert && dir.N != nbits {
		// The complement is taken over nbits: a blob would refuse this
		// index, and an empty side reads none.
		return fmt.Errorf("exec: index %s covers %d elements, region holds %d", rm.IndexKey, dir.N, nbits)
	}
	if len(bins) == 0 && len(cands) == 0 {
		if invert { // every bin is sure
			invertBits(dst, nbits)
		}
		return nil
	}
	// Read the touched bins' blobs in one aggregated request: the
	// selected side, then the candidates.
	sc.ranges = sc.ranges[:0]
	var blobBytes int64
	for _, side := range [2][]int{bins, cands} {
		for _, b := range side {
			db := dir.Bins[b]
			sc.ranges = append(sc.ranges, simio.Range{Off: db.BlobOff, Len: db.BlobLen})
			blobBytes += db.BlobLen
		}
	}
	stats.IndexBinsRead += int64(len(sc.ranges))
	stats.IndexBytesRead += blobBytes
	var err error
	sc.blobs, err = e.Store.ReadRanges(sc.blobs, e.Acct, rm.IndexKey, sc.ranges)
	if err != nil {
		return err
	}
	// The pooled scratch must not pin extents beyond this call.
	defer clear(sc.blobs)
	e.Acct.Charge(vclock.Compute, time.Duration(blobBytes/1024+1)*decodeCostPerKB)
	ored := sc.blobs[:len(bins)]
	if invert {
		ored = sc.blobs
	}
	for _, blob := range ored {
		if err := wah.OrEncodedInto(dst, nbits, blob); err != nil {
			return fmt.Errorf("exec: index %s: %w", rm.IndexKey, err)
		}
	}
	if invert {
		invertBits(dst, nbits)
	}
	if len(cands) > 0 {
		// Candidate bins need the raw data (rare: only when a query
		// boundary value actually occurs in the data).
		data, err := e.readRegion(o, r)
		if err != nil {
			return err
		}
		if uint64(o.Type.Count(len(data))) < nbits {
			return fmt.Errorf("exec: region %s holds %d elements, index covers %d", rm.ExtentKey, o.Type.Count(len(data)), nbits)
		}
		sc.cand = zeroed(sc.cand, len(dst))
		for _, blob := range sc.blobs[len(bins):] {
			if err := wah.OrEncodedInto(sc.cand, nbits, blob); err != nil {
				return fmt.Errorf("exec: index %s: %w", rm.IndexKey, err)
			}
		}
		// Bins partition the region, so the candidates' union counts
		// each checked element once.
		checks := popcount(sc.cand)
		sc.hits = appendSetBits(sc.hits, sc.cand, 0, checks)
		setBits(dst, p.probe(data, 0, sc.hits))
		stats.CandChecks += checks
		e.Acct.Charge(vclock.Compute, computeCost(checks, candNsPerElem))
	}
	return nil
}

// evalConjunctSorted is the PDC-SH path: the first condition's matches
// come from the sorted replica instead of a scan. Its prune pass is two
// binary searches, the sorted regions the interval overlaps cut to this
// server's share; those regions run as region tasks (evalSortedRegion)
// and fold back at the merge barrier, as on the scan path. The rest
// conditions are then probed at the matches one original region at a
// time, in coordinate order (a serial walk: every sorted region's
// matches can land in any original region), and each region's
// survivors are packed from its bitset.
func (e *Engine) evalConjunctSorted(tok *sched.Token, p *Prepared, ci int, sp *sortedPath, share []int,
	need Need, stats *Stats, cs *telemetry.Span) (*selection.Packed, map[object.ID][]byte, error) {

	collect := need == NeedValues
	objs, anchor := p.objs, p.anchor
	keyID := p.plan.Conjuncts[ci].Order[0]
	iv := p.conjuncts[ci][keyID]

	pruneV, pruneW := e.vnow(), e.wnow()
	first, last := sp.rep.RegionsOverlapping(iv)
	lo, _ := slices.BinarySearch(share, first)
	hi, _ := slices.BinarySearch(share, last)
	candidates := share[lo:hi]
	e.Phases.Add(telemetry.PhasePrune, e.vnow()-pruneV, e.wnow()-pruneW)

	results := make([]regionTaskResult, len(candidates))
	for i, s := range candidates {
		results[i].r = s
	}
	runTask := func(i int) error {
		res := &results[i]
		te := *e
		te.Rec, te.Phases = nil, nil
		res.shadow(&te, cs, telemetry.SpanSortedRegion, "sorted")
		if res.span != nil {
			if e.Cache.Contains(sp.rep.Regions[res.r].ValKey) {
				res.span.SetStr("decision", telemetry.DecisionCacheHit)
			} else {
				res.span.SetStr("decision", telemetry.DecisionScan)
			}
		}
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		matched, err := te.evalSortedRegion(tok, sp, keyID, iv, anchor, p.query.Constraint, collect, sc, res)
		if err != nil {
			return err
		}
		res.span.AddCost(res.acct.Cost())
		res.span.SetInt("matched", int64(matched))
		return nil
	}
	execV, execW := e.vnow(), e.wnow()
	if err := e.Pool.Map(tok, len(results), runTask); err != nil {
		return nil, nil, err
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.hits = sc.hits[:0]
	for i := range results {
		e.absorb(&results[i], cs, stats)
		sc.hits = append(sc.hits, results[i].coords...)
	}
	all := sc.hits
	slices.Sort(all)

	var vals map[object.ID][]float64
	var final []uint64 // the survivors' coordinates, kept for their values
	if collect {
		vals = make(map[object.ID][]float64, len(p.plan.Conjuncts[ci].Order))
	}
	var nhits uint64
	var chunks []byte
	// Probe the remaining conditions region by region against the
	// original (unsorted) objects. Only the already-selected locations
	// are evaluated (§III-C); when they are a small fraction of the
	// region, the probe uses aggregated ranged reads of just those
	// elements (§III-E) instead of pulling the whole region.
	for i := 0; i < len(all); {
		if err := tok.Err(); err != nil {
			return nil, nil, err
		}
		r := anchor.RegionOfLinear(all[i])
		start := anchor.LinearStart(r)
		regionElems := anchor.RegionElems(r)
		// The region's matches become its local indices, in place.
		j := i
		for ; j < len(all) && all[j] < start+regionElems; j++ {
			all[j] -= start
		}
		surviving := all[i:j]
		var rs *telemetry.Span
		if len(sp.rests) > 0 {
			rs = cs.Child(telemetry.SpanRegion, fmt.Sprintf("region.%d", r))
			if rs != nil {
				if e.Cache.Contains(objs[sp.rests[0].id].Regions[r].ExtentKey) {
					rs.SetStr("decision", telemetry.DecisionCacheHit)
				} else {
					rs.SetStr("decision", telemetry.DecisionScan)
				}
			}
		}
		rsBefore := e.spanCost(rs)
		for _, cd := range sp.rests {
			if len(surviving) == 0 {
				break
			}
			stats.Probes += int64(len(surviving))
			condIn(cs, cd.id, int64(len(surviving)))
			e.Acct.Charge(vclock.Compute, computeCost(int64(len(surviving)), probeNsPerElem))
			var err error
			if surviving, err = e.probeFilter(objs[cd.id], r, surviving, regionElems, cd.p); err != nil {
				return nil, nil, err
			}
			condOut(cs, cd.id, int64(len(surviving)))
		}
		if len(surviving) > 0 {
			stats.RegionsEvaluated++
			if collect {
				for _, lidx := range surviving {
					final = append(final, start+lidx)
				}
				// The probe objects' values are read at the final survivors;
				// the key's and the companions' came with the matches.
				for _, cd := range sp.rests {
					probed, err := e.probeValues(objs[cd.id], r, surviving, regionElems)
					if err != nil {
						return nil, nil, err
					}
					vals[cd.id] = append(vals[cd.id], probed...)
				}
			}
			nhits += uint64(len(surviving))
			if need >= NeedCoords {
				sc.acc = zeroed(sc.acc, wah.DenseWords(regionElems))
				setBits(sc.acc, surviving)
				chunks = selection.AppendChunkBits(chunks, start, regionElems, sc.acc, uint64(len(surviving)))
			}
		}
		e.spanCostDone(rs, rsBefore)
		rs.SetInt("hits", int64(len(surviving)))
		i = j
	}
	e.Phases.Add(telemetry.PhaseRegionExec, e.vnow()-execV, e.wnow()-execW)
	if need == NeedCount {
		return selection.PackedCount(nhits, anchor.Dims), nil, nil
	}
	var out map[object.ID][]byte
	if collect {
		// The key's and the companions' values came with the matches: each
		// goes to its match's place among the survivors.
		for i := 0; i < len(results) && len(final) > 0; i++ {
			for id, held := range results[i].vals {
				if vals[id] == nil {
					vals[id] = make([]float64, len(final))
				}
				for k, c := range results[i].coords {
					if at, ok := slices.BinarySearch(final, c); ok {
						vals[id][at] = held[k]
					}
				}
			}
		}
		out = encodeValues(objs, vals)
	}
	return &selection.Packed{NHits: nhits, Dims: anchor.Dims, Chunks: chunks}, out, nil
}

// evalSortedRegion resolves sorted region res.r of a PDC-SH conjunct into
// res.coords: two binary searches of the key's sorted values, then the
// companion conditions over the co-sorted extents, then the permutation
// to original coordinates, keeping those inside the spatial constraint.
// With collect, res.vals holds the key's and the companions' values of
// each coordinate. It returns how many positions matched before the
// constraint.
func (e *Engine) evalSortedRegion(tok *sched.Token, sp *sortedPath, keyID object.ID, iv query.Interval, anchor *object.Object,
	cons *region.Region, collect bool, sc *scratch, res *regionTaskResult) (int, error) {

	rep, s := sp.rep, res.r
	valBytes, err := e.readExtent(rep.Regions[s].ValKey)
	if err != nil {
		return 0, err
	}
	lo, hi := rep.EvaluateRegion(valBytes, iv)
	condIn(res.condLog, keyID, int64(rep.Regions[s].Count))
	condOut(res.condLog, keyID, int64(hi-lo))
	res.stats.SortedRegions++
	if hi <= lo {
		return 0, nil
	}
	e.Acct.Charge(vclock.Compute, computeCost(int64(hi-lo), probeNsPerElem))

	// Resolve companion conditions first: contiguous co-sorted reads,
	// no permutation needed for eliminated positions. The extents stay
	// in hand so the survivors' values can be picked up afterwards.
	sc.hits = slices.Grow(sc.hits[:0], hi-lo)
	alive := sc.hits
	for i := lo; i < hi; i++ {
		alive = append(alive, uint64(i))
	}
	var compData []dtype.ROBytes
	if collect {
		compData = make([]dtype.ROBytes, len(sp.comps))
	}
	for ci, cd := range sp.comps {
		if err := tok.Err(); err != nil {
			return 0, err
		}
		if len(alive) == 0 {
			break
		}
		data, err := e.readExtent(cd.keys[s])
		if err != nil {
			return 0, err
		}
		res.stats.Probes += int64(len(alive))
		condIn(res.condLog, cd.id, int64(len(alive)))
		e.Acct.Charge(vclock.Compute, computeCost(int64(len(alive)), probeNsPerElem))
		alive = cd.p.probe(data, 0, alive)
		condOut(res.condLog, cd.id, int64(len(alive)))
		if collect {
			compData[ci] = data
		}
	}
	if len(alive) == 0 {
		return 0, nil
	}

	// Fetch the surviving positions' permutation entries. When most
	// of the region survives, read (and cache) the whole extent; for
	// a narrow match, a ranged read of the needed slice is cheaper.
	pw := rep.PermWidth()
	var permBytes []byte
	permBase := int(alive[0])
	if hi-lo >= int(rep.Regions[s].Count)/4 {
		if permBytes, err = e.readExtent(rep.Regions[s].PermKey); err != nil {
			return 0, err
		}
		permBase = 0
	} else {
		span := int(alive[len(alive)-1]) - permBase + 1
		if permBytes, err = e.Store.Read(e.Acct, rep.Regions[s].PermKey, int64(permBase)*pw, int64(span)*pw); err != nil {
			return 0, err
		}
	}
	coords := make([]uint64, 0, len(alive))
	if collect {
		res.vals = make(map[object.ID][]float64, 1+len(sp.comps))
	}
	sc.coord = sized(sc.coord, len(anchor.Dims))
	for _, p := range alive {
		pos := int(p)
		coord := rep.PermAt(permBytes, pos-permBase)
		if cons != nil && !cons.ContainsCoord(region.LinearToCoord(anchor.Dims, coord, sc.coord)) {
			continue
		}
		coords = append(coords, coord)
		if collect {
			res.vals[keyID] = append(res.vals[keyID], dtype.At(rep.Type, valBytes, pos))
			for ci, cd := range sp.comps {
				res.vals[cd.id] = append(res.vals[cd.id], dtype.At(cd.t, compData[ci], pos))
			}
		}
	}
	res.coords, res.nhits = coords, int64(len(coords))
	return len(alive), nil
}

// probeRead fetches what a probe of object o's region r at the given
// sorted local element indices needs: the whole region buffer (indexed
// by local index) when it is cached or the probe is dense, else one
// single-element blob per index from an aggregated ranged read.
func (e *Engine) probeRead(o *object.Object, r int, local []uint64, regionElems uint64) (data dtype.ROBytes, blobs []dtype.ROBytes, err error) {
	es := int64(o.Type.Size())
	key := o.Regions[r].ExtentKey
	if data, ok := e.Cache.Get(key); ok {
		m := e.Store.Model()
		e.Acct.ChargeCost(m.ReadCost(simio.Memory, int64(len(local))*es))
		e.noteCache(telemetry.EvCacheHit, int64(len(data)), 1)
		return data, nil, nil
	}
	if uint64(len(local))*4 >= regionElems {
		data, err := e.readRegion(o, r)
		return data, nil, err
	}
	ranges := make([]simio.Range, len(local))
	for k, lidx := range local {
		ranges[k] = simio.Range{Off: int64(lidx) * es, Len: es}
	}
	blobs, err = e.Store.ReadRanges(nil, e.Acct, key, ranges)
	return nil, blobs, err
}

// probeFilter keeps the local indices whose element of o's region r
// satisfies p, in place.
func (e *Engine) probeFilter(o *object.Object, r int, local []uint64, regionElems uint64, p pred) ([]uint64, error) {
	data, blobs, err := e.probeRead(o, r, local, regionElems)
	if err != nil {
		return nil, err
	}
	if blobs == nil {
		return p.probe(data, 0, local), nil
	}
	keep := local[:0]
	for k, lidx := range local {
		if p.at(blobs[k], 0) {
			keep = append(keep, lidx)
		}
	}
	return keep, nil
}

// probeValues returns the values of object o's region r at the given
// sorted local element indices.
func (e *Engine) probeValues(o *object.Object, r int, local []uint64, regionElems uint64) ([]float64, error) {
	data, blobs, err := e.probeRead(o, r, local, regionElems)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(local))
	for k, lidx := range local {
		if blobs == nil {
			out[k] = dtype.At(o.Type, data, int(lidx))
		} else {
			out[k] = dtype.At(o.Type, blobs[k], 0)
		}
	}
	return out, nil
}

// collectRegionValues appends the values at the hit coordinates (offset
// by base) for every queried object of one region (scan/probe path — the
// buffers are warm in cache).
func (e *Engine) collectRegionValues(tok *sched.Token, order []object.ID, objs map[object.ID]*object.Object,
	r int, base uint64, hits []uint64, vals map[object.ID][]float64) error {
	for _, id := range order {
		if err := tok.Err(); err != nil {
			return err
		}
		o := objs[id]
		data, err := e.readRegion(o, r)
		if err != nil {
			return err
		}
		for _, h := range hits {
			vals[id] = append(vals[id], dtype.At(o.Type, data, int(h-base)))
		}
	}
	return nil
}

// encodeValues converts collected float64 values back to each object's
// element type.
func encodeValues(objs map[object.ID]*object.Object, vals map[object.ID][]float64) map[object.ID][]byte {
	out := make(map[object.ID][]byte, len(vals))
	for id, vs := range vals {
		o := objs[id]
		buf := make([]byte, len(vs)*o.Type.Size())
		for i, v := range vs {
			dtype.Put(o.Type, buf, i, v)
		}
		out[id] = buf
	}
	return out
}

// ErrCoords reports coordinates ExtractValues cannot read: one outside
// the object, or one below its predecessor.
var ErrCoords = errors.New("exec: bad coordinates")

// ExtractValues reads the values of an object at the given ascending
// absolute coordinates, returning them concatenated in coordinate order.
// Regions already warm in the cache are served from memory — this is the
// get-data path (§III-E, §VI-A), whose requests name the coordinates, so
// unsorted or out-of-range ones are ErrCoords. tok cancels between
// regions; nil never cancels.
func (e *Engine) ExtractValues(tok *sched.Token, id object.ID, coords []uint64) ([]byte, error) {
	o, ok := e.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("exec: object %d not found", id)
	}
	n := o.NumElems()
	for i, c := range coords {
		if c >= n || (i > 0 && c < coords[i-1]) {
			return nil, fmt.Errorf("%w: coordinate %d at position %d of object %d (%d elements, ascending order)", ErrCoords, c, i, id, n)
		}
	}
	elemSize := o.Type.Size()
	out := make([]byte, len(coords)*elemSize)
	for i := 0; i < len(coords); {
		if err := tok.Err(); err != nil {
			return nil, err
		}
		r := o.RegionOfLinear(coords[i])
		start := o.LinearStart(r)
		end := start + o.Regions[r].Region.NumElems()
		data, err := e.readRegion(o, r)
		if err != nil {
			return nil, err
		}
		for i < len(coords) && coords[i] < end {
			local := int(coords[i] - start)
			copy(out[i*elemSize:], data[local*elemSize:(local+1)*elemSize])
			i++
		}
	}
	return out, nil
}
