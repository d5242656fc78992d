package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// BarrierDetAnalyzer statically encodes the engine's barrier
// determinism invariant: a sched.Pool.Map worker task must confine its
// effects to per-index result slots and shadow aggregates; telemetry
// (Recorder events, Registry counters, PhaseTimes) and engine-shared
// maps/slices may only be touched at the serial merge barrier, after
// Map returns. Workers race, so a direct Recorder.Record from a task
// interleaves events in worker-completion order — the exact PR 7
// regression (cache traffic recorded from pooled region tasks) that
// had to be rebuilt around per-task CacheTraffic aggregates flushed at
// the barrier.
//
// Three rules, applied to every function passed to Pool.Map (resolved
// to its literal through the enclosing body):
//
//  1. No direct telemetry-sink call (Recorder.Record, Registry
//     mutators, PhaseTimes.Add) anywhere in the worker body.
//  2. No write to captured state: captured scalars and struct fields,
//     captured maps, and captured slices — unless the element index
//     references a worker-local variable (the per-index slot pattern
//     `results[i] = res`).
//  3. A call whose transitive call-graph closure reaches a telemetry
//     sink is only legal on a receiver the worker has neutralized
//     first: a must-dominating nil store to the receiver's recorder
//     field of that sink's type (the `te := *e; te.Rec = nil` shadow
//     engine idiom). The effects then accumulate in the task's shadow
//     aggregates instead of the shared recorder.
var BarrierDetAnalyzer = &Analyzer{
	Name:   "barrierdet",
	Doc:    "pooled worker tasks must route shared effects through per-task aggregates flushed at the serial barrier",
	Global: true,
	Run:    runBarrierDet,
}

// Sink kinds, as a bitmask for transitive reach propagation.
const (
	sinkRecorder = 1 << iota
	sinkRegistry
	sinkPhases
)

func sinkKindNames(mask int) string {
	var parts []string
	if mask&sinkRecorder != 0 {
		parts = append(parts, "Recorder")
	}
	if mask&sinkRegistry != 0 {
		parts = append(parts, "Registry")
	}
	if mask&sinkPhases != 0 {
		parts = append(parts, "PhaseTimes")
	}
	return strings.Join(parts, "+")
}

// telemetrySinkKind classifies a call as a direct telemetry sink.
func telemetrySinkKind(info *types.Info, call *ast.CallExpr) int {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return 0
	}
	m, ok := s.Obj().(*types.Func)
	if !ok {
		return 0
	}
	switch {
	case m.Name() == "Record" && isNamedFromPkg(s.Recv(), "Recorder", "telemetry"):
		return sinkRecorder
	case isNamedFromPkg(s.Recv(), "Registry", "telemetry"):
		switch m.Name() {
		case "Add", "SetGauge", "Observe", "AddCounters", "Merge":
			return sinkRegistry
		}
	case m.Name() == "Add" && isNamedFromPkg(s.Recv(), "PhaseTimes", "telemetry"):
		return sinkPhases
	}
	return 0
}

// sinkFieldKind classifies a struct field type as a neutralizable
// telemetry handle (*telemetry.Recorder etc.).
func sinkFieldKind(t types.Type) int {
	switch {
	case isNamedFromPkg(t, "Recorder", "telemetry"):
		return sinkRecorder
	case isNamedFromPkg(t, "Registry", "telemetry"):
		return sinkRegistry
	case isNamedFromPkg(t, "PhaseTimes", "telemetry"):
		return sinkPhases
	}
	return 0
}

func runBarrierDet(pass *Pass) error {
	g := pass.CallGraph()

	// Transitive sink reach: which functions (by key) lead to a
	// telemetry sink, and of which kinds?
	sinkReach := make(map[string]int)
	for _, key := range g.Keys() {
		n := g.Nodes[key]
		if n.Decl == nil || n.Decl.Body == nil {
			continue
		}
		mask := 0
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				mask |= telemetrySinkKind(n.Pkg.Info, call)
			}
			return true
		})
		if mask != 0 {
			sinkReach[key] = mask
		}
	}
	// Propagate over static edges only: the graph's name-based dynamic
	// dispatch over-approximates (any one-method interface pulls in
	// every same-named method), which here would only manufacture
	// false barrier violations.
	for changed := true; changed; {
		changed = false
		for _, key := range g.Keys() {
			mask := sinkReach[key]
			for _, e := range g.Nodes[key].Out {
				if e.Dynamic {
					continue
				}
				mask |= sinkReach[e.CalleeKey]
			}
			if mask != sinkReach[key] {
				sinkReach[key] = mask
				changed = true
			}
		}
	}

	// Find every Pool.Map call site and check its worker function.
	for _, key := range g.Keys() {
		n := g.Nodes[key]
		if n.Decl.Body == nil {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isPoolMapCall(info, call) || len(call.Args) == 0 {
				return true
			}
			worker := resolveWorkerLit(info, n.Decl.Body, call.Args[len(call.Args)-1])
			if worker == nil {
				return true
			}
			bd := &barrierDetWorker{pass: pass, node: n, key: key, worker: worker, sinkReach: sinkReach}
			bd.check()
			return true
		})
	}
	return nil
}

// isPoolMapCall recognizes (*sched.Pool).Map method calls.
func isPoolMapCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Map" {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	return isNamedFromPkg(s.Recv(), "Pool", "sched")
}

// resolveWorkerLit resolves the worker argument to its function
// literal: either inline, or a local variable assigned a literal in
// the same enclosing body.
func resolveWorkerLit(info *types.Info, body *ast.BlockStmt, arg ast.Expr) *ast.FuncLit {
	switch a := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return a
	case *ast.Ident:
		v, ok := info.Uses[a].(*types.Var)
		if !ok {
			return nil
		}
		var lit *ast.FuncLit
		ast.Inspect(body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if info.Defs[id] == v || info.Uses[id] == v {
					if fl, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok {
						lit = fl
					}
				}
			}
			return true
		})
		return lit
	}
	return nil
}

type barrierDetWorker struct {
	pass      *Pass
	node      *CallNode
	key       string
	worker    *ast.FuncLit
	sinkReach map[string]int
}

// workerLocal reports whether a variable is declared inside the worker
// literal (params included) — writes to such state are task-private.
func (bd *barrierDetWorker) workerLocal(v *types.Var) bool {
	return v.Pos() >= bd.worker.Pos() && v.Pos() <= bd.worker.End()
}

func (bd *barrierDetWorker) check() {
	info := bd.node.Pkg.Info

	// Rule 1+2: walk the whole worker body (nested literals run inside
	// the task too).
	ast.Inspect(bd.worker.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if kind := telemetrySinkKind(info, m); kind != 0 {
				bd.pass.ReportAttributed(m.Pos(), bd.key,
					"telemetry %s write inside a Pool.Map worker task; accumulate into the task result and flush at the serial barrier (barrierdet)",
					sinkKindNames(kind))
			}
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				bd.checkWriteTarget(lhs)
			}
		case *ast.IncDecStmt:
			bd.checkWriteTarget(m.X)
		}
		return true
	})

	// Rule 3: calls that transitively reach a sink need a dominating
	// neutralization of their receiver. Must-analysis over the worker
	// CFG (nested literals excluded — their calls are conservatively
	// checked with the facts at the literal's definition point... see
	// checkSinkCalls).
	res := NewCFG(bd.worker.Body).ForwardFlow(neutralLattice, neutralFacts{}, func(n ast.Node, fact any) any {
		return bd.neutralizeTransfer(n, fact.(neutralFacts), nil)
	})
	res.Sweep(func(n ast.Node, fact any) any {
		return bd.neutralizeTransfer(n, fact.(neutralFacts), bd.reportSinkCall)
	})
}

// checkWriteTarget flags writes to captured state (rule 2).
func (bd *barrierDetWorker) checkWriteTarget(lhs ast.Expr) {
	info := bd.node.Pkg.Info
	switch t := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v, ok := bd.baseVar(t); ok && !bd.workerLocal(v) {
			bd.pass.ReportAttributed(t.Pos(), bd.key,
				"write to captured variable %q inside a Pool.Map worker task (barrierdet)", v.Name())
		}
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(t.X).(*ast.Ident); ok {
			if v, ok := bd.baseVar(base); ok && !bd.workerLocal(v) {
				bd.pass.ReportAttributed(t.Pos(), bd.key,
					"write to field %s.%s of captured variable inside a Pool.Map worker task (barrierdet)",
					v.Name(), t.Sel.Name)
			}
		}
	case *ast.IndexExpr:
		base, ok := ast.Unparen(t.X).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := bd.baseVar(base)
		if !ok || bd.workerLocal(v) {
			return
		}
		if bt := info.TypeOf(t.X); bt != nil {
			if _, isMap := bt.Underlying().(*types.Map); isMap {
				bd.pass.ReportAttributed(t.Pos(), bd.key,
					"write to captured map %q inside a Pool.Map worker task (barrierdet)", v.Name())
				return
			}
		}
		if !bd.indexUsesWorkerVar(t.Index) {
			bd.pass.ReportAttributed(t.Pos(), bd.key,
				"write to captured slice %q outside the task's index slot inside a Pool.Map worker task (barrierdet)", v.Name())
		}
	}
}

func (bd *barrierDetWorker) baseVar(id *ast.Ident) (*types.Var, bool) {
	info := bd.node.Pkg.Info
	if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() {
		return v, true
	}
	if v, ok := info.Defs[id].(*types.Var); ok && !v.IsField() {
		return v, true
	}
	return nil, false
}

// indexUsesWorkerVar reports whether an index expression references
// any worker-local variable — the per-index slot discipline
// (`results[i] = res`, including through nested literals capturing the
// worker's index parameter).
func (bd *barrierDetWorker) indexUsesWorkerVar(idx ast.Expr) bool {
	info := bd.node.Pkg.Info
	uses := false
	ast.Inspect(idx, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() && bd.workerLocal(v) {
				uses = true
			}
		}
		return true
	})
	return uses
}

// neutralFacts maps a worker-local variable to the bitmask of sink
// kinds neutralized on every path so far (x.Rec = nil → Recorder bit):
// a must-fact, so in-paths intersect.
type neutralFacts = map[*types.Var]int

var neutralLattice = MapLattice[*types.Var, int]{JoinValue: func(a, b int) int { return a & b }}

// neutralizeTransfer updates neutralization facts and, when report is
// non-nil, checks sink-reaching calls against them.
func (bd *barrierDetWorker) neutralizeTransfer(n ast.Node, in neutralFacts, report func(call *ast.CallExpr, needed, have int)) neutralFacts {
	info := bd.node.Pkg.Info
	out := factEdit[*types.Var, int]{m: in}

	if report != nil {
		bd.checkSinkCalls(n, in, report)
	}

	inspectShallow(n, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			switch t := ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr:
				base, ok := ast.Unparen(t.X).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := bd.baseVar(base)
				if !ok || !bd.workerLocal(v) {
					continue
				}
				kind := sinkFieldKind(info.TypeOf(t.Sel))
				if kind == 0 {
					continue
				}
				if isNilIdent(as.Rhs[i]) {
					out.set(v, out.m[v]|kind)
				} else {
					out.set(v, out.m[v]&^kind)
				}
			case *ast.Ident:
				// Rebinding the variable discards its neutralization.
				if v, ok := bd.baseVar(t); ok {
					out.set(v, 0)
				}
			}
		}
		return true
	})
	return out.m
}

// checkSinkCalls flags calls whose callee transitively reaches a
// telemetry sink the current receiver has not neutralized.
func (bd *barrierDetWorker) checkSinkCalls(n ast.Node, facts neutralFacts, report func(call *ast.CallExpr, needed, have int)) {
	info := bd.node.Pkg.Info
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if telemetrySinkKind(info, call) != 0 {
			return true // rule 1 already reported direct sinks
		}
		key := resolveCalleeKey(info, call)
		if key == "" {
			return true
		}
		needed, ok := bd.sinkReach[key]
		if !ok || needed == 0 {
			return true
		}
		have := 0
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if v, ok := bd.baseVar(base); ok && bd.workerLocal(v) {
					have = facts[v]
				}
			}
		}
		if needed&^have != 0 {
			report(call, needed, have)
		}
		return true
	})
}

func (bd *barrierDetWorker) reportSinkCall(call *ast.CallExpr, needed, have int) {
	bd.pass.ReportAttributed(call.Pos(), bd.key,
		"call inside a Pool.Map worker task reaches telemetry %s without a dominating nil-out of the receiver's handle; clone the engine and neutralize it (te.Rec = nil) before the call (barrierdet)",
		sinkKindNames(needed&^have))
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
