package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrFlowAnalyzer proves that error values produced on request paths
// reach a consumer on every CFG path: a return, a wrap, a comparison,
// or any other read. Two defects are flagged:
//
//  1. dropped — a call whose final result is an error, used as a bare
//     expression statement, silently discards it. Explicit discards
//     (`_ = conn.Close()`) are visible intent and pass.
//  2. unchecked/shadowed — an error variable assigned from a call is
//     rewritten or falls off the function on some path without ever
//     being read (the classic `hits, err = probe(...)` inside a loop
//     that only checks err after the first iteration).
//
// The rules apply to functions reachable (via the call graph) from the
// request-path roots: exec.Evaluate*, server.handle*/Serve/Shutdown,
// transport Send/Recv/Close, and the exported client and core surface
// — the paths where a swallowed error turns into a silently wrong
// query result or a hung deployment.
//
// Rule 2 is a backward must-analysis: the fact is the set of error
// vars read before any rewrite on every path to exit. Bare returns
// read named error results; deferred calls read at the exit edge.
var ErrFlowAnalyzer = &Analyzer{
	Name:   "errflow",
	Doc:    "request-path errors must reach a return, wrap, or check on every path",
	Global: true,
	Run:    runErrFlow,
}

// errflowDroppedNames are callee method names whose dropped error is
// flagged even for out-of-repo callees (net.Conn.Close and friends).
var errflowDroppedNames = map[string]bool{
	"Close": true, "Flush": true, "Send": true, "Sync": true,
}

func runErrFlow(pass *Pass) error {
	g := pass.CallGraph()
	reach := g.RootPaths(selectRoots(g, rootRules["errflow"]))
	for _, key := range g.Keys() {
		n := g.Nodes[key]
		if reach[key] == nil || n.Decl.Body == nil {
			continue
		}
		ef := &errflowFunc{pass: pass, node: n, key: key}
		ef.checkDropped(n.Decl.Body)
		for _, b := range pass.bodies(key) {
			if b.Lit != nil {
				ef.checkShadowed(b.CFG, b.Lit.Type, b.Lit.Body)
			} else {
				ef.checkShadowed(b.CFG, n.Decl.Type, n.Decl.Body)
			}
		}
	}
	return nil
}

type errflowFunc struct {
	pass *Pass
	node *CallNode
	key  string
}

// checkDropped flags statement-position calls whose error result
// vanishes. Deferred and go-routine calls are left alone (their error
// has no frame to flow into); explicit `_ =` discards pass.
func (ef *errflowFunc) checkDropped(body *ast.BlockStmt) {
	info := ef.node.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok {
			return true
		}
		sig, ok := info.TypeOf(call.Fun).(*types.Signature)
		if !ok || sig.Results().Len() == 0 {
			return true
		}
		last := sig.Results().At(sig.Results().Len() - 1).Type()
		if !isErrorType(last) {
			return true
		}
		callee := resolveCalleeKey(info, call)
		name := calleeName(call)
		if callee == "" && !errflowDroppedNames[name] {
			// Out-of-repo callee without a teardown-critical name:
			// leave it to the caller's judgment.
			return true
		}
		if callee != "" && ef.pass.CallGraph().Nodes[callee] == nil && !errflowDroppedNames[name] {
			return true
		}
		ef.pass.ReportAttributed(call.Pos(), ef.key, nil,
			"error result of %s dropped; check it or discard explicitly with _ = (errflow)", name)
		return true
	})
}

func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// --- rule 2: unchecked / shadowed error variables --------------------

// errVarSet is the set of error vars read-before-rewrite on all paths
// to exit: a must-set.
type errVarSet = map[*types.Var]bool

var errReadLattice = MapLattice[*types.Var, bool]{JoinValue: func(a, b bool) bool { return a && b }}

// checkShadowed runs the backward analysis over one CFG. ftype is the
// function's signature AST (decl or literal), for named error results;
// body bounds which vars are local — a captured or package-level error
// var escapes the frame and is observable after exit, so it is never
// "lost" here.
func (ef *errflowFunc) checkShadowed(c *CFG, ftype *ast.FuncType, body *ast.BlockStmt) {
	info := ef.node.Pkg.Info

	// Named error results are read by bare returns and at exit (the
	// caller observes them).
	named := namedErrResults(info, ftype)

	// Deferred calls run on the exit edge and may read err vars.
	exit := errVarSet{}
	for v := range named {
		exit[v] = true
	}
	for _, d := range c.Defers {
		for v := range errReads(info, d) {
			exit[v] = true
		}
	}

	res := c.BackwardFlow(errReadLattice, exit, func(n ast.Node, fact any) any {
		return ef.errTransfer(n, fact.(errVarSet), named)
	})

	// For each def-from-call, the fact *after* the def must contain
	// the var.
	res.Sweep(func(n ast.Node, fact any) any {
		after := fact.(errVarSet)
		for v, pos := range errDefs(info, n) {
			if v.Pos() < body.Pos() || v.Pos() > body.End() {
				// Captured from an enclosing scope (or package
				// level): the value outlives this frame.
				continue
			}
			if !after[v] {
				ef.pass.ReportAttributed(pos, ef.key, nil,
					"error assigned to %q is rewritten or lost before being checked on some path (errflow)", v.Name())
			}
		}
		return ef.errTransfer(n, after, named)
	})
}

// errTransfer is the backward transfer: reads gen, writes kill.
func (ef *errflowFunc) errTransfer(n ast.Node, after errVarSet, named errVarSet) errVarSet {
	info := ef.node.Pkg.Info
	writes := errWrites(info, n)
	reads := errReads(info, n)
	if r, ok := n.(*ast.ReturnStmt); ok && len(r.Results) == 0 {
		// Bare return: named results are read by the caller.
		for v := range named {
			reads[v] = true
		}
	}
	if len(writes) == 0 && len(reads) == 0 {
		return after
	}
	out := errVarSet{}
	for v := range after {
		if !writes[v] {
			out[v] = true
		}
	}
	for v := range reads {
		out[v] = true
	}
	return out
}

// errWrites returns the error vars this node assigns (pure targets).
func errWrites(info *types.Info, n ast.Node) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	inspectShallow(n, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if v := lhsErrVar(info, lhs); v != nil {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// errReads returns the error vars this node reads — every identifier
// use that is not a pure assignment target, so `err = f()` does not
// count its LHS as a read while `err = wrap(err)` still counts the
// RHS use. Uses inside function literals count as reads: the closure
// may consume the value later.
func errReads(info *types.Info, n ast.Node) map[*types.Var]bool {
	targets := map[*ast.Ident]bool{}
	inspectShallow(n, func(m ast.Node) bool {
		if as, ok := m.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					targets[id] = true
				}
			}
		}
		return true
	})
	out := map[*types.Var]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || targets[id] {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || !isErrorType(v.Type()) {
			return true
		}
		out[v] = true
		return true
	})
	return out
}

// lhsErrVar resolves an assignment target to a local error var.
func lhsErrVar(info *types.Info, lhs ast.Expr) *types.Var {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	var v *types.Var
	if d, ok := info.Defs[id].(*types.Var); ok {
		v = d
	} else if u, ok := info.Uses[id].(*types.Var); ok {
		v = u
	}
	if v == nil || v.IsField() || !isErrorType(v.Type()) {
		return nil
	}
	return v
}

// errDefs returns the error vars this node defines *from a call* (the
// assignments rule 2 audits), keyed to the position to report.
func errDefs(info *types.Info, n ast.Node) map[*types.Var]token.Pos {
	out := map[*types.Var]token.Pos{}
	inspectShallow(n, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			v := lhsErrVar(info, lhs)
			if v == nil {
				continue
			}
			var rhs ast.Expr
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			} else if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			}
			if rhs == nil || !containsCall(rhs) {
				continue
			}
			out[v] = lhs.Pos()
		}
		return true
	})
	return out
}

func containsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// namedErrResults collects a signature's named error result vars.
func namedErrResults(info *types.Info, ftype *ast.FuncType) errVarSet {
	out := errVarSet{}
	if ftype == nil || ftype.Results == nil {
		return out
	}
	for _, f := range ftype.Results.List {
		for _, name := range f.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && isErrorType(v.Type()) {
				out[v] = true
			}
		}
	}
	return out
}
