package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CtxPropagateAnalyzer enforces the scheduler's end-to-end cancellation
// contract: a request that is cancelled (client gone, deadline hit,
// server shutting down) must stop consuming workers promptly, so every
// function on a request path that either spawns goroutines or loops over
// storage I/O (the region-granular work units of internal/sched) has to
// accept a context.Context or *sched.Token and actually use it — that is
// where the periodic tok.Err() / ctx.Done() checkpoints live.
//
// The analyzer walks the call graph from the request-path roots
// (exec.Evaluate*, server.handle*, and the exported sched API) and flags
// every reachable function containing a go statement or a loop that
// performs simio.Store I/O, unless the function declares a
// context.Context or *sched.Token parameter and references it in its
// body. The simio package itself is exempt: it is the I/O layer the
// checkpoints bracket, not a place to interleave them.
var CtxPropagateAnalyzer = &Analyzer{
	Name:   "ctxpropagate",
	Doc:    "request-path functions that spawn goroutines or loop over storage I/O must accept and use a context.Context or *sched.Token",
	Global: true,
	Run:    runCtxPropagate,
}

func runCtxPropagate(pass *Pass) error {
	g := pass.CallGraph()

	paths := g.RootPaths(selectRoots(g, rootRules["ctxpropagate"]))

	for _, key := range g.Keys() {
		if paths[key] == nil {
			continue
		}
		root := paths[key][0]
		n := g.Nodes[key]
		if n.Decl.Body == nil || pkgPathHasSuffix(n.Pkg.PkgPath, "simio") {
			continue
		}
		hazards := cancelHazards(n)
		if len(hazards) == 0 {
			continue
		}
		if usesCancelParam(n) {
			continue
		}
		for _, h := range hazards {
			pass.Reportf(h.pos,
				"%s on a request path in %s (reachable from %s) without a context.Context or *sched.Token in use; thread the request token so cancellation and deadlines propagate",
				h.what, ShortKey(key), ShortKey(root))
		}
	}
	return nil
}

type cancelHazard struct {
	pos  token.Pos
	what string
}

// cancelHazards finds the constructs that make a function
// cancellation-relevant: go statements (work escaping the caller) and
// loops whose bodies touch simio.Store I/O (region-granular work that a
// checkpoint should bracket). Loops inside func literals count — the
// call graph attributes closure bodies to the enclosing declaration.
func cancelHazards(n *CallNode) []cancelHazard {
	var hz []cancelHazard
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			hz = append(hz, cancelHazard{x.Pos(), "goroutine spawned"})
		case *ast.ForStmt:
			if loopDoesStoreIO(n, x.Body) {
				hz = append(hz, cancelHazard{x.Pos(), "storage-I/O loop"})
			}
		case *ast.RangeStmt:
			if loopDoesStoreIO(n, x.Body) {
				hz = append(hz, cancelHazard{x.Pos(), "storage-I/O loop"})
			}
		}
		return true
	})
	sort.Slice(hz, func(i, j int) bool { return hz[i].pos < hz[j].pos })
	return hz
}

// loopDoesStoreIO reports whether the loop body (including nested
// statements) calls a simio.Store I/O method.
func loopDoesStoreIO(n *CallNode, body *ast.BlockStmt) bool {
	info := n.Pkg.Info
	found := false
	ast.Inspect(body, func(node ast.Node) bool {
		if found {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.MethodVal {
			return true
		}
		m := s.Obj().(*types.Func)
		if storeIOMethods[m.Name()] && isNamedFromPkg(s.Recv(), "Store", "simio") {
			found = true
		}
		return true
	})
	return found
}

// usesCancelParam reports whether cancellation state flows into the
// function through its parameters and is referenced somewhere in its
// body: a context.Context or *sched.Token parameter, or a field of that
// type selected from a parameter (the server's handlers take the token
// inside their *request). Checking it, selecting on it, or passing it
// down all count — what matters is that it is not dropped on the floor.
func usesCancelParam(n *CallNode) bool {
	sig := n.Fn.Type().(*types.Signature)
	params := make(map[types.Object]bool)
	for i := 0; i < sig.Params().Len(); i++ {
		params[sig.Params().At(i)] = true
	}
	isCancel := func(t types.Type) bool {
		return isNamedFromPkg(t, "Context", "context") || isNamedFromPkg(t, "Token", "sched")
	}
	info := n.Pkg.Info
	used := false
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if used {
			return false
		}
		switch x := node.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; params[obj] && isCancel(obj.Type()) {
				used = true
			}
		case *ast.SelectorExpr:
			if base, ok := x.X.(*ast.Ident); ok && params[info.Uses[base]] && isCancel(info.TypeOf(x)) {
				used = true
			}
		}
		return true
	})
	return used
}
