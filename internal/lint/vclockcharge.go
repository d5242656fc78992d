package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// VclockChargeAnalyzer enforces the cost-accounting invariant behind
// every number in EXPERIMENTS.md: all storage traffic on a request path
// is charged to a *vclock.Account. The evaluation IS the cost model, so
// an uncharged simio read silently deflates the reported cost of a
// strategy without failing any test.
//
// The analyzer walks the call graph from the request-path roots
// (exec.Evaluate* and server.handle*) and flags every reachable call to
// a simio.Store I/O entry point (Read, ReadAll, ReadRanges, Write,
// WriteOwned, Migrate) that passes a nil *vclock.Account, unless the
// enclosing function is itself a charge-bearing frame (it calls
// Account.Charge or Account.ChargeCost, i.e. it reads uncharged and
// aggregate-charges locally — the sanctioned batch pattern in
// exec.Engine's full-scan preload).
//
// Calls passing a non-nil account are charged inside the Store and need
// nothing further. Uncharged reads outside request paths (the
// ground-truth oracle, offline baselines, tests) are intentionally out
// of scope.
var VclockChargeAnalyzer = &Analyzer{
	Name:   "vclockcharge",
	Doc:    "forbid request-path simio I/O that is not charged to a vclock.Account",
	Global: true,
	Run:    runVclockCharge,
}

// storeIOMethods are the simio.Store entry points that move bytes.
var storeIOMethods = map[string]bool{
	"Read": true, "ReadAll": true, "ReadRanges": true,
	"Write": true, "WriteOwned": true, "Migrate": true,
}

func runVclockCharge(pass *Pass) error {
	g := pass.CallGraph()

	// Roots: the functions a client request enters through.
	roots := selectRoots(g, "vclockcharge", nil)
	attr := g.RootAttribution(roots)

	for _, key := range g.Keys() {
		root, reachable := attr[key]
		if !reachable {
			continue
		}
		n := g.Nodes[key]
		if n.Decl.Body == nil || framecharges(n) {
			continue
		}
		for _, sink := range storeIOSinks(n) {
			pass.Reportf(sink.pos,
				"uncharged simio I/O on a request path: %s called with a nil *vclock.Account in %s (reachable from %s); pass the account or aggregate-charge in this frame",
				sink.what, ShortKey(key), ShortKey(root))
		}
	}
	return nil
}

// pkgPathHasSuffix matches a package by its last import-path element, so
// testdata fixtures (path "vclockcharge/exec") are treated like the real
// internal/exec.
func pkgPathHasSuffix(pkgPath, last string) bool {
	return pkgPath == last || strings.HasSuffix(pkgPath, "/"+last)
}

// framecharges reports whether the function body calls Charge or
// ChargeCost on a vclock.Account — the marker of an aggregate-charging
// frame.
func framecharges(n *CallNode) bool {
	info := n.Pkg.Info
	charges := false
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok || charges {
			return !charges
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
		if m.Name() != "Charge" && m.Name() != "ChargeCost" {
			return true
		}
		if isNamedFromPkg(s.Recv(), "Account", "vclock") {
			charges = true
		}
		return true
	})
	return charges
}

type ioSink struct {
	pos  token.Pos
	what string // e.g. "Store.ReadAll"
}

// storeIOSinks returns the simio.Store I/O calls in n's body whose
// account argument is the nil literal.
func storeIOSinks(n *CallNode) []ioSink {
	info := n.Pkg.Info
	var sinks []ioSink
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
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
		if !storeIOMethods[m.Name()] || !isNamedFromPkg(s.Recv(), "Store", "simio") {
			return true
		}
		// Find the *Account parameter and check the matching argument.
		sig := m.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
			pt := sig.Params().At(i).Type()
			if ptr, ok := pt.(*types.Pointer); ok && isNamedFromPkg(ptr.Elem(), "Account", "vclock") {
				if tv, ok := info.Types[call.Args[i]]; ok && tv.IsNil() {
					sinks = append(sinks, ioSink{call.Pos(), "Store." + m.Name()})
				}
				break
			}
		}
		return true
	})
	sort.Slice(sinks, func(i, j int) bool { return sinks[i].pos < sinks[j].pos })
	return sinks
}

// isNamedFromPkg reports whether t (possibly behind a pointer) is a
// named type with the given name whose package import path ends in
// pkgLast.
func isNamedFromPkg(t types.Type, name, pkgLast string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != name || n.Obj().Pkg() == nil {
		return false
	}
	return pkgPathHasSuffix(n.Obj().Pkg().Path(), pkgLast)
}
