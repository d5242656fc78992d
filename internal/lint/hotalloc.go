package lint

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotAllocAnalyzer enforces per-function heap-allocation budgets on the
// query hot path. It walks the whole-repo call graph from the declared
// hot roots (HotAllocRoots: exec.Engine.Evaluate*, the wah set
// operations and iterators, selection merge, transport frame
// encode/decode) and takes a census of allocation sites in every
// reachable function:
//
//   - make:    make(...) of slices, maps, and channels
//   - new:     new(...)
//   - append:  append(...) — may grow and reallocate
//   - convert: string <-> []byte/[]rune conversions (always copy)
//   - box:     a non-constant basic-typed value passed to an interface
//     parameter (boxing allocates for anything wider than a pointer
//     word; constants are excluded — the compiler interns them)
//   - closure: a func literal that captures enclosing variables (the
//     closure object escapes to the heap at almost every call site)
//
// Sites inside an `if err != nil`-guarded block are exempt: failure
// branches abort the query and are not hot. Every remaining site must
// be covered by the committed budget (hotalloc_budget.json, one entry
// per function+kind with a mandatory justification) or carry a
// //lint:ignore hotalloc directive; uncovered sites are reported with
// the call chain that makes them hot, so the diagnostic explains both
// what allocates and why it matters.
//
// The budget is a ratchet: `make hotalloc-report` regenerates the
// census, and the maintenance rule is that the committed file only
// shrinks — fixing an allocation deletes its entry, and a new hot
// allocation needs a written justification to land.
var HotAllocAnalyzer = NewHotAllocAnalyzer(embeddedHotAllocBudget(), HotAllocRoots)

// HotAllocRoots are the hot-path entry points, in the rootRules syntax.
var HotAllocRoots = []string{
	"exec.Engine.Evaluate*",
	"wah.Or*",
	"wah.Bitmap.ForEach",
	"wah.Bitmap.ToIndices*",
	"wah.Bitmap.Cardinality",
	"selection.Merge*",
	"transport.tcpConn.Send",
	"transport.tcpConn.Recv",
	"transport.AppendFrame",
}

// HotAllocEntry is one budget line: the function may keep Count
// allocation sites of Kind, for the stated Reason. The committed
// hotalloc_budget.json is a JSON array of these.
type HotAllocEntry struct {
	Func   string `json:"func"`
	Kind   string `json:"kind"`
	Count  int    `json:"count"`
	Reason string `json:"reason"`
}

//go:embed hotalloc_budget.json
var hotallocBudgetJSON []byte

func embeddedHotAllocBudget() []HotAllocEntry {
	var entries []HotAllocEntry
	if err := json.Unmarshal(hotallocBudgetJSON, &entries); err != nil {
		panic(fmt.Sprintf("lint: corrupt hotalloc_budget.json: %v", err))
	}
	return entries
}

// HotAllocBudget returns a copy of the committed budget
// (hotalloc_budget.json) for callers outside the analyzer — the
// pdc-lint staleness check compares it against the live call graph.
func HotAllocBudget() []HotAllocEntry {
	return append([]HotAllocEntry(nil), embeddedHotAllocBudget()...)
}

// StaleHotAllocBudget returns the budget entries whose function no
// longer exists: the entry's package is among the loaded packages, yet
// its FuncKey resolves to no call-graph node. Renamed or deleted hot
// functions leave such orphans behind, and an orphaned entry is a
// silent budget leak — a future allocation in a same-named function
// would inherit a justification written for different code. Entries
// whose package is not loaded are not stale (running pdc-lint on a
// package subset must not condemn the rest of the budget).
func StaleHotAllocBudget(pkgs []*Package, g *CallGraph, budget []HotAllocEntry) []HotAllocEntry {
	loaded := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		loaded[p.PkgPath] = true
	}
	var stale []HotAllocEntry
	for _, e := range budget {
		if loaded[funcKeyPkgPath(e.Func)] && g.Nodes[e.Func] == nil {
			stale = append(stale, e)
		}
	}
	return stale
}

// funcKeyPkgPath extracts the package import path from a call-graph
// FuncKey: the prefix up to the first '.' after the last '/' (package
// paths may contain dots only before the final element; func and type
// names cannot contain slashes).
func funcKeyPkgPath(key string) string {
	start := strings.LastIndexByte(key, '/') + 1
	dot := strings.IndexByte(key[start:], '.')
	if dot < 0 {
		return key
	}
	return key[:start+dot]
}

// NewHotAllocAnalyzer builds a hotalloc analyzer over an explicit
// budget and root set; the package-level HotAllocAnalyzer binds the
// embedded budget. Tests use this to run fixtures under synthetic
// budgets.
func NewHotAllocAnalyzer(budget []HotAllocEntry, roots []string) *Analyzer {
	allowed := make(map[string]int, len(budget))
	for _, e := range budget {
		allowed[e.Func+"\x00"+e.Kind] += e.Count
	}
	return &Analyzer{
		Name:   "hotalloc",
		Doc:    "budget heap-allocation sites in functions reachable from query hot paths",
		Global: true,
		Run: func(p *Pass) error {
			return runHotAlloc(p, allowed, roots)
		},
	}
}

func runHotAlloc(p *Pass, allowed map[string]int, rootPatterns []string) error {
	g := p.CallGraph()
	paths := g.RootPaths(selectRoots(g, rootPatterns))

	for _, key := range g.Keys() {
		chain, hot := paths[key]
		if !hot {
			continue
		}
		n := g.Nodes[key]
		if n.Decl.Body == nil {
			continue
		}
		sites := allocCensus(n.Pkg.Info, n.Decl.Body)
		byKind := make(map[string][]allocSite)
		for _, s := range sites {
			byKind[s.kind] = append(byKind[s.kind], s)
		}
		kinds := make([]string, 0, len(byKind))
		for k := range byKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			ks := byKind[kind]
			quota := allowed[key+"\x00"+kind]
			// Budgeted sites are consumed in source order; everything
			// past the quota is a finding.
			for _, s := range ks[min(quota, len(ks)):] {
				p.ReportAttributed(s.pos, key, chain,
					"hot-path %s allocation%s exceeds budget (%d budgeted for %s); shrink it, budget it with a justification, or //lint:ignore hotalloc it — hot via %s",
					kind, s.detail, quota, ShortKey(key), shortChain(chain))
			}
		}
	}
	return nil
}

// HotAllocReport runs the census standalone (pdc-lint -hotalloc-report,
// make hotalloc-report) and returns one entry per hot function+kind
// with the current site count, ready to be pruned into
// hotalloc_budget.json.
func HotAllocReport(pkgs []*Package) []HotAllocEntry {
	g := NewCallGraph(pkgs)
	paths := g.RootPaths(selectRoots(g, HotAllocRoots))
	var out []HotAllocEntry
	for _, key := range g.Keys() {
		if _, hot := paths[key]; !hot {
			continue
		}
		n := g.Nodes[key]
		if n.Decl.Body == nil {
			continue
		}
		counts := make(map[string]int)
		for _, s := range allocCensus(n.Pkg.Info, n.Decl.Body) {
			counts[s.kind]++
		}
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			out = append(out, HotAllocEntry{
				Func: key, Kind: k, Count: counts[k],
				Reason: "TODO: justify or eliminate",
			})
		}
	}
	return out
}

func shortChain(chain []string) string {
	parts := make([]string, len(chain))
	for i, k := range chain {
		parts[i] = ShortKey(k)
	}
	return strings.Join(parts, " -> ")
}

// allocSite is one heap-allocation site in a function body.
type allocSite struct {
	pos    token.Pos
	kind   string
	detail string // optional " of T"-style context for the message
}

// allocCensus walks one body collecting allocation sites, skipping
// error-guarded branches.
func allocCensus(info *types.Info, body *ast.BlockStmt) []allocSite {
	var sites []allocSite
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			// Failure branches (`if err != nil { ... }`) abort the
			// query: exempt the guarded block, keep walking init/else.
			if isErrNilCheck(info, x.Cond) {
				if x.Init != nil {
					ast.Inspect(x.Init, walk)
				}
				if x.Else != nil {
					ast.Inspect(x.Else, walk)
				}
				return false
			}
		case *ast.ReturnStmt:
			// Returning a freshly built error is the failure path:
			// the allocations in `return nil, fmt.Errorf(...)` abort
			// the query and are exempt. Success returns (`..., nil`)
			// stay policed.
			if n := len(x.Results); n > 0 {
				last := x.Results[n-1]
				if !isNilIdent(last) && isErrorType(info.TypeOf(last)) {
					return false
				}
			}
		case *ast.FuncLit:
			if capturesEnclosing(info, x) {
				sites = append(sites, allocSite{x.Pos(), "closure", ""})
			}
			return true
		case *ast.CallExpr:
			// panic(...) is an assertion failure; its message
			// construction is exempt like error returns.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return false
				}
			}
			sites = append(sites, callAllocs(info, x)...)
		}
		return true
	}
	ast.Inspect(body, walk)
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	return sites
}

// callAllocs classifies one call expression's allocation sites.
func callAllocs(info *types.Info, call *ast.CallExpr) []allocSite {
	fun := ast.Unparen(call.Fun)

	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				return []allocSite{{call.Pos(), "make", ""}}
			case "new":
				return []allocSite{{call.Pos(), "new", ""}}
			case "append":
				return []allocSite{{call.Pos(), "append", ""}}
			}
			return nil
		}
	}

	// Conversion: string <-> byte/rune slice always copies.
	if tv, ok := info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if isStringByteConv(tv.Type, info.TypeOf(call.Args[0])) {
			return []allocSite{{call.Pos(), "convert", ""}}
		}
		return nil
	}

	// Boxing: non-constant basic values passed to interface parameters.
	sig := callSignature(info, fun)
	if sig == nil {
		return nil
	}
	var sites []allocSite
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a spread slice is passed as-is
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || !types.IsInterface(pt) || types.IsInterface(at) {
			continue
		}
		if tv, ok := info.Types[arg]; ok && tv.Value != nil {
			continue // constants are interned by the compiler
		}
		if _, basic := at.Underlying().(*types.Basic); basic {
			sites = append(sites, allocSite{arg.Pos(), "box",
				fmt.Sprintf(" (%s into %s)", at.String(), pt.String())})
		}
	}
	return sites
}

func callSignature(info *types.Info, fun ast.Expr) *types.Signature {
	t := info.TypeOf(fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// isStringByteConv reports whether converting from to to copies bytes:
// string(b)/string(r) or []byte(s)/[]rune(s).
func isStringByteConv(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isErrNilCheck matches conditions containing `x != nil` where x is an
// error (possibly or'd with more clauses).
func isErrNilCheck(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.NEQ {
			return true
		}
		for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			if isNilIdent(pair[1]) && isErrorType(info.TypeOf(pair[0])) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil {
		return true
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Error" {
				return true
			}
		}
		return false
	}
	// Concrete error types (returned as *FrameError etc.) guard failure
	// branches the same way: anything with an Error() string method.
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Error")
	f, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := f.Type().(*types.Signature)
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		isStringType(sig.Results().At(0).Type())
}

// capturesEnclosing reports whether a func literal references variables
// declared outside itself (and therefore allocates a closure object);
// a capture-free literal compiles to a plain function.
func capturesEnclosing(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared before the literal but in some enclosing local
		// scope: package-level vars have Parent == package scope and
		// don't capture.
		if v.Pos() != token.NoPos && v.Pos() < lit.Pos() && !isPkgLevel(v) {
			captured = true
		}
		return true
	})
	return captured
}

func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
