package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AliasGuardAnalyzer flags alias-escape hazards on slice- and map-typed
// values: the bug class behind the exec.Cache poisoning fix — an
// exported method handing a caller a slice that still aliases
// receiver-owned state, so the caller's writes corrupt internal data.
//
// Per exported method it runs an intra-procedural value-flow analysis
// and reports three hazards:
//
//  1. escape — a return value (or a store through a pointer/slice/map
//     parameter) aliases state reachable from an unexported receiver
//     field, with no intervening copy. Fresh-copy idioms pass
//     naturally: append([]T(nil), s...), make+copy, slices.Clone /
//     bytes.Clone all produce untainted values because unknown calls
//     and fresh allocations drop taint.
//  2. retention — the inverse: a caller-supplied slice/map argument is
//     stored into receiver-reachable state, so later caller writes
//     alias internal data.
//  3. immutable writes — any write (index assignment, copy dst,
//     append) through a value whose type is declared read-only with a
//     //lint:immutable directive on its type declaration
//     (dtype.ROBytes). This is what lets the immutable-extent cache
//     return interior slices with no copy: rule 1 exempts
//     immutable-typed results, and rule 3 polices every write to them
//     repo-wide.
//
// Exported receiver fields are not treated as receiver-owned: callers
// can already reach them directly, so returning them creates no
// aliasing the type's API didn't expose (selection.Batch.Sel etc.).
// Taint is dropped at calls to other functions, which trades missed
// inter-procedural escapes for near-zero false positives; the
// per-method rule still catches every accessor-shaped leak.
var AliasGuardAnalyzer = &Analyzer{
	Name:   "aliasguard",
	Doc:    "flag exported methods leaking aliases of receiver-owned slices/maps (and writes through //lint:immutable types)",
	Global: true,
	Run:    runAliasGuard,
}

const immutableDirective = "//lint:immutable"

// aliasTaint is the value-flow lattice: which caller-visible or
// receiver-owned memory an expression may alias.
type aliasTaint uint8

const (
	taintRecv  aliasTaint = 1 << iota // aliases unexported receiver-owned state
	taintParam                        // aliases a caller-supplied argument
	taintRO                           // aliases an immutable (//lint:immutable) value
)

func runAliasGuard(p *Pass) error {
	ro := collectImmutableTypes(p.Pkgs)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ag := &aliasGuard{
					pass: p,
					info: pkg.Info,
					ro:   ro,
					key:  FuncKey(fn),
					sig:  fn.Type().(*types.Signature),
					vars: make(map[*types.Var]aliasTaint),
				}
				ag.analyze(fd)
			}
		}
	}
	return nil
}

// collectImmutableTypes gathers "pkgpath.TypeName" keys for every type
// declaration carrying a //lint:immutable directive in its doc or line
// comment. Keys are strings so the same type matches whether seen from
// source or through export data.
func collectImmutableTypes(pkgs []*Package) map[string]bool {
	ro := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				declMarked := commentHasDirective(gd.Doc, immutableDirective)
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if declMarked ||
						commentHasDirective(ts.Doc, immutableDirective) ||
						commentHasDirective(ts.Comment, immutableDirective) {
						ro[pkg.PkgPath+"."+ts.Name.Name] = true
					}
				}
			}
		}
	}
	return ro
}

func commentHasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if len(c.Text) >= len(directive) && c.Text[:len(directive)] == directive {
			return true
		}
	}
	return false
}

// aliasGuard analyzes one function declaration.
type aliasGuard struct {
	pass *Pass
	info *types.Info
	ro   map[string]bool
	key  string
	sig  *types.Signature

	recv   *types.Var          // receiver variable, nil for plain functions
	params map[*types.Var]bool // declared parameters
	vars   map[*types.Var]aliasTaint

	exported bool // exported method: escape/retention rules apply
}

func (ag *aliasGuard) analyze(fd *ast.FuncDecl) {
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if v, ok := ag.info.Defs[fd.Recv.List[0].Names[0]].(*types.Var); ok {
			ag.recv = v
		}
	}
	ag.params = make(map[*types.Var]bool)
	for i := 0; i < ag.sig.Params().Len(); i++ {
		ag.params[ag.sig.Params().At(i)] = true
	}
	ag.exported = ag.recv != nil && fd.Name.IsExported()

	// Fixpoint: propagate taint through local assignments until stable.
	// The lattice only grows, so the loop terminates; the bound guards
	// pathological bodies.
	for i := 0; i < 8; i++ {
		if !ag.propagate(fd.Body) {
			break
		}
	}
	ag.sinks(fd)
}

// propagate runs one pass of taint transfer over assignments, short
// variable declarations, var decls, and range statements. Reports
// whether any variable's taint grew.
func (ag *aliasGuard) propagate(body *ast.BlockStmt) bool {
	changed := false
	mark := func(id ast.Expr, t aliasTaint) {
		ident, ok := id.(*ast.Ident)
		if !ok || t == 0 {
			return
		}
		obj := ag.info.Defs[ident]
		if obj == nil {
			obj = ag.info.Uses[ident]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		if ag.vars[v]|t != ag.vars[v] {
			ag.vars[v] |= t
			changed = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					mark(lhs, ag.taint(st.Rhs[i]))
				}
			} else if len(st.Rhs) == 1 {
				// Comma-ok forms alias through the first variable only
				// (v, ok := m[k] / x.(T)); multi-return calls carry no
				// taint, so attributing rhs[0]'s taint to lhs[0] is safe.
				switch st.Rhs[0].(type) {
				case *ast.IndexExpr, *ast.TypeAssertExpr:
					mark(st.Lhs[0], ag.taint(st.Rhs[0]))
				}
			}
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != len(vs.Names) {
						continue
					}
					for i, name := range vs.Names {
						mark(name, ag.taint(vs.Values[i]))
					}
				}
			}
		case *ast.RangeStmt:
			t := ag.taint(st.X)
			if st.Key != nil {
				mark(st.Key, t)
			}
			if st.Value != nil {
				mark(st.Value, t)
			}
		}
		return true
	})
	return changed
}

// taint computes the alias taint of an expression. Basic-typed
// expressions (a byte read out of a slice, a string conversion — both
// value copies) can alias nothing and always come back clean.
func (ag *aliasGuard) taint(e ast.Expr) aliasTaint {
	if tt := ag.info.TypeOf(e); tt != nil {
		if _, basic := tt.Underlying().(*types.Basic); basic {
			return 0
		}
	}
	t := ag.exprTaint(e)
	if ag.immutableType(ag.info.TypeOf(e)) {
		t |= taintRO
	}
	return t
}

func (ag *aliasGuard) exprTaint(e ast.Expr) aliasTaint {
	switch x := e.(type) {
	case *ast.Ident:
		obj := ag.info.Uses[x]
		if obj == nil {
			obj = ag.info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return 0
		}
		t := ag.vars[v]
		if v == ag.recv {
			t |= taintRecv
		}
		if ag.params[v] {
			t |= taintParam
		}
		if ag.immutableType(v.Type()) {
			t |= taintRO
		}
		return t
	case *ast.SelectorExpr:
		// Direct receiver field access: only unexported fields are
		// receiver-owned (exported fields are already caller-reachable).
		if ag.isRecvIdent(x.X) {
			t := aliasTaint(0)
			if !x.Sel.IsExported() {
				t |= taintRecv
			}
			if ag.immutableType(ag.info.TypeOf(x)) {
				t |= taintRO
			}
			return t
		}
		return ag.taint(x.X)
	case *ast.IndexExpr:
		return ag.taint(x.X)
	case *ast.SliceExpr:
		return ag.taint(x.X)
	case *ast.StarExpr:
		return ag.taint(x.X)
	case *ast.ParenExpr:
		return ag.taint(x.X)
	case *ast.TypeAssertExpr:
		if x.Type == nil {
			return 0 // type switch guard
		}
		return ag.taint(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return ag.taint(x.X)
		}
		return 0
	case *ast.CompositeLit:
		var t aliasTaint
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if isRefType(ag.info.TypeOf(el)) {
				t |= ag.taint(el)
			}
		}
		return t
	case *ast.CallExpr:
		return ag.callTaint(x)
	}
	return 0
}

// callTaint handles the three call shapes that preserve aliasing:
// append (result shares arg 0's backing array, and stores non-spread
// ref-typed arguments), type conversions (a []byte(x) view aliases x),
// and nothing else — results of real function calls are assumed fresh,
// which is what makes make+copy, slices.Clone and append([]T(nil), ...)
// act as sanitizers without a special-case list.
func (ag *aliasGuard) callTaint(call *ast.CallExpr) aliasTaint {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := ag.info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 {
				t := ag.taint(call.Args[0])
				for i, a := range call.Args[1:] {
					last := i+1 == len(call.Args)-1
					if call.Ellipsis.IsValid() && last {
						continue // spread copies elements, not headers
					}
					if isRefType(ag.info.TypeOf(a)) {
						t |= ag.taint(a)
					}
				}
				return t
			}
			return 0
		}
	}
	// Conversion: T(x) keeps x's backing memory for slice<->slice and
	// named<->unnamed views.
	if tv, ok := ag.info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return ag.taint(call.Args[0])
	}
	return 0
}

func (ag *aliasGuard) isRecvIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || ag.recv == nil {
		return false
	}
	return ag.info.Uses[id] == ag.recv || ag.info.Defs[id] == ag.recv
}

// immutableType reports whether t (or its named core) carries the
// //lint:immutable directive.
func (ag *aliasGuard) immutableType(t types.Type) bool {
	for t != nil {
		n, ok := t.(*types.Named)
		if !ok {
			if a, ok := t.(*types.Alias); ok {
				t = types.Unalias(a)
				continue
			}
			return false
		}
		if n.Obj().Pkg() != nil && ag.ro[n.Obj().Pkg().Path()+"."+n.Obj().Name()] {
			return true
		}
		return false
	}
	return false
}

// isRefType reports whether t is a slice, map, or pointer-to-array —
// the kinds whose values alias backing memory.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	}
	return false
}

// sinks walks the body once after the fixpoint, reporting hazards.
// Return-escape and retention apply only at the method's top level
// (depth 0) — a return inside a func literal returns from the closure,
// not the method. Immutable-write checks apply everywhere.
func (ag *aliasGuard) sinks(fd *ast.FuncDecl) {
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			depth++
			ast.Inspect(st.Body, walk)
			depth--
			return false
		case *ast.ReturnStmt:
			if depth == 0 {
				ag.checkReturn(st)
			}
		case *ast.AssignStmt:
			ag.checkAssign(st, depth)
		case *ast.CallExpr:
			ag.checkImmutableCall(st)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkReturn enforces rule 1 on explicit and naked returns.
func (ag *aliasGuard) checkReturn(st *ast.ReturnStmt) {
	if !ag.exported {
		return
	}
	res := ag.sig.Results()
	if len(st.Results) == 0 {
		// Naked return: named results carry whatever taint their vars
		// accumulated.
		for i := 0; i < res.Len(); i++ {
			rv := res.At(i)
			if ag.vars[rv]&taintRecv != 0 && ag.escapeHazard(rv.Type()) {
				ag.report(st.Pos(), "%s returns named result %q aliasing receiver-owned state without a copy; callers can mutate internal data (copy it, or type it //lint:immutable)",
					ShortKey(ag.key), rv.Name())
			}
		}
		return
	}
	if len(st.Results) != res.Len() {
		return // return f() forwarding a multi-value call: taint-free
	}
	for i, e := range st.Results {
		if ag.taint(e)&taintRecv == 0 {
			continue
		}
		if ag.escapeHazard(res.At(i).Type()) {
			ag.report(e.Pos(), "%s returns %s aliasing receiver-owned state without a copy; callers can mutate internal data (copy it, or type the result //lint:immutable)",
				ShortKey(ag.key), types.ExprString(e))
		}
	}
}

// escapeHazard: only mutable reference-typed results leak writable
// aliases; immutable-typed results are the audited read-only channel.
func (ag *aliasGuard) escapeHazard(t types.Type) bool {
	return isRefType(t) && !ag.immutableType(t)
}

// checkAssign enforces rule 2 (retention, and its out-parameter escape
// dual) and the index-assignment half of rule 3.
func (ag *aliasGuard) checkAssign(st *ast.AssignStmt, depth int) {
	for i, lhs := range st.Lhs {
		lhs = ast.Unparen(lhs)

		// Rule 3: writing an element through an immutable-typed or
		// immutable-tainted base.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if _, isMap := ag.info.TypeOf(ix.X).Underlying().(*types.Map); !isMap {
				if ag.taint(ix.X)&taintRO != 0 {
					ag.report(lhs.Pos(), "write through immutable value %s (type declared %s)",
						types.ExprString(ix.X), immutableDirective)
				}
			}
		}

		if depth != 0 || !ag.exported || len(st.Lhs) != len(st.Rhs) {
			continue
		}
		rhs := st.Rhs[i]
		rt := ag.taint(rhs)
		if !isRefType(ag.info.TypeOf(rhs)) || ag.immutableType(ag.info.TypeOf(rhs)) {
			continue
		}
		root := ag.lvalueRoot(lhs)
		if root == nil {
			continue
		}
		// Rule 2: caller-supplied slice stored into receiver state.
		if rt&taintParam != 0 && (root == ag.recv || ag.vars[root]&taintRecv != 0) {
			ag.report(rhs.Pos(), "%s retains caller-supplied %s in receiver state without a copy; later caller writes alias internal data",
				ShortKey(ag.key), types.ExprString(rhs))
		}
		// Rule 1 dual: receiver-owned slice stored through an out
		// parameter, visible to the caller like a return value.
		if rt&taintRecv != 0 && root != ag.recv && (ag.params[root] || ag.vars[root]&taintParam != 0) {
			ag.report(rhs.Pos(), "%s stores %s aliasing receiver-owned state into caller-visible memory without a copy",
				ShortKey(ag.key), types.ExprString(rhs))
		}
	}
}

// lvalueRoot unwraps an assignable expression (x.f[i].g = ...) to its
// base variable.
func (ag *aliasGuard) lvalueRoot(e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := ag.info.Uses[x]
			if obj == nil {
				obj = ag.info.Defs[x]
			}
			v, _ := obj.(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkImmutableCall enforces the copy/append half of rule 3.
func (ag *aliasGuard) checkImmutableCall(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	b, ok := ag.info.Uses[id].(*types.Builtin)
	if !ok || len(call.Args) == 0 {
		return
	}
	switch b.Name() {
	case "copy":
		if len(call.Args) == 2 && ag.taint(call.Args[0])&taintRO != 0 {
			ag.report(call.Pos(), "copy into immutable value %s (type declared %s)",
				types.ExprString(call.Args[0]), immutableDirective)
		}
	case "append":
		if ag.taint(call.Args[0])&taintRO != 0 {
			ag.report(call.Pos(), "append to immutable value %s may write its shared backing array (type declared %s)",
				types.ExprString(call.Args[0]), immutableDirective)
		}
	}
}

func (ag *aliasGuard) report(pos token.Pos, format string, args ...any) {
	ag.pass.ReportAttributed(pos, ag.key, nil, format, args...)
}
