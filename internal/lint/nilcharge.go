package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// NilChargeAnalyzer is the one account analysis: every place a
// `*vclock.Account` or `*sched.Token` is charged, dereferenced or handed
// to storage is visited once, with path-sensitive nilness in hand.
//
// A tracked pointer must be provably non-nil on *every* CFG path that
// reaches a charge or deref of it. The engine's discipline is to guard
// with `if e.Acct != nil { ... }` — the analyzer learns those guards
// through branch-edge refinement and flags the paths the guard misses.
// Facts track locals, parameters, and one-level field paths (`x.f`)
// rooted at a local. A method whose body begins by checking its
// receiver against nil (the sched.Token idiom: `if t == nil { ... }`)
// is nil-safe and never a sink; vclock.Account methods lock the
// receiver's mutex immediately, so a nil receiver is a panic and every
// call site must dominate a non-nil proof.
//
// The account argument of a simio.Store I/O entry point (Read, ReadAll,
// ReadRanges, Write, WriteOwned, Migrate) is the other sink, and the
// cost-accounting invariant behind every number in EXPERIMENTS.md: the
// evaluation IS the cost model, so an uncharged simio read silently
// deflates the reported cost of a strategy without failing any test. A
// *variable* that may be nil there is a finding anywhere. A *literal*
// nil is visible intent ("no accounting here", like `_ =` for errors)
// and legal off the request path — the ground-truth oracle, offline
// baselines — but a finding in any function reachable from the request
// roots (exec.Evaluate*, server.handle*). Either way a frame that calls
// Account.Charge or Account.ChargeCost itself is exempt: it reads
// uncharged and aggregate-charges locally, the sanctioned batch pattern
// of exec.Engine's full-scan preload.
var NilChargeAnalyzer = &Analyzer{
	Name:   "nilcharge",
	Doc:    "*vclock.Account/*sched.Token are non-nil on all paths reaching a charge or deref, and request-path simio I/O is charged to one",
	Global: true,
	Run:    runNilCharge,
}

// storeIOMethods are the simio.Store entry points that move bytes.
var storeIOMethods = map[string]bool{
	"Read": true, "ReadAll": true, "ReadRanges": true,
	"Write": true, "WriteOwned": true, "Migrate": true,
}

type nilFact int8

const (
	nilUnknown nilFact = iota // not tracked / no information
	nilIsNil                  // provably nil on all in-paths
	nilNonNil                 // provably non-nil on all in-paths
	nilMaybe                  // nil on at least one in-path
)

func joinNilFact(a, b nilFact) nilFact {
	if a == b {
		return a
	}
	if a == nilMaybe || b == nilMaybe {
		return nilMaybe
	}
	// One side nil, other side unknown or non-nil: a nil path exists.
	if a == nilIsNil || b == nilIsNil {
		return nilMaybe
	}
	// Unknown vs non-nil: no proof, but no nil path either.
	return nilUnknown
}

// nilPath names a tracked value: a local/param (field==nil) or a
// one-level field path rooted at one.
type nilPath struct {
	base  *types.Var
	field *types.Var
}

// nilFacts holds the tracked paths something is known about; an absent
// path is nilUnknown.
type nilFacts = map[nilPath]nilFact

var nilLattice = MapLattice[nilPath, nilFact]{JoinValue: joinNilFact}

func runNilCharge(pass *Pass) error {
	g := pass.CallGraph()
	safe := nilSafeMethods(g)
	requestPaths := g.RootPaths(selectRoots(g, rootRules["nilcharge"]))
	for _, key := range g.Keys() {
		n := g.Nodes[key]
		if n.Decl.Body == nil {
			continue
		}
		nc := &nilChargeFunc{pass: pass, node: n, key: key, safe: safe, requestPath: requestPaths[key]}
		for _, b := range pass.bodies(key) {
			res := b.CFG.ForwardFlow(nilLattice, nilFacts{}, func(n ast.Node, f any) any {
				return nc.apply(n, f.(nilFacts), false)
			}, nc.refineEdge)
			res.Sweep(func(n ast.Node, f any) any {
				return nc.apply(n, f.(nilFacts), true)
			})
		}
	}
	return nil
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

// nilSafeMethods scans every method on a tracked type and records the
// ones whose body checks the receiver against nil — callable on a nil
// receiver by design, like sched.Token's accessors.
func nilSafeMethods(g *CallGraph) map[string]bool {
	safe := make(map[string]bool)
	for key, n := range g.Nodes {
		d := n.Decl
		if d == nil || d.Body == nil || d.Recv == nil || len(d.Recv.List) == 0 {
			continue
		}
		names := d.Recv.List[0].Names
		if len(names) == 0 {
			continue
		}
		recv, ok := n.Pkg.Info.Defs[names[0]].(*types.Var)
		if !ok || !trackedNilPtr(recv.Type()) {
			continue
		}
		guarded := false
		ast.Inspect(d.Body, func(m ast.Node) bool {
			be, ok := m.(*ast.BinaryExpr)
			if !ok || guarded {
				return !guarded
			}
			if be.Op != token.EQL && be.Op != token.NEQ {
				return true
			}
			x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
			for _, pair := range [2][2]ast.Expr{{x, y}, {y, x}} {
				if id, ok := pair[0].(*ast.Ident); ok && n.Pkg.Info.Uses[id] == recv && isNilIdent(pair[1]) {
					guarded = true
				}
			}
			return true
		})
		if guarded {
			safe[key] = true
		}
	}
	return safe
}

// trackedNilPtr reports whether t is *vclock.Account or *sched.Token.
func trackedNilPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isNamedFromPkg(p.Elem(), "Account", "vclock") || isNamedFromPkg(p.Elem(), "Token", "sched")
}

type nilChargeFunc struct {
	pass *Pass
	node *CallNode
	key  string
	safe map[string]bool
	// requestPath is the call path from a request root to the function
	// (nil off the request path).
	requestPath []string
}

// pathOf resolves an expression to a tracked path: a plain local/param
// identifier, or a one-level field selection rooted at one. The value
// itself need not be of a tracked type — only paths whose type is
// tracked get facts, but bases are needed for kills.
func (nc *nilChargeFunc) pathOf(e ast.Expr) (nilPath, bool) {
	info := nc.node.Pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && !v.IsField() {
			return nilPath{base: v}, true
		}
		if v, ok := info.Defs[e].(*types.Var); ok && !v.IsField() {
			return nilPath{base: v}, true
		}
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok {
			return nilPath{}, false
		}
		bv, ok := info.Uses[base].(*types.Var)
		if !ok || bv.IsField() {
			return nilPath{}, false
		}
		s := info.Selections[e]
		if s == nil || s.Kind() != types.FieldVal || len(s.Index()) != 1 {
			return nilPath{}, false
		}
		if fv, ok := s.Obj().(*types.Var); ok {
			return nilPath{base: bv, field: fv}, true
		}
	}
	return nilPath{}, false
}

// exprFact evaluates the nilness of an expression under facts.
func (nc *nilChargeFunc) exprFact(e ast.Expr, facts nilFacts) nilFact {
	info := nc.node.Pkg.Info
	e = ast.Unparen(e)
	if isNilIdent(e) {
		return nilIsNil
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return nilNonNil // &composite / &var is never nil
	}
	if call, ok := e.(*ast.CallExpr); ok {
		key := resolveCalleeKey(info, call)
		if strings.HasSuffix(key, ".NewAccount") || strings.HasSuffix(key, ".NewToken") {
			// The constructors always allocate.
			return nilNonNil
		}
		return nilUnknown
	}
	if p, ok := nc.pathOf(e); ok {
		return facts[p]
	}
	return nilUnknown
}

// apply is the transfer function; with report=true it also flags sinks
// using the incoming facts.
func (nc *nilChargeFunc) apply(n ast.Node, in nilFacts, report bool) nilFacts {
	info := nc.node.Pkg.Info
	out := factEdit[nilPath, nilFact]{m: in}
	set := out.set
	killBaseFields := func(v *types.Var) {
		for p := range out.m {
			if p.base == v && p.field != nil {
				set(p, nilUnknown)
			}
		}
	}
	killBase := func(v *types.Var) {
		for p := range out.m {
			if p.base == v {
				set(p, nilUnknown)
			}
		}
	}

	if report {
		nc.reportSinks(n, in)
	}

	// Kills: a call that receives a local by pointer (receiver or
	// argument `x` of pointer type, or `&x`) may rewrite its fields.
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		exprs := make([]ast.Expr, 0, len(call.Args)+1)
		exprs = append(exprs, call.Args...)
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			exprs = append(exprs, sel.X)
		}
		for _, a := range exprs {
			switch a := ast.Unparen(a).(type) {
			case *ast.Ident:
				if v, ok := info.Uses[a].(*types.Var); ok {
					killBaseFields(v)
				}
			case *ast.UnaryExpr:
				if a.Op != token.AND {
					continue
				}
				if id, ok := ast.Unparen(a.X).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						killBase(v)
					}
				} else if p, ok := nc.pathOf(a.X); ok {
					set(p, nilUnknown)
				}
			}
		}
		return true
	})

	// Gen: assignments and declarations establish facts.
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			// Evaluate all RHS facts before applying (parallel assignment).
			rhsFacts := make([]nilFact, len(s.Rhs))
			for i := range s.Rhs {
				rhsFacts[i] = nc.exprFact(s.Rhs[i], out.m)
			}
			for i, lhs := range s.Lhs {
				nc.assign(lhs, rhsFacts[i], set, killBaseFields)
			}
		} else {
			// Multi-value call/comma-ok: results are unknown.
			for _, lhs := range s.Lhs {
				nc.assign(lhs, nilUnknown, set, killBaseFields)
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			break
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var f nilFact
				switch {
				case i < len(vs.Values):
					f = nc.exprFact(vs.Values[i], out.m)
				case len(vs.Values) == 0 && vs.Type != nil:
					// `var x *Account` zero value is nil.
					if tv, ok := info.Defs[name].(*types.Var); ok && trackedNilPtr(tv.Type()) {
						f = nilIsNil
					}
				}
				if v, ok := info.Defs[name].(*types.Var); ok && f != nilUnknown {
					set(nilPath{base: v}, f)
				}
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if e == nil {
				continue
			}
			if p, ok := nc.pathOf(e); ok {
				set(p, nilUnknown)
			}
		}
	}
	return out.m
}

// assign updates the fact of a tracked LHS path; assigning to a base
// var also invalidates its stale field paths.
func (nc *nilChargeFunc) assign(lhs ast.Expr, f nilFact, set func(nilPath, nilFact), killFields func(*types.Var)) {
	p, ok := nc.pathOf(lhs)
	if !ok {
		return
	}
	t := nc.node.Pkg.Info.TypeOf(lhs)
	if p.field == nil {
		killFields(p.base)
		if t != nil && trackedNilPtr(t) {
			set(p, f)
		} else {
			set(p, nilUnknown)
		}
		return
	}
	if t != nil && trackedNilPtr(t) {
		set(p, f)
	}
}

// refineEdge narrows facts along the true/false edges of nil checks,
// including through &&, || and ! composition.
func (nc *nilChargeFunc) refineEdge(cond ast.Expr, branch bool, fact any) any {
	out := factEdit[nilPath, nilFact]{m: fact.(nilFacts)}
	set := out.set
	var walk func(e ast.Expr, b bool)
	walk = func(e ast.Expr, b bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.UnaryExpr:
			if e.Op == token.NOT {
				walk(e.X, !b)
			}
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LAND:
				if b {
					walk(e.X, true)
					walk(e.Y, true)
				}
			case token.LOR:
				if !b {
					walk(e.X, false)
					walk(e.Y, false)
				}
			case token.EQL, token.NEQ:
				x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
				var pathExpr ast.Expr
				if isNilIdent(y) {
					pathExpr = x
				} else if isNilIdent(x) {
					pathExpr = y
				} else {
					return
				}
				p, ok := nc.pathOf(pathExpr)
				if !ok {
					return
				}
				t := nc.node.Pkg.Info.TypeOf(pathExpr)
				if t == nil || !trackedNilPtr(t) {
					return
				}
				isNil := (e.Op == token.EQL) == b
				if isNil {
					set(p, nilIsNil)
				} else {
					set(p, nilNonNil)
				}
			}
		}
	}
	walk(cond, branch)
	return out.m
}

// reportSinks flags the two sinks under the incoming facts: method calls
// on a possibly-nil receiver of a non-nil-safe method, and store-I/O
// account arguments outside aggregate-charging frames.
func (nc *nilChargeFunc) reportSinks(n ast.Node, facts nilFacts) {
	info := nc.node.Pkg.Info
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
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
		mfn, ok := s.Obj().(*types.Func)
		if !ok {
			return true
		}
		// Sink 1: method call on a possibly-nil tracked receiver.
		if trackedNilPtr(s.Recv()) || trackedNilPtrElem(s.Recv()) {
			key := FuncKey(mfn)
			if !nc.safe[key] {
				if f := nc.exprFact(sel.X, facts); f == nilIsNil || f == nilMaybe {
					nc.pass.ReportAttributed(call.Pos(), nc.key, nil,
						"%s called on %s %s receiver; guard the path with a nil check (nilcharge)",
						mfn.Name(), nilFactName(f), typeShort(s.Recv()))
				}
			}
		}
		// Sink 2: store I/O with a nil or possibly-nil account argument.
		if storeIOMethods[mfn.Name()] && isNamedFromPkg(s.Recv(), "Store", "simio") && !framecharges(nc.node) {
			sig, ok := mfn.Type().(*types.Signature)
			if !ok {
				return true
			}
			for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
				if !trackedNilPtr(sig.Params().At(i).Type()) {
					continue
				}
				if isNilIdent(call.Args[i]) {
					if nc.requestPath != nil {
						nc.pass.ReportAttributed(call.Pos(), nc.key, nc.requestPath,
							"uncharged simio I/O on a request path: Store.%s called with a nil *vclock.Account in %s (reachable from %s); pass the account or aggregate-charge in this frame",
							mfn.Name(), ShortKey(nc.key), ShortKey(nc.requestPath[0]))
					}
				} else if f := nc.exprFact(call.Args[i], facts); f == nilIsNil || f == nilMaybe {
					nc.pass.ReportAttributed(call.Args[i].Pos(), nc.key, nil,
						"%s account argument to %s; guard the path or pass a literal nil for unaccounted I/O (nilcharge)",
						nilFactName(f), mfn.Name())
				}
			}
		}
		return true
	})
}

// trackedNilPtrElem also accepts the bare named type (method sets of
// *T include value-receiver methods looked up through T).
func trackedNilPtrElem(t types.Type) bool {
	return isNamedFromPkg(t, "Account", "vclock") || isNamedFromPkg(t, "Token", "sched")
}

func nilFactName(f nilFact) string {
	switch f {
	case nilIsNil:
		return "nil"
	case nilMaybe:
		return "possibly-nil"
	}
	return "unknown"
}

func typeShort(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		if n.Obj().Pkg() != nil {
			return path.Base(n.Obj().Pkg().Path()) + "." + n.Obj().Name()
		}
		return n.Obj().Name()
	}
	return t.String()
}
