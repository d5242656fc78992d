package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// LockSetAnalyzer is the one mutex analysis. For every function body
// (declared functions and function literals alike) it solves, on the
// CFG, the set of locks that may be held at each program point, and
// three rules read that one set:
//
//   - order: acquiring B while A may be held adds the edge A -> B to a
//     global acquisition-order graph; calling a function that
//     (transitively, via the call graph) acquires B while A may be held
//     adds the same edge. Any cycle — including a self-edge, i.e.
//     re-acquiring a held lock — is a potential deadlock and is reported
//     at every acquisition site on it. Two goroutines taking the same
//     pair of locks in opposite orders is the classic cross-server
//     deadlock the race detector only catches if a test happens to
//     interleave just so.
//   - hold: no simio storage I/O, transport send, or blocking channel
//     send while a lock may be held, directly or through a callee. Such
//     calls under a mutex serialize the very work the parallel query
//     service exists to overlap, and a blocking send under a lock is a
//     deadlock seed (the receiver may need the same lock to drain). A
//     send in a `select` with a `default` clause cannot block and is
//     exempt. The simio and transport packages are exempt from this rule
//     only: they are the I/O layer and hold their own mutexes while
//     moving bytes; holding an engine or server lock across them is the
//     defect.
//   - guard: in a struct that declares a sync.Mutex / sync.RWMutex
//     field, every field declared AFTER the mutex is guarded by it, and a
//     method may touch one through its receiver only at a point where
//     that mutex is held. Fields declared before the mutex are
//     immutable-after-construction configuration; fields whose own type
//     comes from sync or sync/atomic synchronize themselves. A method
//     whose name ends in "Locked" is entered with the mutex held.
//
// A lock is identified by its declaration site: the struct field of
// type sync.Mutex/sync.RWMutex (one identity per field, not per
// instance), a package-level mutex var, or a struct that embeds a
// mutex. Lock/RLock acquires and Unlock/RUnlock releases;
// `defer mu.Unlock()` releases at function exit, so the lock counts as
// held for the rest of the function — exactly the hold time being
// measured. The set is a may-set: held on one in-path is held. A
// function literal runs wherever its value is called, where the held
// locks are unknown, so each literal starts from the empty set.
var LockSetAnalyzer = &Analyzer{
	Name:   "lockset",
	Doc:    "held-lock analysis: acquisition order is acyclic, no I/O or blocking send under a mutex, fields declared after a mutex are touched only with it held",
	Global: true,
	Run:    runLockSet,
}

// holdExemptSuffixes lists packages whose own locks guard the I/O being
// modeled; the hold rule applies to their callers.
var holdExemptSuffixes = []string{
	"internal/simio",
	"internal/transport",
}

type heldSet = map[string]bool

var heldLattice = MapLattice[string, bool]{JoinValue: func(a, b bool) bool { return a || b }}

// lockEdge is one "acquired while holding" observation.
type lockEdge struct {
	from, to string
	pos      token.Pos
	// via names the callee whose transitive acquisition induced the
	// edge ("" for a direct acquisition in the same function).
	via string
}

// lockCall is a call made while holding locks.
type lockCall struct {
	held   []string
	callee string
	pos    token.Pos
}

// lockSet is one run: the tables the rules read, and what the order rule
// has observed so far.
type lockSet struct {
	pass   *Pass
	sinks  map[string]string         // hold: FuncKey -> the I/O it reaches
	guards map[string]*guardedStruct // guard: "pkgpath.Type" -> its mutex and guarded fields

	acquires map[string]map[string]bool // FuncKey -> locks its bodies acquire
	edges    []lockEdge
	calls    []lockCall
}

func runLockSet(pass *Pass) error {
	g := pass.CallGraph()
	ls := &lockSet{
		pass:     pass,
		sinks:    ioReach(g),
		guards:   guardedStructs(pass.Pkgs),
		acquires: make(map[string]map[string]bool),
	}
	for _, key := range g.Keys() {
		ls.checkFunc(g.Nodes[key])
	}
	ls.reportCycles(g)
	return nil
}

// lockSetFunc is the analysis of one declared function and the literals
// inside it.
type lockSetFunc struct {
	*lockSet
	node     *CallNode
	holdRule bool
	// guard is the receiver's struct and recv the receiver variable when
	// the function is a method of a guarded struct.
	guard    *guardedStruct
	recv     types.Object
	nonblock map[ast.Node]bool
}

func (ls *lockSet) checkFunc(n *CallNode) {
	lf := &lockSetFunc{lockSet: ls, node: n, holdRule: true}
	for _, sfx := range holdExemptSuffixes {
		if pkgPathHasSuffix(n.Pkg.PkgPath, sfx) {
			lf.holdRule = false
		}
	}
	entry := heldSet{}
	if r := n.Decl.Recv; r != nil && len(r.List) == 1 && len(r.List[0].Names) == 1 {
		rk, _ := recvKey(n.Fn.Type().(*types.Signature).Recv().Type())
		if recv := n.Pkg.Info.Defs[r.List[0].Names[0]]; recv != nil && ls.guards[rk] != nil {
			lf.guard, lf.recv = ls.guards[rk], recv
			if strings.HasSuffix(n.Fn.Name(), "Locked") {
				entry[lf.guard.lock] = true // caller-holds-lock convention
			}
		}
	}
	for _, b := range ls.pass.bodies(n.Key) {
		if b.Lit != nil {
			entry = heldSet{}
		}
		lf.nonblock = b.CFG.NonBlock
		res := b.CFG.ForwardFlow(heldLattice, entry, func(n ast.Node, f any) any {
			return lf.step(n, f.(heldSet), false)
		}, nil)
		res.Sweep(func(n ast.Node, f any) any {
			return lf.step(n, f.(heldSet), true)
		})
	}
}

// step is the transfer function — Lock/Unlock update the held set — and,
// with report set, the point where all three rules look at it.
func (lf *lockSetFunc) step(n ast.Node, in heldSet, report bool) heldSet {
	info := lf.node.Pkg.Info
	held := factEdit[string, bool]{m: in}
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock releases at exit, not here. Any other
			// deferred call counts as made here: its arguments are
			// evaluated here, and it runs before the unlocks deferred
			// ahead of it, i.e. under the locks held now.
			_, _, isMutexOp := mutexOp(info, lf.node, m.Call)
			return !isMutexOp
		case *ast.SendStmt:
			// A bare send blocks until a receiver is ready; a send under
			// a select with default cannot block.
			if report && !lf.nonblock[m] {
				lf.reportHold(m.Pos(), "channel send", held.m)
			}
		case *ast.SelectorExpr:
			if report {
				lf.checkGuard(m, held.m)
			}
		case *ast.CallExpr:
			if lock, op, ok := mutexOp(info, lf.node, m); ok {
				acquire := op == "Lock" || op == "RLock"
				if acquire && report {
					lf.noteAcquire(lock, m.Pos(), held.m)
				}
				held.set(lock, acquire)
			} else if report && len(held.m) > 0 {
				lf.checkCall(m, held.m)
			}
		}
		return true
	})
	return held.m
}

func sortedLocks(held heldSet) []string {
	locks := make([]string, 0, len(held))
	for l := range held {
		locks = append(locks, l)
	}
	sort.Strings(locks)
	return locks
}

// --- order --------------------------------------------------------------

func (lf *lockSetFunc) noteAcquire(lock string, pos token.Pos, held heldSet) {
	if lf.acquires[lf.node.Key] == nil {
		lf.acquires[lf.node.Key] = make(map[string]bool)
	}
	lf.acquires[lf.node.Key][lock] = true
	for _, h := range sortedLocks(held) {
		lf.edges = append(lf.edges, lockEdge{from: h, to: lock, pos: pos})
	}
}

// checkCall looks at a plain call made with locks held: the order rule
// remembers it for the transitive pass, the hold rule asks whether it
// is, or reaches, I/O.
func (lf *lockSetFunc) checkCall(call *ast.CallExpr, held heldSet) {
	info := lf.node.Pkg.Info
	callee := resolveCalleeKey(info, call)
	if callee != "" {
		lf.calls = append(lf.calls, lockCall{held: sortedLocks(held), callee: callee, pos: call.Pos()})
	}
	if d := directSinkCall(info, call); d != "" {
		lf.reportHold(call.Pos(), d, held)
	} else if d, ok := lf.sinks[callee]; ok && callee != lf.node.Key {
		lf.reportHold(call.Pos(), d+" via "+ShortKey(callee), held)
	}
}

// reportCycles closes the acquisition sets over the call graph, turns
// every held-across-call observation into edges, and reports the edges
// that lie on a cycle of the lock graph.
func (ls *lockSet) reportCycles(g *CallGraph) {
	// Transitive acquisition sets: fixpoint over the call graph.
	acq := ls.acquires
	keys := g.Keys()
	for changed := true; changed; {
		changed = false
		for _, key := range keys {
			for _, e := range g.Nodes[key].Out {
				for lock := range acq[e.CalleeKey] {
					if !acq[key][lock] {
						if acq[key] == nil {
							acq[key] = make(map[string]bool)
						}
						acq[key][lock] = true
						changed = true
					}
				}
			}
		}
	}

	edges := ls.edges
	for _, c := range ls.calls {
		for _, lock := range sortedLocks(acq[c.callee]) {
			for _, h := range c.held {
				edges = append(edges, lockEdge{from: h, to: lock, pos: c.pos, via: c.callee})
			}
		}
	}

	// Strongly connected components of the lock graph: any SCC with more
	// than one lock, or a self-edge, is a potential deadlock.
	adj := make(map[string]map[string]bool)
	lockSeen := make(map[string]bool)
	for _, e := range edges {
		lockSeen[e.from], lockSeen[e.to] = true, true
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]bool)
		}
		adj[e.from][e.to] = true
	}
	locks := sortedLocks(lockSeen)
	comp := sccLocks(locks, adj)
	members := make(map[int][]string)
	for _, l := range locks {
		members[comp[l]] = append(members[comp[l]], l)
	}

	sort.SliceStable(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })
	type site struct {
		from, to string
		pos      token.Pos
	}
	reported := make(map[site]bool)
	for _, e := range edges {
		s := site{e.from, e.to, e.pos}
		if comp[e.from] != comp[e.to] || reported[s] {
			continue
		}
		reported[s] = true
		via := ""
		if e.via != "" {
			via = " via " + ShortKey(e.via)
		}
		if e.from == e.to {
			ls.pass.Reportf(e.pos, "lock order cycle: %s acquired%s while already held (self-deadlock)",
				e.from, via)
		} else {
			ls.pass.Reportf(e.pos, "lock order cycle: %s acquired%s while holding %s (cycle: %s)",
				e.to, via, e.from, strings.Join(members[comp[e.from]], " <-> "))
		}
	}
}

// sccLocks is Tarjan's algorithm over the lock graph.
func sccLocks(nodes []string, adj map[string]map[string]bool) map[string]int {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	next, nComp := 0, 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedLocks(adj[v]) {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = nComp
				if w == v {
					break
				}
			}
			nComp++
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}
	return comp
}

// --- hold ---------------------------------------------------------------

func (lf *lockSetFunc) reportHold(pos token.Pos, what string, held heldSet) {
	if !lf.holdRule || len(held) == 0 {
		return
	}
	lf.pass.ReportAttributed(pos, lf.node.Key, nil,
		"%s while holding %s; release the lock before I/O or sends",
		what, strings.Join(sortedLocks(held), ", "))
}

// ioReach maps every function that performs storage I/O or a transport
// send, directly or through its callees, to a description of one such
// sink.
func ioReach(g *CallGraph) map[string]string {
	reach := make(map[string]string)
	for _, key := range g.Keys() {
		n := g.Nodes[key]
		if n.Decl.Body == nil {
			continue
		}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			if _, seen := reach[key]; seen {
				return false
			}
			if call, ok := node.(*ast.CallExpr); ok {
				if d := directSinkCall(n.Pkg.Info, call); d != "" {
					reach[key] = d
				}
			}
			return true
		})
	}
	// Propagate up the call graph to a fixpoint. Static edges only:
	// name-based dynamic dispatch would pull every `Write`-shaped
	// interface into the storage sink set.
	for changed := true; changed; {
		changed = false
		for _, key := range g.Keys() {
			if _, ok := reach[key]; ok {
				continue
			}
			for _, e := range g.Nodes[key].Out {
				if e.Dynamic {
					continue
				}
				if d, ok := reach[e.CalleeKey]; ok {
					reach[key] = d + " via " + ShortKey(e.CalleeKey)
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// directSinkCall reports a human-readable description when call is a
// direct sink: simio storage I/O or a transport send.
func directSinkCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return ""
	}
	m, ok := s.Obj().(*types.Func)
	if !ok {
		return ""
	}
	if storeIOMethods[m.Name()] && isNamedFromPkg(s.Recv(), "Store", "simio") {
		return "storage " + m.Name()
	}
	// Any named receiver from transport, struct or interface.
	if n := namedType(s.Recv()); m.Name() == "Send" && n != nil && pkgPathHasSuffix(n.Obj().Pkg().Path(), "transport") {
		return "transport Send"
	}
	return ""
}

// --- guard --------------------------------------------------------------

// guardedStruct records one struct type with a mutex field.
type guardedStruct struct {
	typeName string
	mutex    string          // mutex field name, e.g. "mu"
	lock     string          // the mutex as lockIdent names it in a held set
	guarded  map[string]bool // fields declared after the mutex
}

// guardedStructs indexes every struct with a named mutex field and at
// least one guarded field after it, keyed like recvKey.
func guardedStructs(pkgs []*Package) map[string]*guardedStruct {
	out := make(map[string]*guardedStruct)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					var gs *guardedStruct
					for _, field := range st.Fields.List {
						t := pkg.Info.TypeOf(field.Type)
						switch {
						case gs == nil && len(field.Names) == 1 && isMutexType(t):
							gs = &guardedStruct{
								typeName: ts.Name.Name,
								mutex:    field.Names[0].Name,
								lock:     path.Base(pkg.PkgPath) + "." + ts.Name.Name + "." + field.Names[0].Name,
								guarded:  make(map[string]bool),
							}
						case gs != nil && !namedFromPkg(t, "sync", "sync/atomic"):
							for _, n := range field.Names {
								gs.guarded[n.Name] = true
							}
						}
					}
					if gs != nil && len(gs.guarded) > 0 {
						out[pkg.PkgPath+"."+ts.Name.Name] = gs
					}
				}
			}
		}
	}
	return out
}

// checkGuard flags a guarded field touched through the receiver at a
// point where the receiver's mutex is not held. It is a convention
// check, not a race detector — go test -race is the backstop.
func (lf *lockSetFunc) checkGuard(sel *ast.SelectorExpr, held heldSet) {
	gs := lf.guard
	if gs == nil || !gs.guarded[sel.Sel.Name] || held[gs.lock] {
		return
	}
	if id, ok := sel.X.(*ast.Ident); !ok || lf.node.Pkg.Info.Uses[id] != lf.recv {
		return
	}
	lf.pass.ReportAttributed(sel.Pos(), lf.node.Key, nil,
		"%s.%s is guarded by %q (declared after it) but method %s touches it without holding the lock",
		gs.typeName, sel.Sel.Name, gs.mutex, lf.node.Fn.Name())
}

// --- naming locks -------------------------------------------------------

// mutexOp recognizes Lock/RLock/Unlock/RUnlock calls and names the lock
// they operate on. It returns ok=false for any other call.
func mutexOp(info *types.Info, n *CallNode, call *ast.CallExpr) (lock, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	s := info.Selections[sel]
	var m *types.Func
	if s != nil && s.Kind() == types.MethodVal {
		m, _ = s.Obj().(*types.Func)
	} else if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		m = fn
	}
	if m == nil || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return "", "", false
	}
	lock = lockIdent(info, n, sel.X)
	if lock == "" {
		return "", "", false
	}
	return lock, name, true
}

// lockIdent names the mutex behind the receiver expression of a
// Lock/Unlock call: "pkg.Type.field" for mutex struct fields,
// "pkg.var" for package-level mutexes, "pkg.Type.(embedded)" for
// embedded mutexes, and a function-scoped name for local mutex vars.
func lockIdent(info *types.Info, n *CallNode, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		s := info.Selections[x]
		if s == nil || s.Kind() != types.FieldVal {
			// Qualified package-level var: pkg.Mu.
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
				return path.Base(v.Pkg().Path()) + "." + v.Name()
			}
			return ""
		}
		field, ok := s.Obj().(*types.Var)
		if !ok {
			return ""
		}
		base := info.Types[x.X].Type
		if p, okp := base.(*types.Pointer); okp {
			base = p.Elem()
		}
		if named, okn := base.(*types.Named); okn && named.Obj().Pkg() != nil {
			return path.Base(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + field.Name()
		}
		return ""
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return path.Base(v.Pkg().Path()) + "." + v.Name()
		}
		// Local or receiver mutex value: if the ident's type embeds the
		// mutex (method promoted onto a named type), name the type.
		t := v.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && !isMutexType(named) {
			return path.Base(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + ".(embedded)"
		}
		// A bare local sync.Mutex: scope it to the function.
		return n.Key + ".local." + v.Name()
	}
	return ""
}

func isMutexType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}
