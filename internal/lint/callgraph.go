package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is a static, whole-repo call graph over type-checked ASTs.
//
// Each loaded package is type-checked from source against the *export
// data* of its imports, so a function seen from its defining package and
// the same function seen through an import are distinct types.Object
// values. Nodes are therefore keyed by a stable string (FuncKey:
// "pkgpath.Func" or "pkgpath.Recv.Method") that is identical in both
// views, which is what makes cross-package edges line up.
//
// Resolution rules:
//
//   - direct calls to package-level functions and concrete methods
//     produce direct edges;
//   - calls through an interface produce dynamic edges to every in-repo
//     type whose declared method-name set covers the interface (a
//     name-based implements check — identity-based types.Implements
//     cannot work across the source/export-data split);
//   - a function or method referenced as a value (method value, func
//     passed as callback) produces a dynamic edge from the referencing
//     function, since the referee may run wherever the value flows;
//   - calls inside func literals are attributed to the enclosing
//     declared function.
//
// The graph over-approximates (extra edges, never missing direct ones),
// which is the safe direction for the reachability-style analyzers
// built on it.
type CallGraph struct {
	// Nodes maps FuncKey -> node for every function/method declared in
	// the loaded packages.
	Nodes map[string]*CallNode

	keys []string // sorted node keys, for deterministic iteration
}

// CallNode is one declared function or method.
type CallNode struct {
	Key  string
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out lists call edges in source order (dynamic interface-dispatch
	// edges follow the direct edges, sorted by callee key).
	Out []CallEdge
}

// CallEdge is one resolved call site (or value reference).
type CallEdge struct {
	CalleeKey string
	Pos       token.Pos
	// Dynamic marks interface-dispatch resolutions and function/method
	// values referenced outside call position.
	Dynamic bool
}

// FuncKey returns the stable cross-package key for fn.
func FuncKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pkg + "." + n.Obj().Name() + "." + fn.Name()
		}
		return pkg + ".(recv)." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// ifaceCall records an unresolved interface-method call for phase 3.
type ifaceCall struct {
	caller *CallNode
	iface  *types.Interface
	method string
	pos    token.Pos
}

// NewCallGraph indexes every FuncDecl in pkgs and resolves call sites.
func NewCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[string]*CallNode)}

	// methodsByRecv: "pkgpath.Type" -> method name -> FuncKey, used for
	// the name-based implements check.
	methodsByRecv := make(map[string]map[string]string)

	// Phase 1: index declarations.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := FuncKey(fn)
				node := &CallNode{Key: key, Fn: fn, Decl: fd, Pkg: pkg}
				g.Nodes[key] = node
				if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
					if rk, ok := recvKey(sig.Recv().Type()); ok {
						if methodsByRecv[rk] == nil {
							methodsByRecv[rk] = make(map[string]string)
						}
						methodsByRecv[rk][fn.Name()] = key
					}
				}
			}
		}
	}

	// Phase 2: resolve call sites and value references.
	var ifaceCalls []ifaceCall
	for _, pkg := range pkgs {
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
				node := g.Nodes[FuncKey(fn)]
				ifaceCalls = append(ifaceCalls, resolveBody(node, pkg)...)
			}
		}
	}

	// Phase 3: resolve interface calls to in-repo implementers whose
	// declared method names cover the interface.
	recvKeys := make([]string, 0, len(methodsByRecv))
	for rk := range methodsByRecv {
		recvKeys = append(recvKeys, rk)
	}
	sort.Strings(recvKeys)
	for _, ic := range ifaceCalls {
		var names []string
		for i := 0; i < ic.iface.NumMethods(); i++ {
			names = append(names, ic.iface.Method(i).Name())
		}
		for _, rk := range recvKeys {
			ms := methodsByRecv[rk]
			target, hasMethod := ms[ic.method]
			if !hasMethod {
				continue
			}
			covers := true
			for _, n := range names {
				if _, ok := ms[n]; !ok {
					covers = false
					break
				}
			}
			if covers {
				ic.caller.Out = append(ic.caller.Out,
					CallEdge{CalleeKey: target, Pos: ic.pos, Dynamic: true})
			}
		}
	}

	for k := range g.Nodes {
		g.keys = append(g.keys, k)
	}
	sort.Strings(g.keys)
	return g
}

// recvKey returns "pkgpath.TypeName" for a (possibly pointer) named
// receiver type.
func recvKey(t types.Type) (string, bool) {
	n := namedType(t)
	if n == nil {
		return "", false
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name(), true
}

// namedType returns the named type t is, or points to, when it is
// declared in a package (not a builtin like error); nil otherwise.
func namedType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n
	}
	return nil
}

// resolveBody walks one function body adding edges to node.Out, and
// returns the interface calls for later resolution.
func resolveBody(node *CallNode, pkg *Package) []ifaceCall {
	info := pkg.Info
	body := node.Decl.Body

	// Pre-pass: remember which expressions appear in call position and
	// which identifiers are the Sel of a selector (handled via the
	// selector, not as bare idents).
	inCallPos := make(map[ast.Expr]bool)
	selOf := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			inCallPos[ast.Unparen(x.Fun)] = true
		case *ast.SelectorExpr:
			selOf[x.Sel] = true
		}
		return true
	})

	var out []ifaceCall
	addEdge := func(fn *types.Func, pos token.Pos, dynamic bool) {
		node.Out = append(node.Out, CallEdge{CalleeKey: FuncKey(fn), Pos: pos, Dynamic: dynamic})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(x.Fun)
			switch fe := fun.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[fe].(*types.Func); ok {
					addEdge(fn, x.Pos(), false)
				}
			case *ast.SelectorExpr:
				if s := info.Selections[fe]; s != nil {
					switch s.Kind() {
					case types.MethodVal:
						m := s.Obj().(*types.Func)
						if types.IsInterface(s.Recv()) {
							out = append(out, ifaceCall{node, s.Recv().Underlying().(*types.Interface), m.Name(), x.Pos()})
						}
						// The direct edge is kept even for interface
						// calls: it hits the (node-less) interface
						// method key and is harmless, while concrete
						// methods resolve exactly.
						addEdge(m, x.Pos(), types.IsInterface(s.Recv()))
					case types.MethodExpr:
						// T.M(recv, ...) invokes M directly.
						if m, ok := s.Obj().(*types.Func); ok {
							addEdge(m, x.Pos(), false)
						}
					}
				} else if fn, ok := info.Uses[fe.Sel].(*types.Func); ok {
					// Qualified call: pkg.F(...).
					addEdge(fn, x.Pos(), false)
				}
			}
		case *ast.Ident:
			// A function referenced as a value (callback, method value
			// via qualified name): dynamic edge.
			if selOf[x] || inCallPos[x] {
				return true
			}
			if fn, ok := info.Uses[x].(*types.Func); ok {
				addEdge(fn, x.Pos(), true)
			}
		case *ast.SelectorExpr:
			if inCallPos[x] {
				return true
			}
			if s := info.Selections[x]; s != nil && (s.Kind() == types.MethodVal || s.Kind() == types.MethodExpr) {
				if m, ok := s.Obj().(*types.Func); ok {
					addEdge(m, x.Pos(), true)
				}
			} else if s == nil {
				if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
					addEdge(fn, x.Pos(), true)
				}
			}
		}
		return true
	})
	return out
}

// Node returns the node for key, or nil.
func (g *CallGraph) Node(key string) *CallNode { return g.Nodes[key] }

// Keys returns all node keys in sorted order. The slice is the
// caller's to keep: the graph is shared across analyzers in a session,
// so handing out the internal slice would let one analyzer's sort or
// filter corrupt every other's iteration order.
func (g *CallGraph) Keys() []string { return append([]string(nil), g.keys...) }

// NodeFor returns the node for a declared *types.Func, or nil.
func (g *CallGraph) NodeFor(fn *types.Func) *CallNode { return g.Nodes[FuncKey(fn)] }

// RootPaths is the one reachability walk: it maps every node reachable
// from roots to a shortest call path from the first root (in the given
// order) that reaches it, root first and the node itself last. Roots map
// to a one-element path. Whether a function is reachable is whether it
// has a path, and the root it is attributed to is path[0]; the whole
// path is the "why is this function hot" evidence attached to hotalloc
// diagnostics.
func (g *CallGraph) RootPaths(roots []string) map[string][]string {
	paths := make(map[string][]string)
	for _, r := range roots {
		if g.Nodes[r] == nil || paths[r] != nil {
			continue
		}
		paths[r] = []string{r}
		queue := []string{r}
		for len(queue) > 0 {
			k := queue[0]
			queue = queue[1:]
			for _, e := range g.Nodes[k].Out {
				c := e.CalleeKey
				if g.Nodes[c] == nil || paths[c] != nil {
					continue
				}
				paths[c] = append(paths[k][:len(paths[k]):len(paths[k])], c)
				queue = append(queue, c)
			}
		}
	}
	return paths
}

// resolveCalleeKey resolves a call expression to a FuncKey ("" if the
// callee is dynamic or out of scope).
func resolveCalleeKey(info *types.Info, call *ast.CallExpr) string {
	switch fe := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fe].(*types.Func); ok {
			return FuncKey(fn)
		}
	case *ast.SelectorExpr:
		if s := info.Selections[fe]; s != nil {
			if m, ok := s.Obj().(*types.Func); ok {
				return FuncKey(m)
			}
		} else if fn, ok := info.Uses[fe.Sel].(*types.Func); ok {
			return FuncKey(fn)
		}
	}
	return ""
}

// pkgPathHasSuffix matches a package by its last import-path element(s),
// so testdata fixtures (path "nilcharge/exec") are treated like the real
// internal/exec.
func pkgPathHasSuffix(pkgPath, last string) bool {
	return pkgPath == last || strings.HasSuffix(pkgPath, "/"+last)
}

// isNamedFromPkg reports whether t (possibly behind a pointer) is a
// named type with the given name whose package import path ends in
// pkgLast.
func isNamedFromPkg(t types.Type, name, pkgLast string) bool {
	n := namedType(t)
	return n != nil && n.Obj().Name() == name && pkgPathHasSuffix(n.Obj().Pkg().Path(), pkgLast)
}

// namedFromPkg reports whether t (possibly behind a pointer) is a named
// type declared in one of the packages with exactly these import paths.
func namedFromPkg(t types.Type, pkgPaths ...string) bool {
	n := namedType(t)
	for _, p := range pkgPaths {
		if n != nil && n.Obj().Pkg().Path() == p {
			return true
		}
	}
	return false
}

// ShortKey trims the module prefix from a FuncKey for messages:
// "pdcquery/internal/exec.Engine.Evaluate" -> "exec.Engine.Evaluate".
func ShortKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
