package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireSymmetryAnalyzer checks that every protocol encode/decode pair
// round-trips the same struct fields in the same order. The global
// mergeable histogram (and every Fig. 8-13 number derived from region
// stats) is only exact if stats survive the wire intact; a field added
// to Encode but not Decode — or emitted in a different order than it is
// parsed — silently corrupts downstream results instead of failing.
//
// Pair discovery (per package, by the repo's naming conventions):
//
//   - a method Encode/encode on struct T pairs with package function
//     DecodeT/decodeT, or with Decode/decode returning T;
//   - package functions encodeX/EncodeX pair with decodeX/DecodeX; the
//     subject struct is the first parameter whose type unwraps to a
//     named struct that the decoder also mentions.
//
// The encode side contributes the ordered set of subject fields it
// READS (a read inside len()/cap() counts toward the set but not the
// order: length prefixes are legitimately emitted before the payload).
// The decode side contributes the ordered set of subject fields it
// WRITES (assignments, composite literals, indexed stores, &field
// out-params). Same-package helper calls are inlined transitively so
// delegation (Encode -> encode -> encodeCost) is followed. Fields of
// sync.* type are ignored; pairs where either side touches no fields
// (cross-package delegation) are skipped.
var WireSymmetryAnalyzer = &Analyzer{
	Name: "wiresymmetry",
	Doc:  "protocol encode/decode pairs must read/write the same struct fields in the same order",
	Run:  runWireSymmetry,
}

const (
	wireEncode = iota
	wireDecode
)

func runWireSymmetry(pass *Pass) error {
	// Index package-level declarations.
	funcs := make(map[string]*ast.FuncDecl)       // package functions by name
	local := make(map[types.Object]*ast.FuncDecl) // every decl, for inlining
	methods := make(map[*types.TypeName]map[string]*ast.FuncDecl)
	var typeNames []*types.TypeName
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, ok := pass.Info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				local[obj] = d
				sig := obj.Type().(*types.Signature)
				if sig.Recv() == nil {
					funcs[d.Name.Name] = d
					continue
				}
				rt := sig.Recv().Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				if n, ok := rt.(*types.Named); ok {
					tn := n.Obj()
					if methods[tn] == nil {
						methods[tn] = make(map[string]*ast.FuncDecl)
					}
					methods[tn][d.Name.Name] = d
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if tn, ok := pass.Info.Defs[ts.Name].(*types.TypeName); ok {
						if _, isStruct := tn.Type().Underlying().(*types.Struct); isStruct {
							typeNames = append(typeNames, tn)
						}
					}
				}
			}
		}
	}

	type pair struct {
		subject  *types.TypeName
		enc, dec *ast.FuncDecl
	}
	var pairs []pair
	seen := make(map[[2]*ast.FuncDecl]bool)
	addPair := func(tn *types.TypeName, enc, dec *ast.FuncDecl) {
		k := [2]*ast.FuncDecl{enc, dec}
		if !seen[k] {
			seen[k] = true
			pairs = append(pairs, pair{tn, enc, dec})
		}
	}

	// Method pairs: (T).Encode with DecodeT / Decode-returning-T.
	for _, tn := range typeNames {
		enc := methods[tn]["Encode"]
		if enc == nil {
			enc = methods[tn]["encode"]
		}
		if enc == nil {
			continue
		}
		var dec *ast.FuncDecl
		for _, name := range []string{"Decode" + tn.Name(), "decode" + tn.Name(), "Decode", "decode"} {
			if fd := funcs[name]; fd != nil && funcMentions(pass, fd, tn) {
				dec = fd
				break
			}
		}
		if dec != nil {
			addPair(tn, enc, dec)
		}
	}

	// Free-function pairs: encodeX/decodeX over a shared subject struct.
	for name, enc := range funcs {
		var suffix string
		switch {
		case strings.HasPrefix(name, "Encode") && len(name) > len("Encode"):
			suffix = name[len("Encode"):]
		case strings.HasPrefix(name, "encode") && len(name) > len("encode"):
			suffix = name[len("encode"):]
		default:
			continue
		}
		var dec *ast.FuncDecl
		for _, dn := range []string{"Decode" + suffix, "decode" + suffix} {
			if fd := funcs[dn]; fd != nil {
				dec = fd
				break
			}
		}
		if dec == nil {
			continue
		}
		tn := firstStructParam(pass, enc)
		if tn == nil || !funcMentions(pass, dec, tn) {
			continue
		}
		addPair(tn, enc, dec)
	}

	for _, p := range pairs {
		checkWirePair(pass, p.subject, p.enc, p.dec, local)
	}
	return nil
}

// funcMentions reports whether tn appears (possibly behind pointers or
// slices) in fd's parameter or result types.
func funcMentions(pass *Pass, fd *ast.FuncDecl, tn *types.TypeName) bool {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	check := func(tup *types.Tuple) bool {
		for i := 0; i < tup.Len(); i++ {
			if unwrapToTypeName(tup.At(i).Type()) == tn {
				return true
			}
		}
		return false
	}
	return check(sig.Params()) || check(sig.Results())
}

// firstStructParam returns the TypeName of the first parameter that
// unwraps to a named struct, or nil.
func firstStructParam(pass *Pass, fd *ast.FuncDecl) *types.TypeName {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	params := obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if tn := unwrapToTypeName(params.At(i).Type()); tn != nil {
			if _, isStruct := tn.Type().Underlying().(*types.Struct); isStruct {
				return tn
			}
		}
	}
	return nil
}

// unwrapToTypeName strips pointers and slices down to a named type.
func unwrapToTypeName(t types.Type) *types.TypeName {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Named:
			return u.Obj()
		default:
			return nil
		}
	}
}

// fieldEvent is one touch of a subject field.
type fieldEvent struct {
	name string
	pos  token.Pos
	weak bool // inside len()/cap(): counts for the set, not the order
}

// fieldSeq is the distilled per-side result.
type fieldSeq struct {
	set         map[string]bool
	orderAll    []string // first occurrence, strong or weak
	orderStrong []string // first strong occurrence
	firstPos    map[string]token.Pos
}

func buildSeq(events []fieldEvent) fieldSeq {
	s := fieldSeq{set: make(map[string]bool), firstPos: make(map[string]token.Pos)}
	strong := make(map[string]bool)
	for _, e := range events {
		if !s.set[e.name] {
			s.set[e.name] = true
			s.orderAll = append(s.orderAll, e.name)
			s.firstPos[e.name] = e.pos
		}
		if !e.weak && !strong[e.name] {
			strong[e.name] = true
			s.orderStrong = append(s.orderStrong, e.name)
		}
	}
	return s
}

func checkWirePair(pass *Pass, tn *types.TypeName, enc, dec *ast.FuncDecl, local map[types.Object]*ast.FuncDecl) {
	encSeq := buildSeq(collectFieldEvents(pass, tn, enc, wireEncode, local))
	decSeq := buildSeq(collectFieldEvents(pass, tn, dec, wireDecode, local))
	if len(encSeq.set) == 0 || len(decSeq.set) == 0 {
		// One side delegates out of the package; nothing comparable.
		return
	}
	encName := funcDisplayName(tn, enc)
	decName := funcDisplayName(tn, dec)
	for _, name := range encSeq.orderAll {
		if !decSeq.set[name] {
			pass.Reportf(encSeq.firstPos[name],
				"wire asymmetry: field %s.%s is encoded by %s but never populated by %s",
				tn.Name(), name, encName, decName)
		}
	}
	for _, name := range decSeq.orderAll {
		if !encSeq.set[name] {
			pass.Reportf(decSeq.firstPos[name],
				"wire asymmetry: field %s.%s is populated by %s but never encoded by %s",
				tn.Name(), name, decName, encName)
		}
	}
	// Order check over fields strongly ordered on both sides.
	common := make(map[string]bool)
	for _, n := range encSeq.orderStrong {
		common[n] = true
	}
	var eo, do []string
	for _, n := range encSeq.orderStrong {
		if decSeq.set[n] && contains(decSeq.orderStrong, n) {
			eo = append(eo, n)
		}
	}
	for _, n := range decSeq.orderStrong {
		if common[n] {
			do = append(do, n)
		}
	}
	if len(eo) == len(do) {
		for i := range eo {
			if eo[i] != do[i] {
				pass.Reportf(enc.Name.Pos(),
					"wire order mismatch for %s: %s emits fields [%s] but %s populates [%s]",
					tn.Name(), encName, strings.Join(eo, " "), decName, strings.Join(do, " "))
				break
			}
		}
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func funcDisplayName(tn *types.TypeName, fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return fmt.Sprintf("(%s).%s", tn.Name(), fd.Name.Name)
	}
	return fd.Name.Name
}

// bodyMarks precomputes, per function body, which selector expressions
// are assignment targets and which sit inside len()/cap().
type bodyMarks struct {
	writes map[*ast.SelectorExpr]bool
	weak   map[*ast.SelectorExpr]bool
}

func computeMarks(pass *Pass, body *ast.BlockStmt) *bodyMarks {
	m := &bodyMarks{writes: make(map[*ast.SelectorExpr]bool), weak: make(map[*ast.SelectorExpr]bool)}
	var markWrite func(e ast.Expr)
	markWrite = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			m.writes[x] = true
		case *ast.IndexExpr:
			markWrite(x.X)
		case *ast.StarExpr:
			markWrite(x.X)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(x.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
					for _, arg := range x.Args {
						ast.Inspect(arg, func(a ast.Node) bool {
							if sel, ok := a.(*ast.SelectorExpr); ok {
								m.weak[sel] = true
							}
							return true
						})
					}
				}
			}
			// &x.F passed to a helper is an out-param write.
			for _, arg := range x.Args {
				if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
					markWrite(u.X)
				}
			}
		}
		return true
	})
	return m
}

// collectFieldEvents walks fd's body in source order, recording subject
// field reads (encode) or writes (decode) and transitively inlining
// same-package callees.
func collectFieldEvents(pass *Pass, tn *types.TypeName, fd *ast.FuncDecl, mode int, local map[types.Object]*ast.FuncDecl) []fieldEvent {
	w := &wireWalker{
		pass: pass, subject: tn, mode: mode, local: local,
		visiting: make(map[*ast.FuncDecl]bool),
		marks:    make(map[*ast.BlockStmt]*bodyMarks),
	}
	w.collect(fd)
	return w.events
}

type wireWalker struct {
	pass     *Pass
	subject  *types.TypeName
	mode     int
	local    map[types.Object]*ast.FuncDecl
	visiting map[*ast.FuncDecl]bool
	depth    int
	events   []fieldEvent
	marks    map[*ast.BlockStmt]*bodyMarks
}

func (w *wireWalker) collect(fd *ast.FuncDecl) {
	if fd.Body == nil || w.visiting[fd] || w.depth > 12 {
		return
	}
	w.visiting[fd] = true
	w.depth++
	defer func() { w.visiting[fd] = false; w.depth-- }()

	marks := w.marks[fd.Body]
	if marks == nil {
		marks = computeMarks(w.pass, fd.Body)
		w.marks[fd.Body] = marks
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if callee := w.resolveLocal(x); callee != nil {
				w.collect(callee)
			}
		case *ast.SelectorExpr:
			w.selectorEvent(x, marks)
		case *ast.CompositeLit:
			if w.mode == wireDecode {
				w.compositeEvents(x)
			}
		}
		return true
	})
}

// resolveLocal returns the same-package declaration a call resolves to.
func (w *wireWalker) resolveLocal(call *ast.CallExpr) *ast.FuncDecl {
	switch fe := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := w.pass.Info.Uses[fe].(*types.Func); ok {
			return w.local[fn]
		}
	case *ast.SelectorExpr:
		if s := w.pass.Info.Selections[fe]; s != nil && (s.Kind() == types.MethodVal || s.Kind() == types.MethodExpr) {
			return w.local[s.Obj()]
		}
		if fn, ok := w.pass.Info.Uses[fe.Sel].(*types.Func); ok {
			return w.local[fn]
		}
	}
	return nil
}

func (w *wireWalker) selectorEvent(sel *ast.SelectorExpr, marks *bodyMarks) {
	s := w.pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	if unwrapToTypeName(w.pass.Info.Types[sel.X].Type) != w.subject {
		return
	}
	field, ok := s.Obj().(*types.Var)
	if !ok || namedFromPkg(field.Type(), "sync") {
		return // mutexes et al are not wire data
	}
	switch w.mode {
	case wireEncode:
		if !marks.writes[sel] {
			w.events = append(w.events, fieldEvent{field.Name(), sel.Pos(), marks.weak[sel]})
		}
	case wireDecode:
		if marks.writes[sel] {
			w.events = append(w.events, fieldEvent{field.Name(), sel.Pos(), false})
		}
	}
}

func (w *wireWalker) compositeEvents(cl *ast.CompositeLit) {
	tv, ok := w.pass.Info.Types[ast.Expr(cl)]
	if !ok || unwrapToTypeName(tv.Type) != w.subject {
		return
	}
	st, ok := w.subject.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				w.events = append(w.events, fieldEvent{id.Name, kv.Pos(), false})
			}
		} else if i < st.NumFields() {
			w.events = append(w.events, fieldEvent{st.Field(i).Name(), elt.Pos(), false})
		}
	}
}
