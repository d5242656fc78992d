package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildCFG parses a single function body and returns its CFG. src is
// the body of `func f() { ... }` unless it already starts with "func".
func buildCFG(t *testing.T, src string) *CFG {
	t.Helper()
	if !strings.HasPrefix(strings.TrimSpace(src), "func") {
		src = "func f() {\n" + src + "\n}"
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test.go", "package p\n\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return NewCFG(fd.Body)
		}
	}
	t.Fatal("no function found")
	return nil
}

// blockOf returns the unique block whose nodes mention the identifier
// name (function literal bodies excluded).
func blockOf(t *testing.T, c *CFG, name string) *Block {
	t.Helper()
	var found *Block
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			hit := false
			inspectShallow(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == name {
					hit = true
				}
				return true
			})
			if hit {
				if found != nil && found != b {
					t.Fatalf("marker %q appears in blocks %d and %d", name, found.Index, b.Index)
				}
				found = b
			}
		}
	}
	if found == nil {
		t.Fatalf("marker %q not found in any block", name)
	}
	return found
}

func canReach(from, to *Block) bool {
	seen := map[*Block]bool{}
	var dfs func(b *Block) bool
	dfs = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

func TestCFGIfElseJoins(t *testing.T) {
	c := buildCFG(t, `
	if cond {
		thenMark()
	} else {
		elseMark()
	}
	afterMark()
`)
	then := blockOf(t, c, "thenMark")
	els := blockOf(t, c, "elseMark")
	after := blockOf(t, c, "afterMark")
	if !canReach(then, after) || !canReach(els, after) {
		t.Fatal("both branches must reach the join block")
	}
	if canReach(then, els) {
		t.Fatal("then branch must not reach else branch")
	}
	head := blockOf(t, c, "cond")
	if head.Cond == nil {
		t.Fatal("if head must record its condition")
	}
	if len(head.Succs) != 2 || head.Succs[0] != then {
		t.Fatal("Succs[0] of a branch block must be the true edge")
	}
}

func TestCFGGotoIntoLoop(t *testing.T) {
	// A forward goto jumping into a loop body: the edge must land on
	// the labeled block, and the statement after the goto must be
	// unreachable from entry.
	c := buildCFG(t, `
	goto Inside
	deadMark()
	for i := 0; i < 10; i++ {
		preMark()
	Inside:
		insideMark()
	}
	afterMark()
`)
	inside := blockOf(t, c, "insideMark")
	dead := blockOf(t, c, "deadMark")
	if !canReach(c.Entry, inside) {
		t.Fatal("goto target inside loop must be reachable from entry")
	}
	if canReach(c.Entry, dead) {
		t.Fatal("statement after goto must be unreachable")
	}
	// The loop still cycles: insideMark reaches preMark via the post/head.
	pre := blockOf(t, c, "preMark")
	if !canReach(inside, pre) {
		t.Fatal("loop must still cycle through the labeled block")
	}
}

func TestCFGGotoOutOfLoop(t *testing.T) {
	c := buildCFG(t, `
	for {
		bodyMark()
		goto Out
		deadMark()
	}
	unreachableAfterLoop()
Out:
	outMark()
`)
	body := blockOf(t, c, "bodyMark")
	out := blockOf(t, c, "outMark")
	dead := blockOf(t, c, "deadMark")
	if !canReach(body, out) {
		t.Fatal("goto must escape the loop to the labeled block")
	}
	if canReach(c.Entry, dead) {
		t.Fatal("statements after goto are unreachable")
	}
	// for {} has no false edge; only the goto escapes.
	afterLoop := blockOf(t, c, "unreachableAfterLoop")
	if canReach(c.Entry, afterLoop) {
		t.Fatal("infinite loop only exits via goto; after-loop stmt unreachable")
	}
	if !canReach(c.Entry, c.Exit) {
		t.Fatal("exit reachable via goto target")
	}
}

func TestCFGLabeledBreakContinueNestedSelect(t *testing.T) {
	c := buildCFG(t, `
Outer:
	for {
		loopTop()
		select {
		case <-ch1:
			breakCaseMark()
			break Outer
		case <-ch2:
			continueCaseMark()
			continue Outer
		case <-ch3:
			plainBreakMark()
			break
		}
		afterSelect()
	}
	afterLoop()
`)
	brk := blockOf(t, c, "breakCaseMark")
	cont := blockOf(t, c, "continueCaseMark")
	plain := blockOf(t, c, "plainBreakMark")
	afterSel := blockOf(t, c, "afterSelect")
	afterLoop := blockOf(t, c, "afterLoop")
	top := blockOf(t, c, "loopTop")

	if !canReach(brk, afterLoop) {
		t.Fatal("break Outer must reach the block after the loop")
	}
	if canReach(brk, afterSel) {
		t.Fatal("break Outer must not fall through to the statement after select")
	}
	if !canReach(cont, top) {
		t.Fatal("continue Outer must loop back to the loop head")
	}
	// continue loops back through the head, so afterSelect stays
	// transitively reachable — what must not exist is a direct
	// fall-through edge from the continue case.
	if hasEdge(cont, afterSel) {
		t.Fatal("continue Outer must not fall through to the statement after select")
	}
	if !canReach(plain, afterSel) {
		t.Fatal("plain break exits only the select")
	}
	if hasEdge(plain, afterLoop) {
		t.Fatal("plain break must not exit the loop directly")
	}
}

func TestCFGDeferInLoop(t *testing.T) {
	c := buildCFG(t, `
	for i := 0; i < n; i++ {
		defer cleanupMark()
		bodyMark()
	}
	afterMark()
`)
	if len(c.Defers) != 1 {
		t.Fatalf("want 1 deferred call, got %d", len(c.Defers))
	}
	// The defer statement still occupies its block (argument
	// evaluation), and the loop still cycles.
	body := blockOf(t, c, "bodyMark")
	cleanup := blockOf(t, c, "cleanupMark")
	if cleanup != body {
		// defer and body are straight-line: same block.
		t.Fatalf("defer stmt should share the body block (got %d vs %d)", cleanup.Index, body.Index)
	}
	if !canReach(body, body) {
		t.Fatal("loop body must reach itself on the back edge")
	}
}

func TestCFGUnreachableAfterReturn(t *testing.T) {
	c := buildCFG(t, `
	liveMark()
	return
	deadMark()
`)
	dead := blockOf(t, c, "deadMark")
	if canReach(c.Entry, dead) {
		t.Fatal("code after return must be unreachable")
	}
	if len(dead.Preds) != 0 {
		t.Fatal("unreachable block must have no predecessors")
	}
	live := blockOf(t, c, "liveMark")
	if !hasEdge(live, c.Exit) {
		t.Fatal("return must edge to Exit")
	}
}

func TestCFGUnreachableAfterPanic(t *testing.T) {
	c := buildCFG(t, `
	if bad {
		panic(panicMark)
		deadMark()
	}
	afterMark()
`)
	dead := blockOf(t, c, "deadMark")
	if canReach(c.Entry, dead) {
		t.Fatal("code after panic must be unreachable")
	}
	after := blockOf(t, c, "afterMark")
	if !canReach(c.Entry, after) {
		t.Fatal("the non-panicking path must continue")
	}
	pan := blockOf(t, c, "panicMark")
	if !hasEdge(pan, c.Exit) {
		t.Fatal("panic must edge to Exit so deferred effects apply")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	c := buildCFG(t, `
	switch x {
	case 1:
		caseOneMark()
		fallthrough
	case 2:
		caseTwoMark()
	default:
		defaultMark()
	}
	afterMark()
`)
	one := blockOf(t, c, "caseOneMark")
	two := blockOf(t, c, "caseTwoMark")
	def := blockOf(t, c, "defaultMark")
	after := blockOf(t, c, "afterMark")
	if !canReach(one, two) {
		t.Fatal("fallthrough must edge into the next case")
	}
	if canReach(one, def) {
		t.Fatal("fallthrough reaches only the next case, not default")
	}
	for _, b := range []*Block{one, two, def} {
		if !canReach(b, after) {
			t.Fatalf("case block %d must reach the join", b.Index)
		}
	}
}

func TestCFGSwitchNoDefaultSkipEdge(t *testing.T) {
	c := buildCFG(t, `
	switch x {
	case 1:
		caseMark()
	}
	afterMark()
`)
	after := blockOf(t, c, "afterMark")
	head := blockOf(t, c, "x")
	if !hasEdge(head, after) {
		t.Fatal("switch without default must edge head to after")
	}
}

func TestCFGRangeLoop(t *testing.T) {
	c := buildCFG(t, `
	for _, v := range items {
		bodyMark(v)
	}
	afterMark()
`)
	body := blockOf(t, c, "bodyMark")
	after := blockOf(t, c, "afterMark")
	if !canReach(c.Entry, after) {
		t.Fatal("range over empty collection must skip the body")
	}
	if !canReach(body, body) {
		t.Fatal("range body must cycle")
	}
	if !canReach(body, after) {
		t.Fatal("range body must reach after on loop end")
	}
}

func TestCFGFuncLitExcluded(t *testing.T) {
	c := buildCFG(t, `
	fn := func() {
		litMark()
	}
	fn()
	afterMark()
`)
	if len(c.Lits) != 1 {
		t.Fatalf("want 1 function literal, got %d", len(c.Lits))
	}
	// The literal body is not part of this CFG: no block mentions
	// litMark when walking shallowly.
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			inspectShallow(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == "litMark" {
					t.Fatal("literal body leaked into enclosing CFG")
				}
				return true
			})
		}
	}
	lit := NewCFG(c.Lits[0].Body)
	found := false
	for _, b := range lit.Blocks {
		for _, n := range b.Nodes {
			inspectShallow(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == "litMark" {
					found = true
				}
				return true
			})
		}
	}
	if !found {
		t.Fatal("literal CFG must contain the literal body")
	}
}

// --- solver tests -----------------------------------------------------

// markSetLattice is a set-of-strings lattice; union join (may) or
// intersection join (must) selected by mode.
type markSetLattice struct{ must bool }

type markSet map[string]bool

// bottomMark is the distinguished bottom fact (identity for both joins).
var bottomMark = markSet{"\x00bottom": true}

func (l markSetLattice) Bottom() any { return bottomMark }

func (l markSetLattice) Join(a, b any) any {
	as, bs := a.(markSet), b.(markSet)
	if isBottomMark(as) {
		return bs
	}
	if isBottomMark(bs) {
		return as
	}
	out := markSet{}
	if l.must {
		for k := range as {
			if bs[k] {
				out[k] = true
			}
		}
	} else {
		for k := range as {
			out[k] = true
		}
		for k := range bs {
			out[k] = true
		}
	}
	return out
}

func (l markSetLattice) Equal(a, b any) bool {
	as, bs := a.(markSet), b.(markSet)
	if len(as) != len(bs) {
		return false
	}
	for k := range as {
		if !bs[k] {
			return false
		}
	}
	return true
}

func isBottomMark(s markSet) bool { return s["\x00bottom"] }

// markTransfer adds every seen*() call's identifier to the fact.
func markTransfer(n ast.Node, fact any) any {
	f := fact.(markSet)
	var adds []string
	inspectShallow(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && strings.HasPrefix(id.Name, "seen") {
			adds = append(adds, id.Name)
		}
		return true
	})
	if len(adds) == 0 {
		return f
	}
	out := markSet{}
	for k := range f {
		out[k] = true
	}
	for _, a := range adds {
		out[a] = true
	}
	return out
}

func TestForwardFlowMayVsMust(t *testing.T) {
	c := buildCFG(t, `
	seenEntry()
	if cond {
		seenThen()
	} else {
		seenElse()
	}
	joinMark()
`)
	join := blockOf(t, c, "joinMark")

	may := c.ForwardFlow(markSetLattice{must: false}, markSet{}, markTransfer)
	in := may.In[join].(markSet)
	for _, want := range []string{"seenEntry", "seenThen", "seenElse"} {
		if !in[want] {
			t.Fatalf("may-analysis join must contain %s", want)
		}
	}

	must := c.ForwardFlow(markSetLattice{must: true}, markSet{}, markTransfer)
	in = must.In[join].(markSet)
	if !in["seenEntry"] {
		t.Fatal("must-analysis join must keep the common fact")
	}
	if in["seenThen"] || in["seenElse"] {
		t.Fatal("must-analysis join must drop branch-only facts")
	}
}

func TestForwardFlowLoopFixpoint(t *testing.T) {
	c := buildCFG(t, `
	for i := 0; i < n; i++ {
		seenLoop()
	}
	joinMark()
`)
	join := blockOf(t, c, "joinMark")
	must := c.ForwardFlow(markSetLattice{must: true}, markSet{}, markTransfer)
	in := must.In[join].(markSet)
	if in["seenLoop"] {
		t.Fatal("loop body may run zero times; its fact must not be a must-fact after the loop")
	}
	may := c.ForwardFlow(markSetLattice{must: false}, markSet{}, markTransfer)
	in = may.In[join].(markSet)
	if !in["seenLoop"] {
		t.Fatal("may-analysis must propagate the loop body fact out")
	}
}

func TestBackwardFlowLiveness(t *testing.T) {
	// Backward must-analysis: marks seen on every path from a point to
	// exit. seenTail appears on both paths; seenBranch only on one.
	c := buildCFG(t, `
	headMark()
	if cond {
		seenBranch()
	}
	seenTail()
`)
	head := blockOf(t, c, "headMark")
	res := c.BackwardFlow(markSetLattice{must: true}, markSet{}, markTransfer)
	in := res.In[head].(markSet)
	if !in["seenTail"] {
		t.Fatal("fact on all exit paths must flow backward to entry")
	}
	if in["seenBranch"] {
		t.Fatal("branch-only fact must not survive a backward must-join")
	}
}

func TestCFGUnreachableBlockGetsBottom(t *testing.T) {
	c := buildCFG(t, `
	return
	deadMark()
`)
	dead := blockOf(t, c, "deadMark")
	res := c.ForwardFlow(markSetLattice{must: true}, markSet{"live": true}, markTransfer)
	if !isBottomMark(res.In[dead].(markSet)) {
		t.Fatal("unreachable block must keep the bottom in-fact")
	}
}
