package lint_test

import (
	"testing"

	"pdcquery/internal/lint"
	"pdcquery/internal/lint/linttest"
)

const callgraphSrc = `package cg

// Runner is dispatched through an interface below.
type Runner interface{ Run() int }

type Impl struct{ n int }

func (i Impl) Run() int { return i.n }

type Other struct{}

func (o Other) Run() int { return 2 }
func (o Other) Extra()   {}

// Narrow has a Run method but does not cover Wide's method set.
type Wide interface {
	Run() int
	Missing()
}

func helper() int { return 1 }

func Top(r Runner) int {
	x := helper()    // direct call
	x += r.Run()     // interface dispatch: Impl.Run and Other.Run
	f := helper      // function value: dynamic edge
	mv := Impl{}.Run // method value: dynamic edge
	_ = mv
	lit := func() int { return helper() } // literal attributed to Top
	return x + f() + lit()
}

func Lonely() int { return 3 }
`

func loadCallgraphFixture(t *testing.T) *lint.CallGraph {
	t.Helper()
	dir := linttest.WriteTempFixture(t, "cg", map[string]string{"cg.go": callgraphSrc})
	pkgs, err := lint.LoadTree(dir, "cg")
	if err != nil {
		t.Fatal(err)
	}
	return lint.NewCallGraph(pkgs)
}

func hasEdge(g *lint.CallGraph, from, to string, wantDynamic bool) bool {
	n := g.Node(from)
	if n == nil {
		return false
	}
	for _, e := range n.Out {
		if e.CalleeKey == to && e.Dynamic == wantDynamic {
			return true
		}
	}
	return false
}

func TestCallGraphDirectAndLiteralCalls(t *testing.T) {
	g := loadCallgraphFixture(t)
	if g.Node("cg.Top") == nil || g.Node("cg.helper") == nil {
		t.Fatalf("missing expected nodes; have %v", g.Keys())
	}
	if !hasEdge(g, "cg.Top", "cg.helper", false) {
		t.Error("expected direct edge cg.Top -> cg.helper")
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := loadCallgraphFixture(t)
	for _, impl := range []string{"cg.Impl.Run", "cg.Other.Run"} {
		if !hasEdge(g, "cg.Top", impl, true) {
			t.Errorf("interface call r.Run() should resolve to %s", impl)
		}
	}
}

func TestCallGraphMethodValue(t *testing.T) {
	g := loadCallgraphFixture(t)
	if !hasEdge(g, "cg.Top", "cg.Impl.Run", true) {
		t.Error("method value Impl{}.Run should add a dynamic edge")
	}
	if !hasEdge(g, "cg.Top", "cg.helper", true) {
		t.Error("function value f := helper should add a dynamic edge")
	}
}

// TestCallGraphReachability checks reachability and root attribution as
// what they are: projections of RootPaths (has a path; path[0]).
func TestCallGraphReachability(t *testing.T) {
	g := loadCallgraphFixture(t)
	paths := g.RootPaths([]string{"cg.Lonely", "cg.Top", "cg.helper"})
	for _, want := range []string{"cg.Top", "cg.helper", "cg.Impl.Run", "cg.Other.Run", "cg.Lonely"} {
		if paths[want] == nil {
			t.Errorf("%s should be reachable", want)
		}
	}
	if _, ok := g.RootPaths([]string{"cg.Top"})["cg.Lonely"]; ok {
		t.Error("cg.Lonely must not be reachable from cg.Top")
	}
	// The first root in the given order that reaches a node owns it,
	// and a root another root already reached stays attributed to that
	// one.
	for node, root := range map[string]string{
		"cg.Lonely": "cg.Lonely", "cg.Top": "cg.Top", "cg.helper": "cg.Top", "cg.Impl.Run": "cg.Top",
	} {
		if got := paths[node][0]; got != root {
			t.Errorf("%s attributed to %q, want %s", node, got, root)
		}
	}
}

func TestCallGraphRootPaths(t *testing.T) {
	g := loadCallgraphFixture(t)
	paths := g.RootPaths([]string{"cg.Top"})
	if got := paths["cg.Top"]; len(got) != 1 || got[0] != "cg.Top" {
		t.Errorf("root path for the root itself = %v, want [cg.Top]", got)
	}
	if got := paths["cg.helper"]; len(got) != 2 || got[0] != "cg.Top" || got[1] != "cg.helper" {
		t.Errorf("path to cg.helper = %v, want [cg.Top cg.helper]", got)
	}
	if _, ok := paths["cg.Lonely"]; ok {
		t.Error("cg.Lonely is unreachable and must have no root path")
	}
}

// TestCallGraphKeysCopy pins the aliasguard fix: Keys hands back a
// copy, so a caller sorting or clobbering it cannot corrupt the shared
// graph's iteration order.
func TestCallGraphKeysCopy(t *testing.T) {
	g := loadCallgraphFixture(t)
	k1 := g.Keys()
	if len(k1) == 0 {
		t.Fatal("expected nodes")
	}
	for i := range k1 {
		k1[i] = "clobbered"
	}
	k2 := g.Keys()
	for _, k := range k2 {
		if k == "clobbered" {
			t.Fatal("Keys() returned an alias of the graph's internal slice")
		}
	}
}
