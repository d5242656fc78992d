package qlang

import (
	"errors"
	"strings"
	"testing"

	"pdcquery/internal/object"
	"pdcquery/internal/query"
)

// testResolve maps a fixed column namespace.
func testResolve(name string) (object.ID, bool) {
	switch name {
	case "Energy":
		return 1, true
	case "x":
		return 2, true
	case "y":
		return 3, true
	}
	return 0, false
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseProjections(t *testing.T) {
	q := mustParse(t, "select count where x > 5")
	if q.Projection.Kind != ProjCount || q.Explain {
		t.Errorf("count projection parsed wrong: %+v", q.Projection)
	}
	q = mustParse(t, "SELECT IDS WHERE x > 5")
	if q.Projection.Kind != ProjIDs {
		t.Errorf("ids projection parsed wrong: %+v", q.Projection)
	}
	q = mustParse(t, "select hist(Energy, 64) where Energy >= 1.5")
	if q.Projection.Kind != ProjHist || q.Projection.Col != "Energy" || q.Projection.Bins != 64 {
		t.Errorf("hist projection parsed wrong: %+v", q.Projection)
	}
}

func TestParseExplain(t *testing.T) {
	q := mustParse(t, "explain select count where x > 1")
	if !q.Explain || q.Analyze {
		t.Errorf("explain flags = %v/%v, want true/false", q.Explain, q.Analyze)
	}
	q = mustParse(t, "EXPLAIN ANALYZE select count where x > 1")
	if !q.Explain || !q.Analyze {
		t.Errorf("explain analyze flags = %v/%v, want true/true", q.Explain, q.Analyze)
	}
	if q.Bare() != "select count where x > 1" {
		t.Errorf("Bare = %q, must strip the explain prefix", q.Bare())
	}
}

func TestParsePrecedenceAndParens(t *testing.T) {
	// AND binds tighter than OR.
	q := mustParse(t, "select count where x > 1 or x < 0 and y = 2")
	top, ok := q.Where.(*Logic)
	if !ok || !top.Or {
		t.Fatalf("top node must be OR, got %T", q.Where)
	}
	if r, ok := top.Right.(*Logic); !ok || r.Or {
		t.Errorf("right of OR must be the AND node, got %T", top.Right)
	}
	// Parens override.
	q = mustParse(t, "select count where (x > 1 or x < 0) and y = 2")
	top, ok = q.Where.(*Logic)
	if !ok || top.Or {
		t.Fatalf("top node must be AND, got %T", q.Where)
	}
}

func TestParseValueFirstComparisonFlips(t *testing.T) {
	q := mustParse(t, "select count where 5 < x")
	c, ok := q.Where.(*Cmp)
	if !ok || c.Col != "x" || c.Op != query.OpGT || c.Value != 5 {
		t.Fatalf("5 < x must flip to x > 5, got %+v", q.Where)
	}
}

func TestParseChainedComparison(t *testing.T) {
	// The paper's range notation is the AND of its two halves.
	for _, c := range []struct {
		src      string
		lo, hi   query.Op
		rendered string
	}{
		{"select count where 2.1 < Energy < 2.2", query.OpGT, query.OpLT, "select count where (Energy > 2.1 and Energy < 2.2)"},
		{"select count where 2.1 <= Energy < 2.2", query.OpGE, query.OpLT, "select count where (Energy >= 2.1 and Energy < 2.2)"},
		{"select count where 2.1 < Energy <= 2.2", query.OpGT, query.OpLE, "select count where (Energy > 2.1 and Energy <= 2.2)"},
	} {
		q := mustParse(t, c.src)
		l, ok := q.Where.(*Logic)
		if !ok || l.Or {
			t.Fatalf("%q: top node %T, want the AND of two comparisons", c.src, q.Where)
		}
		lo, hi := l.Left.(*Cmp), l.Right.(*Cmp)
		if lo.Col != "Energy" || lo.Op != c.lo || lo.Value != 2.1 || hi.Col != "Energy" || hi.Op != c.hi || hi.Value != 2.2 {
			t.Errorf("%q desugared to %+v, %+v", c.src, lo, hi)
		}
		if got := q.Render(); got != c.rendered {
			t.Errorf("%q renders %q, want %q", c.src, got, c.rendered)
		}
		if got := mustParse(t, c.rendered).Render(); got != c.rendered {
			t.Errorf("desugared form %q is not a parse fixed point: %q", c.rendered, got)
		}
	}
	// A chain is one term: it composes with connectives.
	q := mustParse(t, "select ids where 2.1 < Energy < 2.2 and -90 < y < 0 or x = 1")
	if top, ok := q.Where.(*Logic); !ok || !top.Or {
		t.Errorf("chains under and/or parsed to %s", q.Render())
	}
	for _, c := range []struct{ src, want string }{
		{"select count where 1 < 2 < 3", "expected column name"},
		{"select count where 2.1 < Energy <", "expected chained comparison bound"},
		{"select count where 2.1 < Energy < x", "expected chained comparison bound"},
		{"select count where Energy > 2 < 3", "unexpected trailing input"},
	} {
		var pe *ParseError
		if _, err := Parse(c.src); !errors.As(err, &pe) || !strings.Contains(pe.Msg, c.want) || pe.Col < 1 {
			t.Errorf("Parse(%q) = %v, want a positional error containing %q", c.src, err, c.want)
		}
	}
}

func TestParseBetween(t *testing.T) {
	q := mustParse(t, "select count where x between 1.5 and 9 and y > 0")
	top, ok := q.Where.(*Logic)
	if !ok || top.Or {
		t.Fatalf("between must bind its AND: top %T", q.Where)
	}
	b, ok := top.Left.(*Between)
	if !ok || b.Lo != 1.5 || b.Hi != 9 {
		t.Fatalf("between parsed wrong: %+v", top.Left)
	}
	if _, err := Parse("select count where x between 9 and 1"); err == nil {
		t.Error("inverted between bounds must be a parse error")
	}
}

func TestParseTag(t *testing.T) {
	q := mustParse(t, `select count where tag run = "vpic-7" and x > 0`)
	low, err := q.Lower(testResolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Tags) != 1 || low.Tags[0].Key != "run" || low.Tags[0].Value != "vpic-7" {
		t.Errorf("tags = %+v", low.Tags)
	}
	if low.Query.Root.Kind != query.KindLeaf {
		t.Errorf("numeric tree must collapse to the single leaf, got %v", low.Query.Root)
	}
}

func TestParseErrorsArePositional(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"", `expected "select"`},
		{"select", "expected count, ids, or hist"},
		{"select count where", "expected a condition"},
		{"select count where x >", "expected comparison value"},
		{"select count where x ! 5", "unexpected character"},
		{"select count where tag run = vpic", "expected quoted tag value"},
		{`select count where tag run = "unterminated`, "unterminated string"},
		{"select hist(x) where x > 1", "expected ','"},
		{"select hist(x, 0) where x > 1", "positive integer"},
		{"select count where x > 1 garbage", "unexpected trailing input"},
		{"select count where select > 1", "reserved word"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got nil", c.src, c.want)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q): error %T is not a *ParseError", c.src, err)
			continue
		}
		if !strings.Contains(pe.Error(), c.want) {
			t.Errorf("Parse(%q): error %q does not contain %q", c.src, pe.Error(), c.want)
		}
		if pe.Line < 1 || pe.Col < 1 {
			t.Errorf("Parse(%q): position %d:%d not 1-based", c.src, pe.Line, pe.Col)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("select count\nwhere x >")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	srcs := []string{
		"select count where x > 5",
		"select ids where x between 1 and 2 or y >= -3.5",
		`explain analyze select hist(Energy, 32) where tag run = "a b" and Energy <= 1e6`,
		"select count where ((x > 1 and y < 2) or x = 0) and y >= 1",
		"select count where 5 < x and x <= 100",
	}
	for _, src := range srcs {
		q := mustParse(t, src)
		canon := q.Render()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("reparse of canonical %q: %v", canon, err)
		}
		if got := q2.Render(); got != canon {
			t.Errorf("render not a fixed point: %q → %q", canon, got)
		}
	}
}

func TestLowerErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"select count where z > 1", "unknown column"},
		{"select hist(z, 8) where x > 1", "unknown hist column"},
		{`select count where tag a = "b" or x > 1`, "under OR"},
		{`select count where tag a = "b"`, "no numeric conditions"},
		{"select count", "missing where clause"},
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		_, err = q.Lower(testResolve)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Lower(%q): error %v does not contain %q", c.src, err, c.want)
		}
	}
}

func TestLowerMatchesHandBuiltTree(t *testing.T) {
	q := mustParse(t, "select count where x between 2 and 8 and y > 0")
	low, err := q.Lower(testResolve)
	if err != nil {
		t.Fatal(err)
	}
	want := query.And(query.Between(2, 2, 8, true, true), query.Leaf(3, query.OpGT, 0))
	if low.Query.Root.String() != want.String() {
		t.Errorf("lowered tree %v, want %v", low.Query.Root, want)
	}
}

// TestParseRefusesDeepTrees: a where clause whose condition tree would
// pass query.MaxDepth is a parse error, so a client never sends a tree a
// member's decoder refuses; one at the limit parses, lowers and decodes.
// Deeply nested parentheses are refused before the parser recurses past
// the same limit.
func TestParseRefusesDeepTrees(t *testing.T) {
	// A chain of n comparisons is n levels; a between is two.
	where := func(n int, first string) string {
		return "select count where " + first + strings.Repeat(" and x > 1", n-1)
	}
	for _, first := range []string{"x > 1", "x between 1 and 2"} {
		n := query.MaxDepth
		if first != "x > 1" {
			n--
		}
		low, err := mustParse(t, where(n, first)).Lower(testResolve)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := query.Decode(low.Query.Encode()); err != nil {
			t.Fatalf("%q at the limit: decode: %v", first, err)
		}
		var pe *ParseError
		if _, err := Parse(where(n+1, first)); !errors.As(err, &pe) || !strings.Contains(pe.Msg, "deeper") {
			t.Fatalf("%q one level past the limit: err %v, want a depth ParseError", first, err)
		}
	}
	deep := "select count where " + strings.Repeat("(", 1<<20) + "x > 1" + strings.Repeat(")", 1<<20)
	var pe *ParseError
	if _, err := Parse(deep); !errors.As(err, &pe) || !strings.Contains(pe.Msg, "nested") {
		t.Fatalf("a million nested parentheses: err %v, want a nesting ParseError", err)
	}
}
