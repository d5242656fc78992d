// The where-clause corpus of the old bare-condition parser, driven
// through the one grammar: `select ids where <s>` parsed and lowered by
// qlang must build the same condition trees.
package query_test

import (
	"strings"
	"testing"

	"pdcquery/internal/object"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
)

var testNames = map[string]object.ID{"Energy": 1, "x": 2, "y": 3, "z": 4}

func resolveTest(name string) (object.ID, bool) {
	id, ok := testNames[name]
	return id, ok
}

// parseWhere parses and lowers a bare where clause.
func parseWhere(s string, resolve func(string) (object.ID, bool)) (*query.Node, error) {
	parsed, err := qlang.Parse("select ids where " + s)
	if err != nil {
		return nil, err
	}
	low, err := parsed.Lower(resolve)
	if err != nil {
		return nil, err
	}
	return low.Query.Root, nil
}

func mustParse(t *testing.T, s string) *query.Node {
	t.Helper()
	n, err := parseWhere(s, resolveTest)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return n
}

func TestParseSimple(t *testing.T) {
	n := mustParse(t, "Energy > 2.0")
	if n.Kind != query.KindLeaf || n.Obj != 1 || n.Op != query.OpGT || n.Value != 2.0 {
		t.Errorf("parsed %+v", n)
	}
}

func TestParseAllOperators(t *testing.T) {
	for s, op := range map[string]query.Op{
		"Energy > 1": query.OpGT, "Energy >= 1": query.OpGE,
		"Energy < 1": query.OpLT, "Energy <= 1": query.OpLE,
		"Energy = 1": query.OpEQ, "Energy == 1": query.OpEQ,
	} {
		if n := mustParse(t, s); n.Op != op {
			t.Errorf("%q parsed op %v, want %v", s, n.Op, op)
		}
	}
}

func TestParseAndOrPrecedence(t *testing.T) {
	// AND binds tighter than OR.
	n := mustParse(t, "Energy > 5 or x > 100 and y < 0")
	if n.Kind != query.KindOr {
		t.Fatalf("root = %v, want OR", n.Kind)
	}
	if n.Right.Kind != query.KindAnd {
		t.Errorf("right = %v, want AND", n.Right.Kind)
	}
}

func TestParseParens(t *testing.T) {
	n := mustParse(t, "(Energy > 5 or x > 100) and y < 0")
	if n.Kind != query.KindAnd || n.Left.Kind != query.KindOr {
		t.Errorf("parenthesized parse wrong: %s", n)
	}
}

func TestParseReversedComparison(t *testing.T) {
	// The paper writes "2.1 < Energy < 2.2"-style bounds; each half can be
	// given in either direction.
	n := mustParse(t, "2.1 < Energy and Energy < 2.2")
	cs, err := query.Normalize(n)
	if err != nil || len(cs) != 1 {
		t.Fatal(err)
	}
	iv := cs[0][1]
	if iv.Lo != 2.1 || iv.Hi != 2.2 || iv.LoIncl || iv.HiIncl {
		t.Errorf("interval = %v", iv)
	}
	n = mustParse(t, "100 >= x")
	if n.Obj != 2 || n.Op != query.OpLE || n.Value != 100 {
		t.Errorf("flipped parse = %+v", n)
	}
}

func TestParsePaperQuery(t *testing.T) {
	n := mustParse(t, "Energy > 2.0 and 100 < x and x < 200 and -90 < y and y < 0 and 0 < z and z < 66")
	ids := n.Objects()
	if len(ids) != 4 {
		t.Fatalf("objects = %v", ids)
	}
	cs, err := query.Normalize(n)
	if err != nil || len(cs) != 1 {
		t.Fatal(err)
	}
	if !cs[0][3].Contains(-45) || cs[0][3].Contains(10) {
		t.Errorf("y interval = %v", cs[0][3])
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	n := mustParse(t, "y > -90.5")
	if n.Value != -90.5 {
		t.Errorf("value = %v", n.Value)
	}
}

func TestParseCaseInsensitiveConnectives(t *testing.T) {
	n := mustParse(t, "Energy > 1 AND x < 2 OR y = 3")
	if n.Kind != query.KindOr || n.Left.Kind != query.KindAnd {
		t.Errorf("case-insensitive parse wrong: %s", n)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"Energy >",
		"Energy ! 2",
		"nosuch > 2",
		"2 > nosuch",
		"Energy > 2 and",
		"(Energy > 2",
		"Energy > 2 extra",
		"Energy > x",
		"Energy > 2 2",
	}
	for _, s := range cases {
		if _, err := parseWhere(s, resolveTest); err == nil {
			t.Errorf("parse %q succeeded", s)
		}
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	n := mustParse(t, "(Energy > 2 and x < 100) or z = 5")
	s := n.String()
	for _, want := range []string{"obj1 > 2", "obj2 < 100", "obj4 == 5", "AND", "OR"} {
		if !strings.Contains(s, want) {
			t.Errorf("round trip string %q missing %q", s, want)
		}
	}
}

func TestParseChainedComparison(t *testing.T) {
	// The paper's range notation desugars to an AND of two leaves.
	n := mustParse(t, "2.1 < Energy < 2.2")
	cs, err := query.Normalize(n)
	if err != nil || len(cs) != 1 {
		t.Fatal(err)
	}
	iv := cs[0][1]
	if iv.Lo != 2.1 || iv.Hi != 2.2 || iv.LoIncl || iv.HiIncl {
		t.Errorf("chained interval = %v", iv)
	}
	// Inclusive bounds chain too.
	n = mustParse(t, "100 <= x <= 200")
	cs, _ = query.Normalize(n)
	iv = cs[0][2]
	if !iv.Contains(100) || !iv.Contains(200) || iv.Contains(201) {
		t.Errorf("inclusive chain = %v", iv)
	}
	// Chains compose with connectives.
	n = mustParse(t, "2.1 < Energy < 2.2 and -90 < y and y < 0")
	if got := len(n.Objects()); got != 2 {
		t.Errorf("objects = %d", got)
	}
	// A number in the middle is rejected.
	if _, err := parseWhere("2.1 < 5 < 2.2", resolveTest); err == nil {
		t.Error("numeric middle accepted")
	}
	// Truncated chain is rejected.
	if _, err := parseWhere("2.1 < Energy <", resolveTest); err == nil {
		t.Error("truncated chain accepted")
	}
}

// FuzzParse hardens the where-clause grammar: whatever parses and
// lowers yields a printable, normalizable tree.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"Energy > 2.0",
		"Energy > 2.0 and 100 < x and x < 200",
		"(a > 1 or b < 2) and c = 3",
		"2.1 < Energy < 2.2",
		"((((", "1 2 3", "and and", "x >", ">", "",
	} {
		f.Add(s)
	}
	resolve := func(name string) (object.ID, bool) {
		switch name {
		case "Energy", "x", "a", "b", "c":
			return object.ID(len(name)), true
		}
		return 0, false
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := parseWhere(s, resolve)
		if err != nil {
			return
		}
		if n == nil {
			t.Fatal("nil tree without error")
		}
		_ = n.String()
		_, _ = query.Normalize(n)
	})
}
