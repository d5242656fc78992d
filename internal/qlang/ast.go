package qlang

import (
	"strconv"
	"strings"

	"pdcquery/internal/query"
)

// ProjKind is what the query asks for.
type ProjKind uint8

// Projections: the hit count, the matching element ids (selection
// transfer), or a histogram of the matching values of one column.
const (
	ProjCount ProjKind = iota
	ProjIDs
	ProjHist
)

// MaxHistBins bounds a hist projection's bin count: the parser and a
// member decoding a lowered statement hold it to the same range.
const MaxHistBins = 1 << 16

// Projection is the select clause.
type Projection struct {
	Kind ProjKind
	Col  string // ProjHist only: the column to histogram
	Bins int    // ProjHist only: requested bin count
}

// Expr is a where-clause expression node.
type Expr interface {
	render(b *strings.Builder)
}

// Cmp is `col op value`. Comparisons written value-first are flipped
// at parse time so the AST is always column-first.
type Cmp struct {
	Col   string
	Op    query.Op
	Value float64
}

// Between is `col between lo and hi` — inclusive on both ends, SQL
// style.
type Between struct {
	Col    string
	Lo, Hi float64
}

// Tag is `tag key = "value"`: a metadata tag condition gating which
// objects the query sees.
type Tag struct {
	Key   string
	Value string
}

// Logic is a binary and/or node.
type Logic struct {
	Or          bool
	Left, Right Expr
}

// Query is one parsed statement.
type Query struct {
	Explain    bool
	Analyze    bool
	Projection Projection
	Where      Expr
}

// num renders a float in the canonical shortest round-trip form.
func num(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// parseFloat is the lexer's number reader.
func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

func (c *Cmp) render(b *strings.Builder) {
	b.WriteString(c.Col)
	b.WriteByte(' ')
	switch c.Op {
	case query.OpGT:
		b.WriteByte('>')
	case query.OpGE:
		b.WriteString(">=")
	case query.OpLT:
		b.WriteByte('<')
	case query.OpLE:
		b.WriteString("<=")
	default:
		b.WriteByte('=')
	}
	b.WriteByte(' ')
	b.WriteString(num(c.Value))
}

func (t *Between) render(b *strings.Builder) {
	b.WriteString(t.Col)
	b.WriteString(" between ")
	b.WriteString(num(t.Lo))
	b.WriteString(" and ")
	b.WriteString(num(t.Hi))
}

func (t *Tag) render(b *strings.Builder) {
	b.WriteString("tag ")
	b.WriteString(t.Key)
	b.WriteString(" = ")
	// The lexer's string grammar, not Go's: \" and \\ are its only
	// escapes, so anything strconv.Quote would spell differently (a tab,
	// a non-printable byte) must go out as it is to parse back the same.
	b.WriteByte('"')
	for i := 0; i < len(t.Value); i++ {
		if c := t.Value[i]; c == '"' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(t.Value[i])
	}
	b.WriteByte('"')
}

func (l *Logic) render(b *strings.Builder) {
	b.WriteByte('(')
	l.Left.render(b)
	if l.Or {
		b.WriteString(" or ")
	} else {
		b.WriteString(" and ")
	}
	l.Right.render(b)
	b.WriteByte(')')
}

// Render produces the canonical text of the statement: lowercase
// keywords, single spaces, shortest float forms, fully parenthesized
// logic. Rendering then reparsing yields a structurally identical
// query, and render∘parse∘render is a fixed point — the property
// FuzzParseQuery holds.
func (q *Query) Render() string {
	var b strings.Builder
	if q.Explain {
		b.WriteString("explain ")
		if q.Analyze {
			b.WriteString("analyze ")
		}
	}
	b.WriteString("select ")
	switch q.Projection.Kind {
	case ProjCount:
		b.WriteString("count")
	case ProjIDs:
		b.WriteString("ids")
	case ProjHist:
		b.WriteString("hist(")
		b.WriteString(q.Projection.Col)
		b.WriteString(", ")
		b.WriteString(strconv.Itoa(q.Projection.Bins))
		b.WriteByte(')')
	}
	if q.Where != nil {
		b.WriteString(" where ")
		q.Where.render(&b)
	}
	return b.String()
}

// Bare is the canonical rendering with the explain prefix stripped:
// the statement `EXPLAIN q` explains, spelled as q.
func (q *Query) Bare() string {
	bare := *q
	bare.Explain = false
	bare.Analyze = false
	return bare.Render()
}
