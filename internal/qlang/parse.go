package qlang

import (
	"strings"

	"pdcquery/internal/query"
)

// parser is a one-token-lookahead recursive-descent parser.
type parser struct {
	src string
	lx  lexer
	tok token // lookahead
	// depth is the most levels the expression just parsed lowers to (a
	// comparison or tag is one query.Node, a range two, and/or one more
	// than its deeper side); nest counts the parentheses open around the
	// current term. Both stop at query.MaxDepth, the depth a member's
	// decoder refuses beyond.
	depth, nest int
}

// Parse parses one statement. Errors are always *ParseError with
// position info.
func Parse(src string) (*Query, error) {
	p := &parser{src: src, lx: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, errAt(src, p.tok.pos, "unexpected trailing input starting at %q", p.tokText())
	}
	return q, nil
}

// advance moves the lookahead one token forward.
func (p *parser) advance() *ParseError {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// tokText describes the lookahead for error messages.
func (p *parser) tokText() string {
	switch p.tok.kind {
	case tokEOF:
		return "end of input"
	case tokIdent, tokNumber:
		return p.tok.text
	case tokString:
		return `"` + p.tok.text + `"`
	case tokLParen:
		return "("
	case tokRParen:
		return ")"
	case tokComma:
		return ","
	case tokLT:
		return "<"
	case tokLE:
		return "<="
	case tokGT:
		return ">"
	case tokGE:
		return ">="
	case tokEQ:
		return "="
	}
	return "?"
}

// keyword reports whether the lookahead is the given keyword
// (case-insensitive identifier match).
func (p *parser) keyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

// expectKeyword consumes a required keyword.
func (p *parser) expectKeyword(kw string) *ParseError {
	if !p.keyword(kw) {
		return errAt(p.src, p.tok.pos, "expected %q, found %q", kw, p.tokText())
	}
	return p.advance()
}

// reserved words may not be used as column or tag names.
var reserved = map[string]bool{
	"select": true, "where": true, "and": true, "or": true,
	"between": true, "tag": true, "count": true, "ids": true,
	"hist": true, "explain": true, "analyze": true,
}

// parseQuery := [explain [analyze]] select projection [where expr]
func (p *parser) parseQuery() (*Query, *ParseError) {
	q := &Query{}
	if p.keyword("explain") {
		q.Explain = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.keyword("analyze") {
			q.Analyze = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	proj, err := p.parseProjection()
	if err != nil {
		return nil, err
	}
	q.Projection = proj
	if p.keyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	return q, nil
}

// parseProjection := count | ids | hist '(' ident ',' int ')'
func (p *parser) parseProjection() (Projection, *ParseError) {
	switch {
	case p.keyword("count"):
		return Projection{Kind: ProjCount}, p.advance()
	case p.keyword("ids"):
		return Projection{Kind: ProjIDs}, p.advance()
	case p.keyword("hist"):
		if err := p.advance(); err != nil {
			return Projection{}, err
		}
		if p.tok.kind != tokLParen {
			return Projection{}, errAt(p.src, p.tok.pos, "expected '(' after hist, found %q", p.tokText())
		}
		if err := p.advance(); err != nil {
			return Projection{}, err
		}
		col, err := p.parseName("column")
		if err != nil {
			return Projection{}, err
		}
		if p.tok.kind != tokComma {
			return Projection{}, errAt(p.src, p.tok.pos, "expected ',' after hist column, found %q", p.tokText())
		}
		if err := p.advance(); err != nil {
			return Projection{}, err
		}
		if p.tok.kind != tokNumber {
			return Projection{}, errAt(p.src, p.tok.pos, "expected bin count, found %q", p.tokText())
		}
		bins := int(p.tok.num)
		if float64(bins) != p.tok.num || bins <= 0 || bins > MaxHistBins {
			return Projection{}, errAt(p.src, p.tok.pos, "hist bins must be a positive integer ≤ %d, got %s", MaxHistBins, p.tok.text)
		}
		if err := p.advance(); err != nil {
			return Projection{}, err
		}
		if p.tok.kind != tokRParen {
			return Projection{}, errAt(p.src, p.tok.pos, "expected ')' after hist bins, found %q", p.tokText())
		}
		return Projection{Kind: ProjHist, Col: col, Bins: bins}, p.advance()
	}
	return Projection{}, errAt(p.src, p.tok.pos, "expected count, ids, or hist(col, bins), found %q", p.tokText())
}

// parseName consumes a non-reserved identifier.
func (p *parser) parseName(what string) (string, *ParseError) {
	if p.tok.kind != tokIdent {
		return "", errAt(p.src, p.tok.pos, "expected %s name, found %q", what, p.tokText())
	}
	if reserved[strings.ToLower(p.tok.text)] {
		return "", errAt(p.src, p.tok.pos, "reserved word %q cannot be a %s name", p.tok.text, what)
	}
	name := p.tok.text
	return name, p.advance()
}

// parseOr := parseAnd { or parseAnd }
func (p *parser) parseOr() (Expr, *ParseError) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	depth := p.depth
	for p.keyword("or") {
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		if depth, err = p.deeper(depth, pos); err != nil {
			return nil, err
		}
		left = &Logic{Or: true, Left: left, Right: right}
	}
	p.depth = depth
	return left, nil
}

// parseAnd := parseTerm { and parseTerm }
func (p *parser) parseAnd() (Expr, *ParseError) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	depth := p.depth
	for p.keyword("and") {
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if depth, err = p.deeper(depth, pos); err != nil {
			return nil, err
		}
		left = &Logic{Or: false, Left: left, Right: right}
	}
	p.depth = depth
	return left, nil
}

// deeper is the depth of an and/or node, at pos, over a left side of
// depth left and the right side just parsed.
func (p *parser) deeper(left, pos int) (int, *ParseError) {
	d := max(left, p.depth) + 1
	if d > query.MaxDepth {
		return 0, errAt(p.src, pos, "condition tree deeper than %d levels", query.MaxDepth)
	}
	return d, nil
}

// parseTerm := '(' parseOr ')' | tag ident '=' string
//
//	| number cmpOp ident [cmpOp number]
//	| ident (cmpOp number | between number and number)
func (p *parser) parseTerm() (Expr, *ParseError) {
	switch {
	case p.tok.kind == tokLParen:
		if p.nest++; p.nest > query.MaxDepth {
			return nil, errAt(p.src, p.tok.pos, "parentheses nested deeper than %d levels", query.MaxDepth)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.nest--
		if p.tok.kind != tokRParen {
			return nil, errAt(p.src, p.tok.pos, "expected ')', found %q", p.tokText())
		}
		return e, p.advance()
	case p.keyword("tag"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		key, err := p.parseName("tag")
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokEQ {
			return nil, errAt(p.src, p.tok.pos, "expected '=' after tag key, found %q", p.tokText())
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, errAt(p.src, p.tok.pos, "expected quoted tag value, found %q", p.tokText())
		}
		val := p.tok.text
		p.depth = 1
		return &Tag{Key: key, Value: val}, p.advance()
	case p.tok.kind == tokNumber:
		// value-first comparison: flip to column-first.
		v := p.tok.num
		if err := p.advance(); err != nil {
			return nil, err
		}
		op, err := p.parseCmpOp()
		if err != nil {
			return nil, err
		}
		col, err := p.parseName("column")
		if err != nil {
			return nil, err
		}
		first := &Cmp{Col: col, Op: flipOp(op), Value: v}
		p.depth = 1
		if !p.cmpOpNext() {
			return first, nil
		}
		// The paper's chained range `2.1 < Energy < 2.2`: the AND of its
		// two halves, and rendered as that.
		op2, err := p.parseCmpOp()
		if err != nil {
			return nil, err
		}
		hi, err := p.parseNumber("chained comparison bound")
		if err != nil {
			return nil, err
		}
		p.depth = 2
		return &Logic{Left: first, Right: &Cmp{Col: col, Op: op2, Value: hi}}, nil
	case p.tok.kind == tokIdent:
		col, err := p.parseName("column")
		if err != nil {
			return nil, err
		}
		if p.keyword("between") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			lo, err := p.parseNumber("between lower bound")
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("and"); err != nil {
				return nil, err
			}
			hi, err := p.parseNumber("between upper bound")
			if err != nil {
				return nil, err
			}
			if hi < lo {
				return nil, errAt(p.src, p.tok.pos, "between bounds inverted: %s > %s", num(lo), num(hi))
			}
			p.depth = 2
			return &Between{Col: col, Lo: lo, Hi: hi}, nil
		}
		op, err2 := p.parseCmpOp()
		if err2 != nil {
			return nil, err2
		}
		v, err2 := p.parseNumber("comparison value")
		if err2 != nil {
			return nil, err2
		}
		p.depth = 1
		return &Cmp{Col: col, Op: op, Value: v}, nil
	}
	return nil, errAt(p.src, p.tok.pos, "expected a condition, found %q", p.tokText())
}

// cmpOpNext reports whether the lookahead is a comparison operator.
func (p *parser) cmpOpNext() bool {
	return p.tok.kind >= tokLT && p.tok.kind <= tokEQ
}

// parseCmpOp consumes a comparison operator.
func (p *parser) parseCmpOp() (query.Op, *ParseError) {
	var o query.Op
	switch p.tok.kind {
	case tokLT:
		o = query.OpLT
	case tokLE:
		o = query.OpLE
	case tokGT:
		o = query.OpGT
	case tokGE:
		o = query.OpGE
	case tokEQ:
		o = query.OpEQ
	default:
		return 0, errAt(p.src, p.tok.pos, "expected comparison operator, found %q", p.tokText())
	}
	return o, p.advance()
}

// flipOp mirrors an operator across its operands: `5 < x` is `x > 5`.
func flipOp(op query.Op) query.Op {
	switch op {
	case query.OpLT:
		return query.OpGT
	case query.OpLE:
		return query.OpGE
	case query.OpGT:
		return query.OpLT
	case query.OpGE:
		return query.OpLE
	}
	return op // OpEQ is symmetric
}

// parseNumber consumes a numeric literal.
func (p *parser) parseNumber(what string) (float64, *ParseError) {
	if p.tok.kind != tokNumber {
		return 0, errAt(p.src, p.tok.pos, "expected %s, found %q", what, p.tokText())
	}
	v := p.tok.num
	return v, p.advance()
}
