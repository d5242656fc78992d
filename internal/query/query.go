// Package query defines the PDC-Query condition model: the tree that
// PDCquery_create / PDCquery_and / PDCquery_or build (§III-A), its wire
// serialization (the client "serializes the query conditions and
// broadcasts them to all available servers", §III-C), and the
// normalization the evaluator plans against.
//
// A leaf is a one-sided comparison on a single object (>, >=, <, <=, =);
// AND/OR nodes chain an unlimited number of conditions. For evaluation the
// tree is normalized to disjunctive normal form, where each conjunct
// collapses the conditions on one object into a single value interval —
// the form the paper's selectivity-ordered AND evaluation operates on.
package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pdcquery/internal/object"
	"pdcquery/internal/region"
	"pdcquery/internal/wire"
)

// Op is a comparison operator.
type Op uint8

// Comparison operators supported by PDCquery_create.
const (
	OpGT Op = iota // >
	OpGE           // >=
	OpLT           // <
	OpLE           // <=
	OpEQ           // ==
)

// String returns the operator symbol.
func (op Op) String() string {
	switch op {
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "=="
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Valid reports whether op is one of the defined comparison operators.
func (op Op) Valid() bool { return op <= OpEQ }

// Kind discriminates tree nodes.
type Kind uint8

// Node kinds.
const (
	KindLeaf Kind = iota
	KindAnd
	KindOr
)

// Node is one node of a query condition tree.
type Node struct {
	Kind  Kind
	Obj   object.ID // leaf only
	Op    Op        // leaf only
	Value float64   // leaf only
	Left  *Node     // and/or only
	Right *Node     // and/or only
}

// Leaf builds a single-condition node (PDCquery_create).
func Leaf(obj object.ID, op Op, value float64) *Node {
	return &Node{Kind: KindLeaf, Obj: obj, Op: op, Value: value}
}

// And combines two conditions (PDCquery_and). A nil side yields the other.
func And(l, r *Node) *Node {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return &Node{Kind: KindAnd, Left: l, Right: r}
}

// Or combines two conditions (PDCquery_or). A nil side yields the other.
func Or(l, r *Node) *Node {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return &Node{Kind: KindOr, Left: l, Right: r}
}

// Between builds lo < obj < hi (the common range query), with inclusivity
// controlled by the flags.
func Between(obj object.ID, lo, hi float64, loIncl, hiIncl bool) *Node {
	loOp, hiOp := OpGT, OpLT
	if loIncl {
		loOp = OpGE
	}
	if hiIncl {
		hiOp = OpLE
	}
	return And(Leaf(obj, loOp, lo), Leaf(obj, hiOp, hi))
}

// String renders the tree.
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	switch n.Kind {
	case KindLeaf:
		return fmt.Sprintf("obj%d %s %g", n.Obj, n.Op, n.Value)
	case KindAnd:
		return "(" + n.Left.String() + " AND " + n.Right.String() + ")"
	case KindOr:
		return "(" + n.Left.String() + " OR " + n.Right.String() + ")"
	}
	return "<bad>"
}

// Objects returns the distinct object IDs referenced by the tree, sorted.
// The walk is a named helper and the sort monomorphic — this runs per
// request on the server's dispatch path, where recursive closures and
// sort.Slice boxing would allocate.
func (n *Node) Objects() []object.ID {
	set := map[object.ID]bool{}
	collectObjects(n, set)
	out := make([]object.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func collectObjects(x *Node, set map[object.ID]bool) {
	if x == nil {
		return
	}
	if x.Kind == KindLeaf {
		set[x.Obj] = true
		return
	}
	collectObjects(x.Left, set)
	collectObjects(x.Right, set)
}

// Query is a full query: a condition tree plus an optional spatial region
// constraint (PDCquery_set_region). The constraint may be arbitrary and
// need not match any internal region partition.
type Query struct {
	Root       *Node
	Constraint *region.Region
}

// SetRegion attaches a spatial constraint.
func (q *Query) SetRegion(r region.Region) { q.Constraint = &r }

// Validate checks the query against the metadata: every referenced object
// must exist, and multi-object queries require identical dimensions
// (§III-A). The constraint, when set, must match the objects' rank and
// lie within their bounds.
func (q *Query) Validate(lookup func(object.ID) (*object.Object, bool)) error {
	if q.Root == nil {
		return fmt.Errorf("query: empty condition tree")
	}
	var bad error
	var walk func(*Node, int)
	walk = func(n *Node, level int) {
		switch {
		case n == nil || bad != nil:
		case level > MaxDepth:
			bad = fmt.Errorf("query: %w", ErrTooDeep)
		case n.Kind == KindLeaf:
			if !n.Op.Valid() {
				bad = fmt.Errorf("query: bad op %d on object %d", n.Op, n.Obj)
			}
		default:
			walk(n.Left, level+1)
			walk(n.Right, level+1)
		}
	}
	walk(q.Root, 1)
	if bad != nil {
		return bad
	}
	ids := q.Root.Objects()
	if len(ids) == 0 {
		return fmt.Errorf("query: no objects referenced")
	}
	var dims []uint64
	for _, id := range ids {
		o, ok := lookup(id)
		if !ok {
			return fmt.Errorf("query: object %d not found", id)
		}
		if dims == nil {
			dims = o.Dims
			continue
		}
		if len(dims) != len(o.Dims) {
			return fmt.Errorf("query: objects have different ranks")
		}
		for d := range dims {
			if dims[d] != o.Dims[d] {
				return fmt.Errorf("query: objects have different dimensions")
			}
		}
	}
	if q.Constraint != nil {
		if err := q.Constraint.Validate(); err != nil {
			return fmt.Errorf("query: constraint: %w", err)
		}
		if !region.Cover(dims).Contains(*q.Constraint) {
			return fmt.Errorf("query: constraint %v outside object bounds %v", q.Constraint, dims)
		}
	}
	return nil
}

// Interval is a value range with per-bound inclusivity. The zero value is
// empty; use Full() for the unconstrained interval.
type Interval struct {
	Lo, Hi         float64
	LoIncl, HiIncl bool
}

// Full returns the interval matching every value.
func Full() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1), LoIncl: true, HiIncl: true}
}

// FromLeaf converts a leaf comparison into an interval. FromLeaf is
// total: an invalid op yields the empty interval (matching nothing).
// Invalid ops never reach evaluation from the wire — Decode and
// Query.Validate reject them with an error first — so the empty
// interval is only defense-in-depth for direct programmatic misuse.
func FromLeaf(op Op, v float64) Interval {
	switch op {
	case OpGT:
		return Interval{Lo: v, Hi: math.Inf(1), LoIncl: false, HiIncl: true}
	case OpGE:
		return Interval{Lo: v, Hi: math.Inf(1), LoIncl: true, HiIncl: true}
	case OpLT:
		return Interval{Lo: math.Inf(-1), Hi: v, LoIncl: true, HiIncl: false}
	case OpLE:
		return Interval{Lo: math.Inf(-1), Hi: v, LoIncl: true, HiIncl: true}
	case OpEQ:
		return Interval{Lo: v, Hi: v, LoIncl: true, HiIncl: true}
	}
	return Interval{Lo: 1, Hi: -1} // empty: Lo > Hi
}

// Empty reports whether no value can satisfy the interval.
func (iv Interval) Empty() bool {
	if iv.Lo > iv.Hi {
		return true
	}
	if iv.Lo == iv.Hi && !(iv.LoIncl && iv.HiIncl) {
		return true
	}
	return false
}

// Contains reports whether v satisfies the interval.
func (iv Interval) Contains(v float64) bool {
	if math.IsNaN(v) {
		return false
	}
	okLo := v > iv.Lo || (iv.LoIncl && v == iv.Lo)
	okHi := v < iv.Hi || (iv.HiIncl && v == iv.Hi)
	return okLo && okHi
}

// Intersect returns the conjunction of two intervals.
func (iv Interval) Intersect(o Interval) Interval {
	out := iv
	if o.Lo > out.Lo || (o.Lo == out.Lo && !o.LoIncl) {
		out.Lo, out.LoIncl = o.Lo, o.LoIncl
	}
	if o.Hi < out.Hi || (o.Hi == out.Hi && !o.HiIncl) {
		out.Hi, out.HiIncl = o.Hi, o.HiIncl
	}
	return out
}

// String formats the interval in math notation.
func (iv Interval) String() string {
	l, r := "(", ")"
	if iv.LoIncl {
		l = "["
	}
	if iv.HiIncl {
		r = "]"
	}
	return fmt.Sprintf("%s%g, %g%s", l, iv.Lo, iv.Hi, r)
}

// Conjunct maps each referenced object to the interval its values must
// lie in; it represents one AND-term of the DNF.
type Conjunct map[object.ID]Interval

// Empty reports whether any object's interval is unsatisfiable.
func (c Conjunct) Empty() bool {
	for _, iv := range c {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// ObjectsSorted returns the conjunct's object IDs in ascending order.
func (c Conjunct) ObjectsSorted() []object.ID {
	out := make([]object.ID, 0, len(c))
	for id := range c {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// MaxDepth bounds a condition tree's depth, a leaf being one level. Decode
// refuses a deeper tree with ErrTooDeep, and a client builds none
// (qlang.Parse, Validate): decoding recurses once per level, so an
// unbounded tree would grow a member's stack with the size of the
// payload, and a stack past Go's limit ends the process.
const MaxDepth = 128

// ErrTooDeep reports a condition tree deeper than MaxDepth.
var ErrTooDeep = fmt.Errorf("condition tree deeper than %d levels", MaxDepth)

// MaxConjuncts bounds DNF expansion; queries built from the paper's API
// patterns stay far below it.
const MaxConjuncts = 128

// Normalize converts a condition tree to disjunctive normal form, merging
// per-object conditions within each conjunct into a single interval.
// Unsatisfiable conjuncts are dropped; the result may therefore be empty,
// meaning the query matches nothing.
func Normalize(n *Node) ([]Conjunct, error) {
	if n == nil {
		return nil, fmt.Errorf("query: nil tree")
	}
	terms, err := dnf(n)
	if err != nil {
		return nil, err
	}
	out := terms[:0]
	for _, c := range terms {
		if !c.Empty() {
			out = append(out, c)
		}
	}
	return out, nil
}

func dnf(n *Node) ([]Conjunct, error) {
	if n == nil {
		return nil, fmt.Errorf("query: nil node in tree")
	}
	switch n.Kind {
	case KindLeaf:
		return []Conjunct{{n.Obj: FromLeaf(n.Op, n.Value)}}, nil
	case KindOr:
		l, err := dnf(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := dnf(n.Right)
		if err != nil {
			return nil, err
		}
		if len(l)+len(r) > MaxConjuncts {
			return nil, fmt.Errorf("query: DNF exceeds %d conjuncts", MaxConjuncts)
		}
		return append(l, r...), nil
	case KindAnd:
		l, err := dnf(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := dnf(n.Right)
		if err != nil {
			return nil, err
		}
		if len(l)*len(r) > MaxConjuncts {
			return nil, fmt.Errorf("query: DNF exceeds %d conjuncts", MaxConjuncts)
		}
		out := make([]Conjunct, 0, len(l)*len(r))
		for _, cl := range l {
			for _, cr := range r {
				m := make(Conjunct, len(cl)+len(cr))
				for id, iv := range cl {
					m[id] = iv
				}
				for id, iv := range cr {
					if have, ok := m[id]; ok {
						m[id] = have.Intersect(iv)
					} else {
						m[id] = iv
					}
				}
				out = append(out, m)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("query: bad node kind %d", n.Kind)
}

// --- wire format -----------------------------------------------------------

const wireVersion = 1

// Encode serializes the query for broadcast to servers.
func (q *Query) Encode() []byte {
	var buf []byte
	buf = append(buf, wireVersion)
	if q.Constraint != nil {
		buf = append(buf, 1, byte(q.Constraint.Rank()))
		for d := 0; d < q.Constraint.Rank(); d++ {
			buf = binary.LittleEndian.AppendUint64(buf, q.Constraint.Offset[d])
			buf = binary.LittleEndian.AppendUint64(buf, q.Constraint.Count[d])
		}
	} else {
		buf = append(buf, 0)
	}
	return encodeNode(buf, q.Root)
}

func encodeNode(buf []byte, n *Node) []byte {
	if n == nil {
		return append(buf, 255)
	}
	buf = append(buf, byte(n.Kind))
	if n.Kind == KindLeaf {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n.Obj))
		buf = append(buf, byte(n.Op))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.Value))
		return buf
	}
	buf = encodeNode(buf, n.Left)
	return encodeNode(buf, n.Right)
}

// Decode deserializes a query produced by Encode.
func Decode(b []byte) (*Query, error) {
	r := wire.NewReader(b)
	q := &Query{}
	switch version, marker := r.U8(), r.U8(); {
	case r.Err() != nil:
	case version != wireVersion:
		r.Fail(fmt.Errorf("unsupported wire version %d", version))
	case marker > 1: // Encode writes 0 or 1: a decoded query re-encodes to its bytes
		r.Fail(fmt.Errorf("bad constraint marker %d", marker))
	case marker == 1:
		rank := r.Count(uint64(r.U8()), 16)
		c := region.Region{Offset: make([]uint64, rank), Count: make([]uint64, rank)}
		for d := range rank {
			c.Offset[d], c.Count[d] = r.U64(), r.U64()
		}
		q.Constraint = &c
	}
	q.Root = decodeNode(&r, 1)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	if q.Root == nil {
		return nil, fmt.Errorf("query: empty condition tree")
	}
	return q, nil
}

// decodeNode reads one node, at the given level of the tree, and its
// subtree; nil for the nil marker (and on a failed read).
func decodeNode(r *wire.Reader, level int) *Node {
	k := Kind(r.U8())
	switch {
	case r.Err() != nil || k == 255:
		return nil
	case level > MaxDepth:
		r.Fail(ErrTooDeep)
		return nil
	case k == KindLeaf:
		n := &Node{Kind: KindLeaf, Obj: object.ID(r.U64()), Op: Op(r.U8()), Value: math.Float64frombits(r.U64())}
		if n.Op > OpEQ {
			r.Fail(fmt.Errorf("bad op %d", n.Op))
		}
		return n
	case k == KindAnd || k == KindOr:
		l := decodeNode(r, level+1)
		rt := decodeNode(r, level+1)
		if l == nil || rt == nil {
			r.Fail(fmt.Errorf("%v node with missing child", k))
		}
		return &Node{Kind: k, Left: l, Right: rt}
	}
	r.Fail(fmt.Errorf("bad node kind %d", k))
	return nil
}
