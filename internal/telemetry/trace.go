package telemetry

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"pdcquery/internal/vclock"
	"pdcquery/internal/wire"
)

// SpanKind classifies a span in the query trace tree.
type SpanKind uint8

// Span kinds: a traced query forms the tree
// query → server → conjunct → region / sorted-region, with phase spans
// (metadata, merge, transfer) interleaved where the client models them.
const (
	SpanQuery        SpanKind = iota // one query, client- or server-side root
	SpanServer                       // one server's share (client aggregation)
	SpanConjunct                     // one AND-term of the normalized query
	SpanRegion                       // one original region's evaluation
	SpanSortedRegion                 // one sorted-replica region's evaluation
	SpanPhase                        // a modeled phase (broadcast, merge, ...)
)

// String returns the kind label used in rendered traces.
func (k SpanKind) String() string {
	switch k {
	case SpanQuery:
		return "query"
	case SpanServer:
		return "server"
	case SpanConjunct:
		return "conjunct"
	case SpanRegion:
		return "region"
	case SpanSortedRegion:
		return "sorted-region"
	case SpanPhase:
		return "phase"
	}
	return fmt.Sprintf("SpanKind(%d)", uint8(k))
}

// Region decision attribute values (attr key "decision"): what the
// engine did with a region and why — the paper's §VI per-phase story at
// region granularity.
const (
	DecisionHistogramPruned = "histogram-pruned" // eliminated by region histogram/min-max
	DecisionBitmapProbed    = "bitmap-probed"    // resolved from the bitmap index
	DecisionCacheHit        = "cache-hit"        // scanned from the region cache
	DecisionFullScan        = "full-scan"        // PDC-F: read and scanned unconditionally
	DecisionScan            = "scan"             // read from storage and scanned
)

// Attr is one span attribute. Attribute order is insertion order and is
// part of the deterministic encoding.
type Attr struct {
	Key string
	// IsStr selects which of Str/Int carries the value.
	IsStr bool
	Str   string
	Int   int64
}

// Span is one node of a query trace. All methods are nil-safe: code
// instruments unconditionally and passes a nil span when tracing is off,
// so the untraced hot path pays only a nil check.
type Span struct {
	Kind SpanKind
	Name string
	// Trace is the query's TraceID; set on root spans only.
	Trace TraceID
	// Cost is the span's virtual-time cost, inclusive of its children:
	// instrumentation records the account-cost delta across the span's
	// whole execution, so a parent's cost is >= the sum of its children
	// and the root's cost is the query's total.
	Cost vclock.Cost
	// WallNanos is the opt-in wall-clock duration (zero unless a real
	// Clock was installed); it is excluded from deterministic encodings.
	WallNanos int64
	Attrs     []Attr
	Children  []*Span
}

// NewSpan returns a root span.
func NewSpan(kind SpanKind, name string) *Span {
	return &Span{Kind: kind, Name: name}
}

// Child appends and returns a child span; returns nil when s is nil.
func (s *Span) Child(kind SpanKind, name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Kind: kind, Name: name}
	s.Children = append(s.Children, c)
	return c
}

// Adopt appends an existing span as a child (used by client-side
// aggregation of per-server traces).
func (s *Span) Adopt(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.Children = append(s.Children, c)
}

func (s *Span) attr(key string) *Attr {
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			return &s.Attrs[i]
		}
	}
	return nil
}

// SetInt sets an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	if a := s.attr(key); a != nil {
		a.Int, a.IsStr = v, false
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Int: v})
}

// AddInt adds delta to an integer attribute, creating it at zero.
func (s *Span) AddInt(key string, delta int64) {
	if s == nil {
		return
	}
	if a := s.attr(key); a != nil {
		a.Int += delta
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Int: delta})
}

// SetStr sets a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	if a := s.attr(key); a != nil {
		a.Str, a.IsStr = v, true
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: v, IsStr: true})
}

// Int returns an integer attribute's value.
func (s *Span) Int(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	if a := s.attr(key); a != nil && !a.IsStr {
		return a.Int, true
	}
	return 0, false
}

// Str returns a string attribute's value.
func (s *Span) Str(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	if a := s.attr(key); a != nil && a.IsStr {
		return a.Str, true
	}
	return "", false
}

// AddCost accumulates virtual cost on the span.
func (s *Span) AddCost(k vclock.Cost) {
	if s == nil {
		return
	}
	s.Cost = s.Cost.Add(k)
}

// Walk visits the span and all descendants depth-first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// SumInt sums an integer attribute over the span and all descendants.
func (s *Span) SumInt(key string) int64 {
	var total int64
	s.Walk(func(sp *Span) {
		if v, ok := sp.Int(key); ok {
			total += v
		}
	})
	return total
}

// Render formats the span tree for humans: one line per span with kind,
// name, cost, and attributes, indented by depth. Wall-clock fields are
// included only when includeWall is set, keeping the default rendering
// deterministic.
func (s *Span) Render(includeWall bool) string {
	var b strings.Builder
	s.render(&b, 0, includeWall)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int, includeWall bool) {
	if s == nil {
		return
	}
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(s.Kind.String())
	if s.Name != "" && s.Name != s.Kind.String() {
		fmt.Fprintf(b, " %s", s.Name)
	}
	if s.Trace != 0 {
		fmt.Fprintf(b, " trace=%d", uint64(s.Trace))
	}
	if s.Cost.Total() != 0 {
		fmt.Fprintf(b, " cost=%v", s.Cost.Total())
	}
	for _, a := range s.Attrs {
		if a.IsStr {
			fmt.Fprintf(b, " %s=%s", a.Key, a.Str)
		} else {
			fmt.Fprintf(b, " %s=%d", a.Key, a.Int)
		}
	}
	if includeWall && s.WallNanos != 0 {
		fmt.Fprintf(b, " wall=%dns", s.WallNanos)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		c.render(b, depth+1, includeWall)
	}
}

// --- wire encoding -----------------------------------------------------------

// maxSpanDepth bounds the decoder's recursion against corrupt or hostile
// frames (it runs on the client against server bytes); the reader bounds
// every count.
const maxSpanDepth = 64

// Encode serializes the span tree. Wall-clock fields are included only
// when includeWall is set — the deterministic protocol encoding (golden
// tests, traces returned to clients of simulated deployments) omits them.
func (s *Span) Encode(includeWall bool) []byte {
	return s.encode(nil, includeWall)
}

func (s *Span) encode(buf []byte, includeWall bool) []byte {
	buf = append(buf, byte(s.Kind))
	buf = appendString(buf, s.Name)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Trace))
	for c := vclock.Storage; c <= vclock.Meta; c++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Cost.Part(c)))
	}
	wall := int64(0)
	if includeWall {
		wall = s.WallNanos
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(wall))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Attrs)))
	for _, a := range s.Attrs {
		buf = appendString(buf, a.Key)
		if a.IsStr {
			buf = append(buf, 1)
			buf = appendString(buf, a.Str)
		} else {
			buf = append(buf, 0)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Int))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Children)))
	for _, c := range s.Children {
		buf = c.encode(buf, includeWall)
	}
	return buf
}

// DecodeSpan parses a span tree produced by Encode.
func DecodeSpan(b []byte) (*Span, error) {
	r := wire.NewReader(b)
	s := decodeSpan(&r, 0)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("telemetry: span: %w", err)
	}
	return s, nil
}

// Every attribute takes at least its key's length prefix, its tag and a
// string value's length prefix; every span at least its fixed fields.
const (
	minAttrBytes = 4 + 1 + 4
	minSpanBytes = 1 + 4 + 8 + 32 + 8 + 4 + 4
)

func decodeSpan(r *wire.Reader, depth int) *Span {
	if depth > maxSpanDepth {
		r.Fail(fmt.Errorf("span nesting exceeds %d", maxSpanDepth))
		return nil
	}
	s := &Span{Kind: SpanKind(r.U8())}
	s.Name = string(r.Bytes(uint64(r.U32())))
	s.Trace = TraceID(r.U64())
	for c := vclock.Storage; c <= vclock.Meta; c++ {
		s.Cost = s.Cost.Add(vclock.CostOf(c, time.Duration(r.U64())))
	}
	s.WallNanos = int64(r.U64())
	for range r.Count(uint64(r.U32()), minAttrBytes) {
		a := Attr{Key: string(r.Bytes(uint64(r.U32())))}
		switch tag := r.U8(); tag {
		case 0:
			a.Int = int64(r.U64())
		case 1:
			a.IsStr, a.Str = true, string(r.Bytes(uint64(r.U32())))
		default: // encode writes 0 or 1: a decoded span re-encodes to its bytes
			r.Fail(fmt.Errorf("attribute %q: bad tag %d", a.Key, tag))
		}
		s.Attrs = append(s.Attrs, a)
	}
	for range r.Count(uint64(r.U32()), minSpanBytes) {
		s.Children = append(s.Children, decodeSpan(r, depth+1))
	}
	return s
}
