package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pdcquery/internal/vclock"
)

func sampleTrace() *Span {
	root := NewSpan(SpanQuery, "energy > 1.5")
	root.Trace = 42
	root.AddCost(vclock.CostOf(vclock.Meta, 100))
	conj := root.Child(SpanConjunct, "cond.0")
	conj.SetInt("in", 1000)
	conj.SetInt("out", 117)
	reg := conj.Child(SpanRegion, "region.3")
	reg.SetStr("decision", DecisionCacheHit)
	reg.AddInt("hits", 117)
	reg.AddCost(vclock.CostOf(vclock.Compute, 5000).Add(vclock.CostOf(vclock.Storage, 200)))
	pruned := conj.Child(SpanRegion, "region.4")
	pruned.SetStr("decision", DecisionHistogramPruned)
	return root
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	c := s.Child(SpanRegion, "r")
	if c != nil {
		t.Fatal("nil span Child should return nil")
	}
	s.SetInt("k", 1)
	s.AddInt("k", 1)
	s.SetStr("k", "v")
	s.AddCost(vclock.CostOf(vclock.Compute, 1))
	s.Adopt(NewSpan(SpanRegion, "x"))
	s.Walk(func(*Span) { t.Fatal("nil span Walk visited a node") })
	if _, ok := s.Int("k"); ok {
		t.Error("nil span Int returned ok")
	}
	if _, ok := s.Str("k"); ok {
		t.Error("nil span Str returned ok")
	}
	if got := s.Render(true); got != "" {
		t.Errorf("nil span Render = %q", got)
	}
	if got := s.SumInt("k"); got != 0 {
		t.Errorf("nil span SumInt = %d", got)
	}
}

func TestSpanAttrs(t *testing.T) {
	s := NewSpan(SpanRegion, "r")
	s.SetInt("n", 5)
	s.AddInt("n", 2)
	if v, ok := s.Int("n"); !ok || v != 7 {
		t.Errorf("Int(n) = %d,%v, want 7,true", v, ok)
	}
	s.SetStr("n", "now a string")
	if _, ok := s.Int("n"); ok {
		t.Error("Int succeeded after SetStr on same key")
	}
	if v, ok := s.Str("n"); !ok || v != "now a string" {
		t.Errorf("Str(n) = %q,%v", v, ok)
	}
}

func TestSpanEncodeDecodeRoundTrip(t *testing.T) {
	root := sampleTrace()
	root.WallNanos = 987654 // opt-in field; excluded below
	enc := root.Encode(false)
	if !bytes.Equal(enc, root.Encode(false)) {
		t.Fatal("span encoding is not deterministic")
	}
	dec, err := DecodeSpan(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.WallNanos != 0 {
		t.Errorf("wall nanos leaked into deterministic encoding: %d", dec.WallNanos)
	}
	if !bytes.Equal(dec.Encode(false), enc) {
		t.Error("decode(encode) does not round-trip")
	}
	if dec.Trace != 42 || dec.Cost.Part(vclock.Meta) != 100 {
		t.Errorf("root fields lost: trace=%d cost=%v", dec.Trace, dec.Cost)
	}
	reg := dec.Children[0].Children[0]
	if d, _ := reg.Str("decision"); d != DecisionCacheHit {
		t.Errorf("region decision = %q", d)
	}
	if reg.Cost.Part(vclock.Compute) != 5000 {
		t.Errorf("region compute cost = %v", reg.Cost.Part(vclock.Compute))
	}
	// Wall-clock fields round-trip only when explicitly included.
	dec2, err := DecodeSpan(root.Encode(true))
	if err != nil {
		t.Fatal(err)
	}
	if dec2.WallNanos != 987654 {
		t.Errorf("includeWall encoding lost wall nanos: %d", dec2.WallNanos)
	}
}

func TestDecodeSpanErrors(t *testing.T) {
	enc := sampleTrace().Encode(false)
	if _, err := DecodeSpan(append(append([]byte{}, enc...), 9)); err == nil {
		t.Error("trailing byte accepted")
	}
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeSpan(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// A frame claiming absurd attr/child counts must be rejected, not
	// allocated.
	deep := NewSpan(SpanQuery, "q")
	cur := deep
	for i := 0; i < maxSpanDepth+2; i++ {
		cur = cur.Child(SpanPhase, "p")
	}
	if _, err := DecodeSpan(deep.Encode(false)); err == nil {
		t.Error("over-deep span tree accepted")
	}
	// An attribute tag the encoder never writes (it writes 0 for an
	// integer, 1 for a string) is refused, not read as an integer.
	attr := NewSpan(SpanQuery, "q")
	attr.SetInt("k", 7)
	enc = attr.Encode(false)
	enc[len(enc)-4-8-1] = 2 // the tag, before the value and the child count
	if _, err := DecodeSpan(enc); err == nil {
		t.Error("attribute tag 2 accepted")
	}
}

func TestSpanRender(t *testing.T) {
	root := sampleTrace()
	root.WallNanos = 5
	out := root.Render(false)
	if out != root.Render(false) {
		t.Fatal("Render is not deterministic")
	}
	for _, want := range []string{
		"query energy > 1.5 trace=42",
		"\n  conjunct cond.0 in=1000 out=117\n",
		"decision=cache-hit",
		"decision=histogram-pruned",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "wall=") {
		t.Error("wall field rendered without includeWall")
	}
	if !strings.Contains(root.Render(true), "wall=5ns") {
		t.Error("includeWall render missing wall field")
	}
}

func TestSumIntAndWalk(t *testing.T) {
	root := sampleTrace()
	if got := root.SumInt("hits"); got != 117 {
		t.Errorf("SumInt(hits) = %d, want 117", got)
	}
	var kinds []SpanKind
	root.Walk(func(s *Span) { kinds = append(kinds, s.Kind) })
	want := []SpanKind{SpanQuery, SpanConjunct, SpanRegion, SpanRegion}
	if len(kinds) != len(want) {
		t.Fatalf("Walk visited %d spans, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("walk order[%d] = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestClocks(t *testing.T) {
	if NoClock.Now() != 0 {
		t.Error("NoClock must read zero")
	}
	if Frozen(77).Now() != 77 {
		t.Error("Frozen clock must read its pinned value")
	}
	now := Wall.Now()
	if now <= 0 || time.Duration(now) < 50*365*24*time.Hour {
		t.Errorf("Wall.Now() = %d, want a plausible unix-nano reading", now)
	}
}
