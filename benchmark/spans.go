package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval the harness recorded around one of its
// own calls. Spans of one statement share trace; parent is the id of
// the span that caused this one (0 for a root).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Trace   uint64 `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
	Stmt    string `json:"stmt,omitempty"`
}

// tracer collects spans in memory; one per goroutine, merged when the
// window ends, so recording takes no lock. base keeps ids of different
// tracers apart.
type tracer struct {
	base  uint64
	spans []span
}

func newTracer(lane int) *tracer { return &tracer{base: uint64(lane+1) << 40} }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent, trace uint64) int {
	id := t.base + uint64(len(t.spans)) + 1
	if trace == 0 {
		trace = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, StartNs: now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].EndNs = now() }

func (t *tracer) id(i int) uint64 { return t.spans[i].ID }

// selfTimes fills SelfNs: a span's duration minus the part of it its
// child spans cover (children of one parent run one after another
// here, so the covered part is the sum of their durations).
func selfTimes(spans []span) {
	covered := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i := range spans {
		spans[i].SelfNs = spans[i].EndNs - spans[i].StartNs - covered[spans[i].ID]
	}
}

// meanByName averages span durations (ns) per span name.
func meanByName(spans []span) map[string]float64 {
	sum, n := make(map[string]float64), make(map[string]float64)
	for _, s := range spans {
		sum[s.Name] += float64(s.EndNs - s.StartNs)
		n[s.Name]++
	}
	for k := range sum {
		sum[k] /= n[k]
	}
	return sum
}

// writeSpans writes one JSON object per line: first the spans in start
// order, then one {"metrics_delta": ...} object per member.
func writeSpans(path string, spans []span, deltas []series) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	for i, d := range deltas {
		if err := enc.Encode(map[string]any{"member": i, "metrics_delta": d}); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
