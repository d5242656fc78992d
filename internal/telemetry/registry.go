package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"pdcquery/internal/histogram"
	"pdcquery/internal/wire"
)

// Distribution is a mergeable distribution of observed values (costs,
// latencies, sizes) backed by the paper's power-of-two histogram: two
// distributions from different servers merge exactly, bin counts
// re-aggregating onto the coarser grid, so a cluster-wide latency
// distribution is not an approximation of the per-server ones — it IS
// their merge. An exact running sum rides along for averages.
type Distribution struct {
	Hist *histogram.Histogram
	Sum  float64
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution {
	return &Distribution{Hist: &histogram.Histogram{Width: 1, Min: math.Inf(1), Max: math.Inf(-1)}}
}

// Observe adds one value.
func (d *Distribution) Observe(v float64) {
	d.Hist.Observe(v)
	d.Sum += v
}

// Count returns the number of observed values.
func (d *Distribution) Count() uint64 { return d.Hist.Total }

// Merge folds o into d (histogram merge + sum).
func (d *Distribution) Merge(o *Distribution) {
	if o == nil {
		return
	}
	d.Hist.Merge(o.Hist)
	d.Sum += o.Sum
}

// Clone returns a deep copy.
func (d *Distribution) Clone() *Distribution {
	return &Distribution{Hist: d.Hist.Clone(), Sum: d.Sum}
}

// Quantile estimates the q-quantile of the observed values by
// interpolating inside the backing histogram's bins. Because the
// histograms merge exactly, a quantile over merged per-server
// distributions is the quantile of the union of their observations (to
// bin resolution) — the substrate the phase-level p50/p95/p99 SLO
// accounting stands on.
func (d *Distribution) Quantile(q float64) float64 {
	return d.Hist.Quantile(q)
}

// Bucket is one cumulative bucket of a distribution rendered for
// exposition: Count observations were <= UpperBound.
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// Buckets re-bins the distribution into at most max cumulative buckets
// (Prometheus-style le/count pairs). The grouping is deterministic:
// adjacent histogram bins are coalesced with a fixed stride.
func (d *Distribution) Buckets(max int) []Bucket {
	h := d.Hist
	if h.Total == 0 || len(h.Counts) == 0 {
		return nil
	}
	if max < 1 {
		max = 1
	}
	stride := (len(h.Counts) + max - 1) / max
	var out []Bucket
	var cum uint64
	for i := 0; i < len(h.Counts); i += stride {
		end := i + stride
		if end > len(h.Counts) {
			end = len(h.Counts)
		}
		for _, c := range h.Counts[i:end] {
			cum += c
		}
		out = append(out, Bucket{UpperBound: h.Start + float64(end)*h.Width, Count: cum})
	}
	return out
}

// Registry is a thread-safe set of named counters, gauges, and
// distributions. A deployment runs one per server (plus one per client
// connection for per-connection views); Registry.Merge composes them
// into exact cluster-wide metrics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	dists    map[string]*Distribution
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		dists:    make(map[string]*Distribution),
	}
}

// Add increments counter name by n.
func (r *Registry) Add(name string, n int64) {
	r.mu.Lock()
	r.counters[name] += n
	r.mu.Unlock()
}

// Counter returns the current value of a counter (zero when unset).
func (r *Registry) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge sets gauge name to v.
func (r *Registry) SetGauge(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Gauge returns the current value of a gauge (zero when unset).
func (r *Registry) Gauge(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Observe adds v to distribution name, creating it on first use.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	d := r.dists[name]
	if d == nil {
		d = NewDistribution()
		r.dists[name] = d
	}
	d.Observe(v)
	r.mu.Unlock()
}

// Dist returns a copy of distribution name, or nil when unset.
func (r *Registry) Dist(name string) *Distribution {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.dists[name]
	if d == nil {
		return nil
	}
	return d.Clone()
}

// AddCounters feeds a counter map (e.g. vclock.Account.CounterSnapshot)
// into the registry, prefixing every name.
func (r *Registry) AddCounters(prefix string, m map[string]int64) {
	r.mu.Lock()
	for k, v := range m {
		r.counters[prefix+k] += v
	}
	r.mu.Unlock()
}

// Merge folds o into r: counters and gauges add, distributions merge via
// the histogram merge. Merging per-server registries therefore yields the
// exact deployment-wide registry, not an approximation.
func (r *Registry) Merge(o *Registry) {
	if o == nil || o == r {
		return
	}
	// Snapshot o under its own lock, then apply under r's: the two locks
	// are never held together, so cross-merges cannot deadlock.
	o.mu.Lock()
	counters := make(map[string]int64, len(o.counters))
	for k, v := range o.counters {
		counters[k] = v
	}
	gauges := make(map[string]float64, len(o.gauges))
	for k, v := range o.gauges {
		gauges[k] = v
	}
	dists := make(map[string]*Distribution, len(o.dists))
	for k, d := range o.dists {
		dists[k] = d.Clone()
	}
	o.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range counters {
		r.counters[k] += v
	}
	for k, v := range gauges {
		r.gauges[k] += v
	}
	for k, d := range dists {
		if mine := r.dists[k]; mine != nil {
			mine.Merge(d)
		} else {
			r.dists[k] = d
		}
	}
}

// Clone returns a deep copy.
func (r *Registry) Clone() *Registry {
	c := NewRegistry()
	c.Merge(r)
	return c
}

// CounterNames returns the counter names in sorted order.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.counters)
}

// GaugeNames returns the gauge names in sorted order.
func (r *Registry) GaugeNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.gauges)
}

// DistNames returns the distribution names in sorted order.
func (r *Registry) DistNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.dists)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- wire encoding -----------------------------------------------------------

const regMagic = uint32(0x50444354) // "PDCT"

// Encode serializes the registry deterministically (names sorted).
func (r *Registry) Encode() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := binary.LittleEndian.AppendUint32(nil, regMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.counters)))
	for _, k := range sortedKeys(r.counters) {
		buf = appendString(buf, k)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.counters[k]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.gauges)))
	for _, k := range sortedKeys(r.gauges) {
		buf = appendString(buf, k)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.gauges[k]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.dists)))
	for _, k := range sortedKeys(r.dists) {
		d := r.dists[k]
		buf = appendString(buf, k)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Sum))
		hb := d.Hist.Encode()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hb)))
		buf = append(buf, hb...)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// DecodeRegistry parses a registry produced by Encode.
func DecodeRegistry(b []byte) (*Registry, error) {
	r := wire.NewReader(b)
	if r.U32() != regMagic {
		return nil, fmt.Errorf("telemetry: bad registry magic")
	}
	reg := NewRegistry()
	// Every entry takes at least its name's length prefix and its value;
	// a distribution's value is a sum and a histogram's length prefix.
	for range r.Count(uint64(r.U32()), 4+8) {
		k := string(r.Bytes(uint64(r.U32())))
		reg.counters[k] = int64(r.U64())
	}
	for range r.Count(uint64(r.U32()), 4+8) {
		k := string(r.Bytes(uint64(r.U32())))
		reg.gauges[k] = math.Float64frombits(r.U64())
	}
	for range r.Count(uint64(r.U32()), 4+8+4) {
		k := string(r.Bytes(uint64(r.U32())))
		sum := math.Float64frombits(r.U64())
		hb := r.Bytes(uint64(r.U32()))
		if r.Err() != nil {
			break
		}
		h, err := histogram.Decode(hb)
		if err != nil {
			return nil, err
		}
		reg.dists[k] = &Distribution{Hist: h, Sum: sum}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("telemetry: registry: %w", err)
	}
	return reg, nil
}
