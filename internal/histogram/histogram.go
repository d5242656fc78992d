// Package histogram implements the paper's mergeable region histograms and
// the global histogram built from them (Algorithm 1 and §IV).
//
// The key idea: pre-determining shared bin boundaries for all regions would
// require a global scan, so instead every region histogram independently
// picks a bin width that is a power of two (..., 0.25, 0.5, 1, 2, ...) and
// aligns its bin boundaries to multiples of that width. Any two such
// histograms have divisible widths and aligned boundaries, so they can be
// merged exactly — bin counts re-aggregate into the coarser grid without
// splitting — producing a "global" histogram for the whole object.
//
// The histogram serves the two purposes in §III-D2: region elimination
// (via exact min/max kept per histogram) and selectivity estimation (lower
// bound = fully covered bins, upper bound = plus partially covered bins).
package histogram

import (
	"encoding/binary"
	"fmt"
	"math"

	"pdcquery/internal/dtype"
	"pdcquery/internal/wire"
)

// DefaultBins is the default lower bound on the number of bins; the paper
// uses 50 to 100 bins per region depending on region size.
const DefaultBins = 64

// Histogram is a fixed-width binned histogram whose bin width is an exact
// power of two and whose bin boundaries are integer multiples of the bin
// width. Bin i covers [Start + i*Width, Start + (i+1)*Width); values that
// fall outside (possible because min/max are estimated from a sample)
// extend the grid by whole aligned bins, and the exact Min/Max are
// tracked separately. (Algorithm 1 lines 12–17 instead widen the edge
// boundaries; see add for why extension is used here.)
type Histogram struct {
	// Width is the bin width, 2^k for some integer k.
	Width float64
	// Start is the lower boundary of bin 0, an integer multiple of Width.
	Start float64
	// Counts holds the per-bin element counts.
	Counts []uint64
	// Min and Max are the exact observed data minimum and maximum.
	Min, Max float64
	// Total is the number of counted (non-NaN) elements, including the
	// infinite ones below.
	Total uint64
	// NegInf and PosInf count observed -Inf/+Inf values. Infinities
	// cannot live on a finite bin grid: clamping them into an edge bin
	// (the old behavior) strands them in an interior bin once the grid
	// grows, silently breaking both Estimate bounds. They are counted
	// here instead and folded back in by Estimate and Quantile.
	NegInf, PosInf uint64
}

// gridLimit bounds the bin grid: every bin lies inside [-gridLimit,
// gridLimit). Grid arithmetic — hi-lo, Start+n*Width, the merged span —
// adds and subtracts bin boundaries, and with boundaries near
// ±MaxFloat64 those sums overflow: a width that doubles to +Inf and a
// start of NaN. Below 2^1020 every such sum of a few boundaries and a
// width stays finite. A finite value at or beyond the limit is binned
// with the largest value below it (gridTop), i.e. in the bin that ends
// at the limit. No grid grows past the limit, so that bin is an edge bin
// of every histogram it is ever merged into, and an edge bin's range is
// widened to the exact Min/Max (BinRange): the value stays inside the
// range its bin reports.
const gridLimit = 0x1p1020

var gridTop = math.Nextafter(gridLimit, 0)

// onGrid is where v is binned: v itself, or ±gridTop for a finite value
// at or beyond the grid limit.
func onGrid(v float64) float64 {
	return max(-gridTop, min(v, gridTop))
}

// powFloor rounds w down to the nearest power of two (2^k, k may be
// negative). It returns 1 for non-positive or non-finite inputs.
func powFloor(w float64) float64 {
	if !(w > 0) || math.IsInf(w, 1) {
		return 1
	}
	return math.Exp2(math.Floor(math.Log2(w)))
}

// sampleMinMax estimates min and max from a deterministic ~10% sample
// (every 10th element), the reproducible stand-in for the paper's random
// 10% sample. Small inputs are scanned fully. NaNs and infinities are
// skipped: the bin grid must be built from finite values (±Inf data is
// counted off-grid by add), taken where they are binned (onGrid).
func sampleMinMax[E dtype.Native](values []E) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	stride := 10
	if len(values) < 100 {
		stride = 1
	}
	for i := 0; i < len(values); i += stride {
		v := float64(values[i])
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		v = onGrid(v)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Build constructs a mergeable histogram over values with at least nbin
// bins (Algorithm 1). The actual bin count may differ because the width is
// rounded down to a power of two and the boundaries are grid-aligned; the
// paper accepts this since selectivity estimation does not require an
// exact bin count. NaN values are ignored. Build returns an empty (zero
// Total) histogram for empty input.
//
// The grid is confined to [-gridLimit, gridLimit) = ±2^1020, where its
// arithmetic cannot overflow. Finite values beyond that are not an error
// and are not dropped: they are counted in the edge bin that ends at the
// limit, whose reported range (BinRange) widens to the exact Min/Max, so
// Estimate still brackets them and CheckInvariants holds for any input.
func Build(values []float64, nbin int) *Histogram {
	return build(values, nbin)
}

// BuildBytes builds a histogram directly over a raw region buffer of the
// given element type. Each element is read as its own type and widened
// to float64 as dtype.At widens it, so the result is Build's over the
// widened values, byte for byte, without materializing them.
func BuildBytes(t dtype.Type, data []byte, nbin int) *Histogram {
	switch t {
	case dtype.Float32:
		return build(dtype.View[float32](data), nbin)
	case dtype.Float64:
		return build(dtype.View[float64](data), nbin)
	case dtype.Int8:
		return build(dtype.View[int8](data), nbin)
	case dtype.Int16:
		return build(dtype.View[int16](data), nbin)
	case dtype.Int32:
		return build(dtype.View[int32](data), nbin)
	case dtype.Int64:
		return build(dtype.View[int64](data), nbin)
	case dtype.Uint8:
		return build(dtype.View[uint8](data), nbin)
	case dtype.Uint16:
		return build(dtype.View[uint16](data), nbin)
	case dtype.Uint32:
		return build(dtype.View[uint32](data), nbin)
	case dtype.Uint64:
		return build(dtype.View[uint64](data), nbin)
	}
	return build([]float64(nil), nbin)
}

// build is Build over elements of any native type, each widened to
// float64.
func build[E dtype.Native](values []E, nbin int) *Histogram {
	if nbin <= 0 {
		nbin = DefaultBins
	}
	lo, hi := sampleMinMax(values)
	if math.IsInf(lo, 1) {
		// No finite values in the sample. Any non-NaN values (±Inf) are
		// still binned below on a trivial one-bin grid so Total and the
		// exact Min/Max reflect them and region elimination stays sound.
		lo, hi = 0, 0
	}
	w := powFloor((hi - lo) / float64(nbin))
	start := math.Floor(lo/w) * w
	// The spare bin beyond hi must not start at the grid limit.
	n := int(min(math.Ceil((hi-start)/w)+1, (gridLimit-start)/w))
	if n < 1 {
		n = 1
	}
	h := &Histogram{
		Width:  w,
		Start:  start,
		Counts: make([]uint64, n),
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
	}
	addAll(h, values)
	return h
}

// addAll adds every non-NaN value to h in order, exactly as a loop of
// add would. The common case, a finite value that lands on the current
// grid, runs inline with the grid's offset in widths hoisted and the
// totals in locals; anything else (an infinity, a value off the grid)
// goes through add, after which the grid is reloaded.
func addAll[E dtype.Native](h *Histogram, values []E) {
	counts, width, off := h.Counts, h.Width, h.Start/h.Width
	total, lo, hi := h.Total, h.Min, h.Max
	for _, e := range values {
		v := float64(e)
		if v != v { // NaN
			continue
		}
		fj := math.Floor(onGrid(v)/width) - off
		if fj >= 0 && fj < float64(len(counts)) && !math.IsInf(v, 0) {
			counts[int(fj)]++
			total++
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			continue
		}
		h.Total, h.Min, h.Max = total, lo, hi
		h.add(v)
		counts, width, off = h.Counts, h.Width, h.Start/h.Width
		total, lo, hi = h.Total, h.Min, h.Max
	}
	h.Total, h.Min, h.Max = total, lo, hi
}

// maxGrow bounds grid extension for extreme outliers; beyond it a value
// is merged in as a singleton histogram, which coarsens the bin width
// until the grid spans the outlier (the same path Observe uses). Values
// are never clamped into a bin that does not cover them: a clamped
// count turns into a wrong Estimate bound as soon as the grid grows
// past it.
const maxGrow = 1 << 16

// maxMergeBins bounds the merged grid size. Two histograms whose data
// lies far apart (narrow local ranges at distant values) would otherwise
// need span/width bins — easily gigabytes for a few elements. Merge
// doubles the bin width until the span fits, trading resolution for a
// bounded footprint while keeping the power-of-two/aligned invariants.
const maxMergeBins = 1 << 16

// add places v on the histogram grid. Values outside the sampled range
// extend the grid by whole bins — Algorithm 1 instead adjusts the edge
// boundary (lines 12–17), but extension keeps every bin's nominal range
// truthful so that merged histograms still bracket exact counts; the
// grid stays power-of-two aligned either way. Values too far away to
// extend toward coarsen the grid via a singleton merge; infinities are
// counted off-grid (NegInf/PosInf). Either way no bin ever holds a
// value outside its nominal range.
func (h *Histogram) add(v float64) {
	if math.IsInf(v, 0) {
		if v < 0 {
			h.NegInf++
		} else {
			h.PosInf++
		}
		h.Total++
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
		return
	}
	// Compute the bin index in float space: converting a value further
	// than maxInt bins from the grid straight to int overflows the
	// conversion (the result is platform-specific, e.g. minInt), which
	// used to turn the grow amount negative and panic in make.
	// Start is a whole number of widths, so the index is the difference of
	// two whole numbers; (v - Start) / Width would first absorb a v that
	// is tiny beside Start and put it on the wrong side of a boundary.
	fj := math.Floor(onGrid(v)/h.Width) - h.Start/h.Width
	if fj < 0 {
		grow := -fj
		if grow > maxGrow {
			h.Merge(Build([]float64{v}, 1))
			return
		}
		g := int(grow)
		h.Counts = append(make([]uint64, g, g+len(h.Counts)), h.Counts...)
		h.Start -= float64(g) * h.Width
		fj = 0
	}
	if fj >= float64(len(h.Counts)) {
		grow := fj - float64(len(h.Counts)) + 1
		if grow > maxGrow {
			h.Merge(Build([]float64{v}, 1))
			return
		}
		h.Counts = append(h.Counts, make([]uint64, int(grow))...)
		if fj >= float64(len(h.Counts)) {
			fj = float64(len(h.Counts) - 1)
		}
	}
	h.Counts[int(fj)]++
	h.Total++
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
}

// Observe adds one value incrementally, for histograms that accumulate a
// stream (telemetry distributions) rather than binning a known buffer.
// The first observation seeds a singleton grid via Build; later values
// near the grid reuse add's aligned extension, and values too far away
// for extension merge in as a singleton histogram, which coarsens the
// width instead of clamping — keeping stream histograms exact and
// mergeable no matter how wide the value range grows. NaNs are ignored,
// matching Build; infinities go to the off-grid NegInf/PosInf counts.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if h.Total == 0 {
		*h = *Build([]float64{v}, 1)
		return
	}
	h.add(v)
}

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.Counts) }

// BinRange returns the [lo, hi) boundary of bin i, widened at the edges
// to the exact observed finite Min/Max should those lie outside the
// grid. An infinite extremum widens nothing by itself: infinities are
// counted off-grid (NegInf/PosInf). Beside one, though, an edge bin at
// the grid limit — the bin that holds the finite values beyond the
// limit — covers the rest of the finite range: down to -MaxFloat64, or
// up to an exclusive +Inf (Quantile keeps that bound out of its
// interpolation, where -Inf + q·(+Inf) used to produce NaN).
func (h *Histogram) BinRange(i int) (lo, hi float64) {
	lo = h.Start + float64(i)*h.Width
	hi = lo + h.Width
	if i == 0 && h.Min < lo {
		if !math.IsInf(h.Min, -1) {
			lo = h.Min
		} else if lo <= -gridLimit {
			lo = -math.MaxFloat64
		}
	}
	if i == len(h.Counts)-1 && h.Max >= hi {
		if !math.IsInf(h.Max, 1) {
			hi = math.Nextafter(h.Max, math.Inf(1))
		} else if hi >= gridLimit {
			hi = math.Inf(1)
		}
	}
	return lo, hi
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values:
// it walks the cumulative bin counts to the bin containing the rank and
// interpolates linearly inside it, clamping to the exact observed
// [Min, Max]. q=0 reports the exact Min and q=1 the exact Max (either
// may be ±Inf when the data held infinities); a NaN q propagates as
// NaN; an empty or nil histogram reports 0 for any q.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.Total == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.Total)
	// The off-grid -Inf observations occupy the lowest ranks; +Inf ones
	// are the h.Max fallthrough past the last bin.
	if rank <= float64(h.NegInf) {
		return math.Inf(-1)
	}
	cum := float64(h.NegInf)
	for i, c := range h.Counts {
		next := cum + float64(c)
		if c > 0 && next >= rank {
			lo, hi := h.BinRange(i)
			hi = min(hi, math.MaxFloat64)
			v := lo + (rank-cum)/float64(c)*(hi-lo)
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
		cum = next
	}
	return h.Max
}

// Merge merges o into h in place. Both histograms must come from Build (or
// Merge), so their widths are powers of two and boundaries grid-aligned;
// Merge re-bins the finer histogram into the coarser grid, growing the
// grid to cover both. Merging an empty histogram is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.Total == 0 {
		return
	}
	if h.Total == 0 {
		*h = *o.Clone()
		return
	}
	w := h.Width
	if o.Width > w {
		w = o.Width
	}
	// New grid start: the smaller start, aligned down to the coarse grid.
	start := h.Start
	if o.Start < start {
		start = o.Start
	}
	start = math.Floor(start/w) * w
	endH := h.Start + float64(len(h.Counts))*h.Width
	endO := o.Start + float64(len(o.Counts))*o.Width
	end := endH
	if endO > end {
		end = endO
	}
	// Size the merged grid in float space (the span/width ratio can
	// exceed maxInt), coarsening the width until it fits maxMergeBins.
	fn := math.Ceil((end - start) / w)
	for fn > maxMergeBins {
		w *= 2
		start = math.Floor(start/w) * w
		fn = math.Ceil((end - start) / w)
	}
	n := int(fn)
	if n < 1 {
		n = 1
	}
	counts := make([]uint64, n)
	rebin := func(src *Histogram) {
		for i, c := range src.Counts {
			if c == 0 {
				continue
			}
			// Use the bin's lower boundary: because src boundaries are
			// multiples of src.Width and w is a multiple of src.Width with
			// aligned start, the whole source bin lands in one dest bin.
			lo := src.Start + float64(i)*src.Width
			j := int(math.Floor(lo/w) - start/w)
			if j < 0 {
				j = 0
			}
			if j >= n {
				j = n - 1
			}
			counts[j] += c
		}
	}
	rebin(h)
	rebin(o)
	h.Width = w
	h.Start = start
	h.Counts = counts
	h.Total += o.Total
	h.NegInf += o.NegInf
	h.PosInf += o.PosInf
	if o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

// MergeAll merges a set of histograms into a fresh global histogram.
func MergeAll(hs []*Histogram) *Histogram {
	g := &Histogram{Width: 1, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, h := range hs {
		g.Merge(h)
	}
	return g
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.Counts = make([]uint64, len(h.Counts))
	copy(c.Counts, h.Counts)
	return &c
}

// Overlaps reports whether any data could satisfy lo <= v <= hi (bounds
// are treated inclusively when loIncl/hiIncl), using the exact min/max.
// This is the paper's region-elimination test.
func (h *Histogram) Overlaps(lo, hi float64, loIncl, hiIncl bool) bool {
	if h.Total == 0 {
		return false
	}
	if hi < h.Min || (hi == h.Min && !hiIncl) {
		return false
	}
	if lo > h.Max || (lo == h.Max && !loIncl) {
		return false
	}
	return true
}

// Estimate returns lower and upper bounds on the number of elements v with
// lo (<|<=) v (<|<=) hi: bins entirely inside the query range count toward
// both bounds; bins partially overlapping count toward the upper bound
// only (§III-D2). Off-grid infinities contribute exactly: ±Inf matches a
// predicate only at a closed infinite endpoint, so their counts go to
// both bounds when matched and to neither otherwise.
func (h *Histogram) Estimate(lo, hi float64, loIncl, hiIncl bool) (lower, upper uint64) {
	if !h.Overlaps(lo, hi, loIncl, hiIncl) {
		return 0, 0
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		bLo, bHi := h.BinRange(i) // bin values lie in [bLo, bHi)
		// Skip bins with no possible overlap.
		if bHi <= lo || bLo > hi || (bLo == hi && !hiIncl) {
			continue
		}
		// A bin counts toward the lower bound only if every value it
		// could hold satisfies the predicate.
		fullyLo := bLo > lo || (bLo == lo && loIncl)
		fullyHi := bHi <= hi // values are strictly below bHi
		if fullyLo && fullyHi {
			lower += c
		}
		upper += c
	}
	// v = -Inf satisfies lo ≤ v only as lo = -Inf with a closed endpoint,
	// and satisfies v ≤ hi for any hi above it (or hi = -Inf closed);
	// mirrored for +Inf. Both conditions are decidable from the interval
	// alone, so the infinite counts tighten both bounds, not just upper.
	if h.NegInf > 0 && math.IsInf(lo, -1) && loIncl && (hi > lo || hiIncl) {
		lower += h.NegInf
		upper += h.NegInf
	}
	if h.PosInf > 0 && math.IsInf(hi, 1) && hiIncl && (lo < hi || loIncl) {
		lower += h.PosInf
		upper += h.PosInf
	}
	return lower, upper
}

// SelectivityBounds returns the estimated selectivity range as fractions
// of the total element count.
func (h *Histogram) SelectivityBounds(lo, hi float64, loIncl, hiIncl bool) (low, high float64) {
	if h.Total == 0 {
		return 0, 0
	}
	l, u := h.Estimate(lo, hi, loIncl, hiIncl)
	return float64(l) / float64(h.Total), float64(u) / float64(h.Total)
}

// alignedTo reports whether a is an integer multiple of w (within one ulp
// of slack), used by invariant checks and tests.
func alignedTo(a, w float64) bool {
	q := a / w
	return q == math.Trunc(q)
}

// CheckInvariants verifies the mergeability invariants: power-of-two
// width and grid-aligned start. It returns nil for an empty histogram.
func (h *Histogram) CheckInvariants() error {
	if h.Total == 0 {
		return nil
	}
	if exp := math.Log2(h.Width); exp != math.Trunc(exp) {
		return fmt.Errorf("histogram: width %v is not a power of two", h.Width)
	}
	if !alignedTo(h.Start, h.Width) {
		return fmt.Errorf("histogram: start %v not aligned to width %v", h.Start, h.Width)
	}
	sum := h.NegInf + h.PosInf
	for _, c := range h.Counts {
		sum += c
	}
	if sum != h.Total {
		return fmt.Errorf("histogram: counts sum %d (incl %d -Inf, %d +Inf) != total %d",
			sum, h.NegInf, h.PosInf, h.Total)
	}
	if h.Min > h.Max {
		return fmt.Errorf("histogram: min %v > max %v with total %d", h.Min, h.Max, h.Total)
	}
	return nil
}

const encMagic = uint32(0x50444348) // "PDCH"

// Encode serializes the histogram for metadata persistence and transport.
func (h *Histogram) Encode() []byte {
	buf := make([]byte, 0, 64+8*len(h.Counts))
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	putF := func(v float64) {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
		buf = append(buf, tmp[:]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put32(encMagic)
	put32(uint32(len(h.Counts)))
	putF(h.Width)
	putF(h.Start)
	putF(h.Min)
	putF(h.Max)
	put64(h.Total)
	put64(h.NegInf)
	put64(h.PosInf)
	for _, c := range h.Counts {
		put64(c)
	}
	return buf
}

// Decode deserializes a histogram produced by Encode.
func Decode(b []byte) (*Histogram, error) {
	r := wire.NewReader(b)
	if r.U32() != encMagic {
		return nil, fmt.Errorf("histogram: bad magic")
	}
	n := r.U32()
	h := &Histogram{
		Width:  math.Float64frombits(r.U64()),
		Start:  math.Float64frombits(r.U64()),
		Min:    math.Float64frombits(r.U64()),
		Max:    math.Float64frombits(r.U64()),
		Total:  r.U64(),
		NegInf: r.U64(),
		PosInf: r.U64(),
	}
	h.Counts = make([]uint64, r.Count(uint64(n), 8))
	for i := range h.Counts {
		h.Counts[i] = r.U64()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("histogram: %w", err)
	}
	return h, nil
}
