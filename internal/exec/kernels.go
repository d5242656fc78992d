package exec

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/selection"
	"pdcquery/internal/simio"
	"pdcquery/internal/vclock"
	"pdcquery/internal/wah"
)

// localRun is a contiguous run of local element indices [Start, Start+Len)
// within one region buffer.
type localRun struct {
	Start uint64
	Len   uint64
}

// pred is a query.Interval compiled for one element type. The methods
// are the engine's only per-element loops: every path that tests values
// against a condition (first-condition scan, probe, index candidate
// check, sorted companion filter, rest-probe) goes through one of them,
// and all of them agree with iv.Contains(float64(v)) on every v of the
// type.
type pred interface {
	// mark writes the condition over elements [0, n) of a region as whole
	// words of a dense bitset: bit i%64 of dst[i/64] is set when element
	// i satisfies it. Every word of dst is overwritten — bits at and
	// beyond n, elements a short buffer lacks, and the slack word come
	// back zero — so dst needs no clearing, and the popcount is returned.
	mark(data []byte, n uint64, dst []uint64) int64
	// probe filters hits (coordinates offset by base) in place, keeping
	// those whose element satisfies the condition — the paper's AND
	// refinement: only already selected locations are evaluated for
	// subsequent conditions.
	probe(data []byte, base uint64, hits []uint64) []uint64
	// at tests the single element i (sparse probes over ranged reads).
	at(data []byte, i int) bool
}

// bounds is the compiled form of an interval: closed native bounds with
//
//	lo <= v && v <= hi  ⇔  iv.Contains(float64(v))   for every v of type E.
//
// NaN values fail both compares, as they fail Contains. Only float
// intervals that straddle zero are evaluated in this form (it is a pred
// for the two float types); every other one is strength-reduced to a
// span.
type bounds[E dtype.Native] struct{ lo, hi E }

// span is closed bounds reduced to one unsigned compare on the element's
// bit pattern: u-lo <= width ⇔ lo <= u <= lo+width, the subtraction
// wrapping below lo. It serves every type whose order the bit pattern
// carries: unsigned integers as they are; signed integers, because
// reinterpreting both ends as unsigned shifts the whole range by the
// same wrap; non-negative floats, which order like their patterns; and
// negative floats, which order against theirs (the ends swap). Patterns
// on the other side of zero and NaNs lie outside [lo, lo+width] in all
// four cases. Integer compares retire several per cycle where the float
// compare is one per cycle, so this is the fast path, not a curiosity.
type span[U unsigned] struct{ lo, width U }

// never is the compiled form of an interval no value of the type
// satisfies (Lo > Hi, a NaN bound, bounds beyond the type's range).
type never struct{}

type unsigned interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// compile lowers iv to a kernel over element type t. An unknown type
// means corrupt metadata reached the evaluation engine; it is reported
// as an error, not a panic, so one bad request cannot take the server
// down.
func compile(t dtype.Type, iv query.Interval) (pred, error) {
	switch t {
	case dtype.Float32:
		b := float32Bounds(iv)
		return floatPred(b, math.Float32bits(b.lo), math.Float32bits(b.hi)), nil
	case dtype.Float64:
		b := float64Bounds(iv)
		return floatPred(b, math.Float64bits(b.lo), math.Float64bits(b.hi)), nil
	case dtype.Int8:
		return intPred[int8, uint8](iv), nil
	case dtype.Int16:
		return intPred[int16, uint16](iv), nil
	case dtype.Int32:
		return intPred[int32, uint32](iv), nil
	case dtype.Int64:
		return intPred[int64, uint64](iv), nil
	case dtype.Uint8:
		return intPred[uint8, uint8](iv), nil
	case dtype.Uint16:
		return intPred[uint16, uint16](iv), nil
	case dtype.Uint32:
		return intPred[uint32, uint32](iv), nil
	case dtype.Uint64:
		return intPred[uint64, uint64](iv), nil
	}
	return nil, fmt.Errorf("exec: condition on invalid element type %v", t)
}

// floatPred picks the kernel for closed float bounds whose bit patterns
// are lo and hi.
func floatPred[E ~float32 | ~float64, U unsigned](b bounds[E], lo, hi U) pred {
	switch {
	case !(b.lo <= b.hi):
		return never{}
	case b.lo > 0:
		return span[U]{lo, hi - lo}
	case b.hi < 0:
		return span[U]{hi, lo - hi}
	}
	return b
}

// intPred compiles an interval over integer type E, whose unsigned twin
// is U.
func intPred[E integer, U unsigned](iv query.Interval) pred {
	b := intBounds[E](iv)
	if b.lo > b.hi {
		return never{}
	}
	return span[U]{U(b.lo), U(b.hi) - U(b.lo)}
}

// float64Bounds closes the interval's open ends by stepping one ulp
// inwards. An open end at the infinity it points away from leaves
// nothing beyond it; that and a NaN bound come back as lo <= hi false.
func float64Bounds(iv query.Interval) bounds[float64] {
	lo, hi := iv.Lo, iv.Hi
	if !iv.LoIncl {
		if lo == math.Inf(1) {
			lo = math.NaN()
		}
		lo = math.Nextafter(lo, math.Inf(1))
	}
	if !iv.HiIncl {
		if hi == math.Inf(-1) {
			hi = math.NaN()
		}
		hi = math.Nextafter(hi, math.Inf(-1))
	}
	return bounds[float64]{lo, hi}
}

// float32Bounds narrows the closed float64 bounds to the float32 grid:
// the smallest float32 not below lo and the largest not above hi.
// float64(v) is exact for float32 v, so membership is unchanged.
func float32Bounds(iv query.Interval) bounds[float32] {
	b := float64Bounds(iv)
	lo, hi := float32(b.lo), float32(b.hi)
	if float64(lo) < b.lo {
		lo = math.Nextafter32(lo, float32(math.Inf(1)))
	}
	if float64(hi) > b.hi {
		hi = math.Nextafter32(hi, float32(math.Inf(-1)))
	}
	return bounds[float32]{lo, hi}
}

// integer is the part of dtype.Native with integer arithmetic.
type integer interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// aboveLo and belowHi are the two halves of iv.Contains(float64(v)).
// float64(v) is monotone in v even where it rounds (64-bit integers
// beyond 2^53), so each half is a monotone predicate of v.
func aboveLo[E integer](iv query.Interval, v E) bool {
	f := float64(v)
	return f > iv.Lo || (iv.LoIncl && f == iv.Lo)
}

func belowHi[E integer](iv query.Interval, v E) bool {
	f := float64(v)
	return f < iv.Hi || (iv.HiIncl && f == iv.Hi)
}

// intBounds finds the edges by binary search over the type's whole
// range rather than by casting the bound: the edge of a monotone
// predicate is exact, which a cast of the bound is not once several
// integers share one float64. NaN bounds fail both halves everywhere.
func intBounds[E integer](iv query.Interval) bounds[E] {
	var minV, maxV E
	if ^E(0) < 0 {
		minV = E(1) << (8*unsafe.Sizeof(minV) - 1)
		maxV = ^minV
	} else {
		maxV = ^E(0)
	}
	if !aboveLo(iv, maxV) || !belowHi(iv, minV) {
		return bounds[E]{1, 0} // lo > hi: unsatisfiable
	}
	// Midpoints are taken as uint64 distances, where the type's full
	// width cannot overflow. aboveLo(loTop) and belowHi(hiBot) hold
	// throughout.
	lo, loTop := minV, maxV
	for lo != loTop {
		mid := lo + E((uint64(loTop)-uint64(lo))/2)
		if aboveLo(iv, mid) {
			loTop = mid
		} else {
			lo = mid + 1
		}
	}
	hiBot, hi := minV, maxV
	for hiBot != hi {
		mid := hi - E((uint64(hi)-uint64(hiBot))/2)
		if belowHi(iv, mid) {
			hiBot = mid
		} else {
			hi = mid - 1
		}
	}
	return bounds[E]{lo, hi}
}

// b2i is the branch-free bool→int the compiler lowers to a flag set.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The mark kernels build a region's words one at a time, walking each
// word's 64 elements from the last to the first in groups of eight:
// every element shifts the word up by one and enters its verdict at bit
// 0, so the first element ends at bit 0 and no shift depends on the
// position. The groups are unrolled, and no branch depends on the data.
// A short last word takes the same test one element at a time.

func (b bounds[E]) mark(data []byte, n uint64, dst []uint64) int64 {
	vals := dtype.View[E](data)
	vals = vals[:min(n, uint64(len(vals)))]
	lo, hi := b.lo, b.hi
	full := len(vals) >> 6
	for k := range dst[:full] {
		v := (*[64]E)(vals[k<<6:])
		var w uint64
		for g := 56; g >= 0; g -= 8 {
			e := (*[8]E)(v[g:])
			w = w<<1 | uint64(b2i(e[7] >= lo)&b2i(e[7] <= hi))
			w = w<<1 | uint64(b2i(e[6] >= lo)&b2i(e[6] <= hi))
			w = w<<1 | uint64(b2i(e[5] >= lo)&b2i(e[5] <= hi))
			w = w<<1 | uint64(b2i(e[4] >= lo)&b2i(e[4] <= hi))
			w = w<<1 | uint64(b2i(e[3] >= lo)&b2i(e[3] <= hi))
			w = w<<1 | uint64(b2i(e[2] >= lo)&b2i(e[2] <= hi))
			w = w<<1 | uint64(b2i(e[1] >= lo)&b2i(e[1] <= hi))
			w = w<<1 | uint64(b2i(e[0] >= lo)&b2i(e[0] <= hi))
		}
		dst[k] = w
	}
	k := full
	if tail := vals[full<<6:]; len(tail) > 0 {
		var w uint64
		for i, v := range tail {
			w |= uint64(b2i(v >= lo)&b2i(v <= hi)) << i
		}
		dst[k] = w
		k++
	}
	clear(dst[k:])
	return popcount(dst[:k])
}

func (b bounds[E]) probe(data []byte, base uint64, hits []uint64) []uint64 {
	vals := dtype.View[E](data)
	lo, hi := b.lo, b.hi
	k := 0
	for _, h := range hits {
		v := vals[h-base]
		hits[k] = h
		k += b2i(v >= lo) & b2i(v <= hi)
	}
	return hits[:k]
}

func (b bounds[E]) at(data []byte, i int) bool {
	v := dtype.View[E](data)[i]
	return v >= b.lo && v <= b.hi
}

// The span kernels repeat the bounds loops with the one-compare test.
// They are written out rather than shared: a test handed in as a type
// parameter is called through the generic dictionary, not inlined, which
// costs more than the compare it wraps. mark takes the test as the
// borrow of width - (u-lo), 1 exactly when u lies outside the span
// (exact at every width: both operands fit in 64 bits), and feeds it
// straight into the add that shifts the word, w+w+borrow, so an element
// costs a subtract and an add-with-carry: the word collects the misses
// and is inverted once.

func (s span[U]) mark(data []byte, n uint64, dst []uint64) int64 {
	vals := dtype.View[U](data)
	vals = vals[:min(n, uint64(len(vals)))]
	lo, width := s.lo, uint64(s.width)
	full := len(vals) >> 6
	for k := range dst[:full] {
		v := (*[64]U)(vals[k<<6:])
		var miss uint64
		for g := 56; g >= 0; g -= 8 {
			e := (*[8]U)(v[g:])
			_, m := bits.Sub64(width, uint64(e[7]-lo), 0)
			miss, _ = bits.Add64(miss, miss, m)
			_, m = bits.Sub64(width, uint64(e[6]-lo), 0)
			miss, _ = bits.Add64(miss, miss, m)
			_, m = bits.Sub64(width, uint64(e[5]-lo), 0)
			miss, _ = bits.Add64(miss, miss, m)
			_, m = bits.Sub64(width, uint64(e[4]-lo), 0)
			miss, _ = bits.Add64(miss, miss, m)
			_, m = bits.Sub64(width, uint64(e[3]-lo), 0)
			miss, _ = bits.Add64(miss, miss, m)
			_, m = bits.Sub64(width, uint64(e[2]-lo), 0)
			miss, _ = bits.Add64(miss, miss, m)
			_, m = bits.Sub64(width, uint64(e[1]-lo), 0)
			miss, _ = bits.Add64(miss, miss, m)
			_, m = bits.Sub64(width, uint64(e[0]-lo), 0)
			miss, _ = bits.Add64(miss, miss, m)
		}
		dst[k] = ^miss
	}
	k := full
	if tail := vals[full<<6:]; len(tail) > 0 {
		var w uint64
		for i, v := range tail {
			_, m := bits.Sub64(width, uint64(v-lo), 0)
			w |= (m ^ 1) << i
		}
		dst[k] = w
		k++
	}
	clear(dst[k:])
	return popcount(dst[:k])
}

func (s span[U]) probe(data []byte, base uint64, hits []uint64) []uint64 {
	vals := dtype.View[U](data)
	lo, width := s.lo, s.width
	k := 0
	for _, h := range hits {
		v := vals[h-base]
		hits[k] = h
		k += b2i(v-lo <= width)
	}
	return hits[:k]
}

func (s span[U]) at(data []byte, i int) bool {
	return dtype.View[U](data)[i]-s.lo <= s.width
}

func (never) mark(_ []byte, _ uint64, dst []uint64) int64      { clear(dst); return 0 }
func (never) probe(_ []byte, _ uint64, hits []uint64) []uint64 { return hits[:0] }
func (never) at([]byte, int) bool                              { return false }

// scratch is the per-task working memory. A region task takes one from
// the pool, evaluates into it, packs its chunk out of it, and puts it
// back, so the region bitsets and the hit lists are paid once per worker
// rather than once per region. Nothing carries state between tasks —
// every use starts from hits[:0], a bitset mark overwrites or one zeroed
// first, or an emptied list — so which task gets which scratch cannot
// affect any result.
type scratch struct {
	// Local (or, for value collection, absolute) indices: the survivors
	// a later condition probes, the index path's boundary candidates, the
	// coordinates values are read at.
	hits []uint64
	// Dense bitsets over one region's elements, wah.DenseWords(n) words
	// each (1/32 of the region's bytes for 4-byte elements): the region's
	// answer on either access path, and on the index path the condition
	// being resolved and its boundary candidates.
	acc, cur, cand []uint64
	// One index condition's touched bins and their reads.
	bins, cands []int
	ranges      []simio.Range
	blobs       []dtype.ROBytes
	// One element's coordinate: the sorted path tests each match against
	// the spatial constraint in it.
	coord []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// KernelOps returns one steady-state call of each region kernel over a
// fixed 64 KiB float32 region: the first-condition mark into a warm
// bitset (all a one-condition count does), a probe, and the scan and
// index paths' whole region evaluations with the packing of their
// chunks. The allocation ratchet (pdc-benchdiff, and this package's
// tests) runs them under testing.AllocsPerRun and pins all four at zero.
func KernelOps() map[string]func() {
	vals := make([]float32, 1<<14)
	for i := range vals {
		vals[i] = float32(i%1000) / 10
	}
	data := dtype.Bytes(vals)
	n := uint64(len(vals))
	p, _ := compile(dtype.Float32, query.Interval{Lo: 20, Hi: 60})
	set := make([]uint64, wah.DenseWords(n))
	hits := appendSetBits(nil, set, 0, p.mark(data, n, set))
	probed := make([]uint64, len(hits))
	scanRegion, indexRegion := regionOps(data, n)
	return map[string]func(){
		"scanRegion":  scanRegion,
		"probeRegion": func() { p.probe(data, 0, probed[:copy(probed, hits)]) },
		"countRegion": func() { p.mark(data, n, set) },
		"indexRegion": indexRegion,
	}
}

// regionOps are one warm evalRegionScan and one warm evalRegionIndex of
// an n-element region, each with the packing of its hits — all an ids
// statement adds to a count — for a window whose ends fall on values in
// the data: to the index, nine sure bins and the two boundary bins as
// candidates.
func regionOps(data []byte, n uint64) (scan, index func()) {
	const id = object.ID(1)
	o := &object.Object{ID: id, Type: dtype.Float32, Dims: []uint64{n}}
	st := simio.New(simio.DefaultModel())
	lo, hi := dtype.MinMax(o.Type, data)
	x := bitindex.Build(o.Type, data, lo, hi, bitindex.DefaultPrecision)
	rm := object.RegionMeta{
		Region:    region.Split1D(n, n)[0],
		ExtentKey: object.ExtentKey(id, 0), IndexKey: object.IndexExtentKey(id, 0),
		IndexBins: len(x.Bins), IndexDir: x.Directory(),
	}
	st.Write(nil, rm.ExtentKey, simio.PFS, data)
	st.Write(nil, rm.IndexKey, simio.PFS, x.Encode())
	o.Regions = []object.RegionMeta{rm}
	e := &Engine{Store: st, Acct: vclock.NewAccount(), Cache: NewCache(1 << 20)}
	c := query.Conjunct{id: {Lo: 20.5, Hi: 30.5, LoIncl: true, HiIncl: true}}
	order := []object.ID{id}
	objs := map[object.ID]*object.Object{id: o}
	preds, _ := compilePreds(c, order, objs)
	runs := []localRun{{Start: 0, Len: n}}
	sc, stats := new(scratch), new(Stats)
	var chunk []byte
	pack := func(set []uint64, nhits int64, _ error) {
		chunk = selection.AppendChunkBits(chunk[:0], 0, n, set, uint64(nhits))
	}
	scan = func() { pack(e.evalRegionScan(nil, order, preds, objs, 0, runs, sc, stats, nil)) }
	index = func() { pack(e.evalRegionIndex(nil, c, order, preds, objs, 0, runs, sc, stats, nil)) }
	return scan, index
}
