package exec

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/query"
	"pdcquery/internal/wah"
)

// Corrupt metadata can carry an element type the kernels do not know;
// compile must report it as an error rather than panicking in the
// middle of a request.
func TestCompileInvalidType(t *testing.T) {
	if _, err := compile(dtype.Type(200), query.Interval{Lo: 0, Hi: 1}); err == nil {
		t.Error("compile accepted an invalid element type")
	}
}

// checkBounds holds every kernel of the compiled interval to the oracle
// iv.Contains(float64(v)) over vals.
func checkBounds[E dtype.Native](t testing.TB, typ dtype.Type, vals []E, iv query.Interval, mem *markMem) {
	t.Helper()
	p, err := compile(typ, iv)
	if err != nil {
		t.Fatal(err)
	}
	const base = 1 << 40
	data := dtype.Bytes(vals)
	in := make([]bool, len(vals))
	var want, all []uint64
	for i, v := range vals {
		all = append(all, base+uint64(i))
		in[i] = iv.Contains(float64(v))
		if in[i] {
			want = append(want, base+uint64(i))
		}
		if got := p.at(data, i); got != in[i] {
			t.Errorf("%v %v: at(%v) = %v, Contains = %v (compiled %+v)", typ, iv, v, got, in[i], p)
		}
	}
	if got := p.probe(data, base, all); !slices.Equal(got, want) {
		t.Errorf("%v %v over %v: probe = %v, want %v (compiled %+v)", typ, iv, vals, got, want, p)
	}
	checkMark(t, p, vals, in, mem, func() string { return fmt.Sprintf("%v %v over %v (compiled %+v)", typ, iv, vals, p) })
}

// markSizes are the region lengths mark is held at: one element, either
// side of one and of two words, and a 64 KiB float32 region.
var markSizes = []uint64{1, 63, 64, 65, 127, 16384}

// markMem is the memory checkMark works in, reused from one check to the
// next: a region of the largest of markSizes at up to 8 bytes per
// element, and its bitset.
type markMem struct{ region, set []uint64 }

func newMarkMem() *markMem {
	n := markSizes[len(markSizes)-1]
	return &markMem{region: make([]uint64, n), set: make([]uint64, wah.DenseWords(n))}
}

// checkMark marks vals repeated over each of markSizes into a bitset
// full of garbage, and holds every word — the slack word included — to
// in (the oracle's verdict per value of vals): mark overwrites, sets
// exactly the matching bits below n, and returns their count.
func checkMark[E dtype.Native](t testing.TB, p pred, vals []E, in []bool, mem *markMem, label func() string) {
	t.Helper()
	period := len(vals)
	maxN := markSizes[len(markSizes)-1]
	// The region repeats vals; copies double, each from a multiple of
	// the period, so element i is vals[i%period].
	tile := dtype.View[E](dtype.Bytes(mem.region))[:maxN]
	for k := copy(tile, vals); k < len(tile); k *= 2 {
		copy(tile[k:], tile[:k])
	}
	data := dtype.Bytes(tile)
	// rowWant[r] is the word whose bit j is the verdict on element r+j of
	// the repetition, r taken mod the period.
	rowWant := make([]uint64, period)
	for r := range rowWant {
		for j := 0; j < 64; j++ {
			if in[(r+j)%period] {
				rowWant[r] |= 1 << j
			}
		}
	}
	for _, n := range markSizes {
		dst := mem.set[:wah.DenseWords(n)]
		for i := range dst {
			dst[i] = 0xa5a5_5a5a_f00f_0ff0 ^ uint64(i)
		}
		got := p.mark(data, n, dst)
		var pop int64
		for w := range dst {
			want := uint64(0)
			if left := n - min(n, uint64(w)<<6); left > 0 {
				want = rowWant[(w<<6)%period]
				if left < 64 {
					want &= 1<<left - 1
				}
			}
			if dst[w] != want {
				t.Fatalf("%s: mark n=%d: word %d of %d = %#x, want %#x", label(), n, w, len(dst), dst[w], want)
			}
			pop += int64(bits.OnesCount64(want))
		}
		if got != pop {
			t.Fatalf("%s: mark n=%d returned %d, %d bits are set", label(), n, got, pop)
		}
	}
}

// checkAllTypes runs checkBounds for all ten element types, each over
// its own edge values plus seed reinterpreted in the type.
func checkAllTypes(t testing.TB, iv query.Interval, seed uint64, mem *markMem) {
	t.Helper()
	f64 := math.Float64frombits(seed)
	f32 := math.Float32frombits(uint32(seed))
	nan32, inf32 := float32(math.NaN()), float32(math.Inf(1))
	// Values at and next to the bounds, narrowed to each type. An
	// out-of-range float→int conversion yields an arbitrary value, which
	// is as good a test value as any.
	lo, hi := iv.Lo, iv.Hi
	checkBounds(t, dtype.Float64, []float64{
		f64, lo, hi, math.Nextafter(lo, math.Inf(1)), math.Nextafter(lo, math.Inf(-1)),
		math.Nextafter(hi, math.Inf(1)), math.Nextafter(hi, math.Inf(-1)),
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}, iv, mem)
	checkBounds(t, dtype.Float32, []float32{
		f32, float32(lo), float32(hi),
		math.Nextafter32(float32(lo), inf32), math.Nextafter32(float32(lo), -inf32),
		math.Nextafter32(float32(hi), inf32), math.Nextafter32(float32(hi), -inf32),
		nan32, inf32, -inf32, 0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, 1, -1,
	}, iv, mem)
	checkBounds(t, dtype.Int8, []int8{int8(seed), int8(lo), int8(lo) - 1, int8(lo) + 1, int8(hi), int8(hi) - 1, int8(hi) + 1,
		math.MinInt8, math.MinInt8 + 1, -1, 0, 1, math.MaxInt8 - 1, math.MaxInt8}, iv, mem)
	checkBounds(t, dtype.Int16, []int16{int16(seed), int16(lo), int16(lo) - 1, int16(lo) + 1, int16(hi), int16(hi) - 1, int16(hi) + 1,
		math.MinInt16, math.MinInt16 + 1, -1, 0, 1, math.MaxInt16 - 1, math.MaxInt16}, iv, mem)
	checkBounds(t, dtype.Int32, []int32{int32(seed), int32(lo), int32(lo) - 1, int32(lo) + 1, int32(hi), int32(hi) - 1, int32(hi) + 1,
		math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}, iv, mem)
	checkBounds(t, dtype.Int64, []int64{int64(seed), int64(lo), int64(lo) - 1, int64(lo) + 1, int64(hi), int64(hi) - 1, int64(hi) + 1,
		math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64,
		// Beyond 2^53 several integers share one float64.
		1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<53 + 3, -(1 << 53) - 1, -(1 << 53) - 2,
		math.MaxInt64 - 511, math.MaxInt64 - 512, math.MaxInt64 - 1023, math.MaxInt64 - 1024,
		math.MinInt64 + 512, math.MinInt64 + 513, math.MinInt64 + 1024, math.MinInt64 + 1025}, iv, mem)
	checkBounds(t, dtype.Uint8, []uint8{uint8(seed), uint8(lo), uint8(lo) - 1, uint8(lo) + 1, uint8(hi), uint8(hi) - 1, uint8(hi) + 1,
		0, 1, math.MaxUint8 - 1, math.MaxUint8}, iv, mem)
	checkBounds(t, dtype.Uint16, []uint16{uint16(seed), uint16(lo), uint16(lo) - 1, uint16(lo) + 1, uint16(hi), uint16(hi) - 1, uint16(hi) + 1,
		0, 1, math.MaxUint16 - 1, math.MaxUint16}, iv, mem)
	checkBounds(t, dtype.Uint32, []uint32{uint32(seed), uint32(lo), uint32(lo) - 1, uint32(lo) + 1, uint32(hi), uint32(hi) - 1, uint32(hi) + 1,
		0, 1, math.MaxUint32 - 1, math.MaxUint32}, iv, mem)
	checkBounds(t, dtype.Uint64, []uint64{seed, uint64(lo), uint64(lo) - 1, uint64(lo) + 1, uint64(hi), uint64(hi) - 1, uint64(hi) + 1,
		0, 1, math.MaxUint64 - 1, math.MaxUint64,
		1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<53 + 3, 1 << 63, 1<<63 + 1024, 1<<63 + 1025,
		math.MaxUint64 - 1023, math.MaxUint64 - 1024, math.MaxUint64 - 2047, math.MaxUint64 - 2048, math.MaxUint64 - 3072}, iv, mem)
}

// tableBounds are the interval ends the table crosses with each other:
// special values, both zeros, subnormals, every integer type's range
// edges (and just outside them), and 64-bit values float64 rounds.
var tableBounds = []float64{
	math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 1e-45, -1e-45, 1e-310, 0.5, -0.5, 1, -1, 1.5, 42, 42.5,
	-128, -128.5, -129, 127, 127.5, 128, 255, 255.5, 256,
	-32768, -32769, 32767, 32768, 65535, 65536,
	-(1 << 31), -(1 << 31) - 1, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32,
	1 << 53, 1<<53 + 2, -(1 << 53) - 2,
	1 << 63, 1<<63 - 1024, -(1 << 63), -(1 << 63) - 2048, 1 << 64, 1<<64 - 2048,
	math.MaxFloat32, math.MaxFloat32 * (1 + 1e-9), -math.MaxFloat32, 1e39, -1e39, 1e300, -1e300,
	math.MaxFloat64, -math.MaxFloat64,
}

// TestCompiledBoundsTable crosses tableBounds × tableBounds × the four
// inclusivity combinations (which covers Lo > Hi and Lo == Hi with an
// open end) for all ten element types.
func TestCompiledBoundsTable(t *testing.T) {
	mem := newMarkMem()
	for _, lo := range tableBounds {
		for _, hi := range tableBounds {
			for incl := 0; incl < 4; incl++ {
				iv := query.Interval{Lo: lo, Hi: hi, LoIncl: incl&1 != 0, HiIncl: incl&2 != 0}
				checkAllTypes(t, iv, math.Float64bits(lo)^uint64(incl), mem)
				if t.Failed() {
					t.FailNow()
				}
			}
		}
	}
}

// FuzzCompiledBounds holds the compiled bounds to Interval.Contains for
// arbitrary bounds and an arbitrary value bit pattern, in every type.
func FuzzCompiledBounds(f *testing.F) {
	f.Add(2.0, 3.0, false, true, uint64(0x4004000000000000))
	f.Add(math.NaN(), 1.0, true, true, uint64(0))
	f.Add(math.Inf(-1), math.Inf(1), false, false, uint64(0x7ff0000000000000))
	f.Add(float64(1<<53+2), float64(1<<63), true, false, uint64(1<<53+1))
	f.Add(-0.0, 5e-324, false, false, uint64(1))
	f.Fuzz(func(t *testing.T, lo, hi float64, loIncl, hiIncl bool, seed uint64) {
		checkAllTypes(t, query.Interval{Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl}, seed, newMarkMem())
	})
}

// A constrained scan marks only inside its runs, and a region longer
// than a short buffer marks the missing elements as no match rather than
// reading them.
func TestScanRunsClipped(t *testing.T) {
	vals := []float32{5, 1, 5, 5, 1, 5}
	p, _ := compile(dtype.Float32, query.Interval{Lo: 4, Hi: 6, LoIncl: true, HiIncl: true})
	const n = 100
	set := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	if got := p.mark(dtype.Bytes(vals), n, set); got != 4 {
		t.Errorf("mark = %d, want 4", got)
	}
	runs := []localRun{{Start: 1, Len: 2}, {Start: 4, Len: 100}, {Start: 50, Len: 2}}
	keepRuns(set, runs, n)
	if got, want := appendSetBits(nil, set, 10, popcount(set)), []uint64{12, 15}; !slices.Equal(got, want) {
		t.Errorf("marked %v, want %v", got, want)
	}
	if set[2] != 0 {
		t.Errorf("slack word %#x, want 0", set[2])
	}
}

// The warm kernels allocate nothing: mark into a grown bitset, probe in
// place, and both paths' region evaluations with their chunks.
func TestKernelsZeroAlloc(t *testing.T) {
	for name, op := range KernelOps() {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}
