package histogram

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pdcquery/internal/dtype"
)

// refBuildBytes is BuildBytes as it was before its typed dispatch: every
// element widened by dtype.At into a []float64, the grid from a stride-10
// sample of those, then one add per non-NaN value. The typed build must
// match it byte for byte.
func refBuildBytes(t dtype.Type, data []byte, nbin int) *Histogram {
	values := make([]float64, t.Count(len(data)))
	for i := range values {
		values[i] = dtype.At(t, data, i)
	}
	if nbin <= 0 {
		nbin = DefaultBins
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	stride := 10
	if len(values) < 100 {
		stride = 1
	}
	for i := 0; i < len(values); i += stride {
		v := values[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		// Compared as the original loop compares: the first of -0 and
		// +0 sampled is kept (the min and max builtins order -0 below
		// +0, which moved Start's sign bit).
		v = onGrid(v)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 0
	}
	w := powFloor((hi - lo) / float64(nbin))
	start := math.Floor(lo/w) * w
	n := max(int(min(math.Ceil((hi-start)/w)+1, (gridLimit-start)/w)), 1)
	h := &Histogram{Width: w, Start: start, Counts: make([]uint64, n), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range values {
		if !math.IsNaN(v) {
			h.add(v)
		}
	}
	return h
}

// widen is the region's elements as Build's []float64 input.
func widen(t dtype.Type, data []byte) []float64 {
	out := make([]float64, t.Count(len(data)))
	for i := range out {
		out[i] = dtype.At(t, data, i)
	}
	return out
}

// requireBuildBytesMatches checks BuildBytes against Build over the
// widened values and against the reference loop, by their encodings
// (which carry every field).
func requireBuildBytesMatches(t *testing.T, name string, typ dtype.Type, data []byte, nbin int) {
	t.Helper()
	got := BuildBytes(typ, data, nbin).Encode()
	if want := Build(widen(typ, data), nbin).Encode(); !bytes.Equal(got, want) {
		t.Errorf("%s %s: BuildBytes differs from Build over the widened values", typ, name)
	}
	if want := refBuildBytes(typ, data, nbin).Encode(); !bytes.Equal(got, want) {
		t.Errorf("%s %s: BuildBytes differs from the per-element reference", typ, name)
	}
}

// typedRegion stores vals as elements of typ (dtype.Put's conversion).
func typedRegion(typ dtype.Type, vals []float64) []byte {
	data := make([]byte, len(vals)*typ.Size())
	for i, v := range vals {
		dtype.Put(typ, data, i, v)
	}
	return data
}

// TestBuildBytesMatchesBuild covers all ten element types on regions
// that reach every branch of the build: below and above the 100-element
// sampling threshold, constant and empty regions, values off the sampled
// grid that extend it, outliers more than maxGrow bins away (the
// singleton merge path), and for the float types NaN, ±Inf and values
// beyond the ±2^1020 grid limit.
func TestBuildBytesMatchesBuild(t *testing.T) {
	types := []dtype.Type{
		dtype.Float32, dtype.Float64, dtype.Int8, dtype.Int16, dtype.Int32,
		dtype.Int64, dtype.Uint8, dtype.Uint16, dtype.Uint32, dtype.Uint64,
	}
	rng := rand.New(rand.NewSource(11))
	span := func(n int, lo, hi float64) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = lo + rng.Float64()*(hi-lo)
		}
		return vals
	}
	for _, typ := range types {
		signed := typ.IsFloat() || typ == dtype.Int8 || typ == dtype.Int16 || typ == dtype.Int32 || typ == dtype.Int64
		lo := 0.0
		if signed {
			lo = -100
		}
		cases := map[string][]float64{
			"empty":    nil,
			"small":    span(37, lo, 100),
			"sampled":  span(5000, lo, 100),
			"constant": span(300, 7, 7),
		}
		// Values the stride-10 sample skips (index % 10 != 0) land off the
		// sampled grid and extend it.
		off := span(1000, 10, 20)
		off[3], off[17] = 0, 120
		cases["offgrid"] = off
		if typ.Size() >= 4 {
			// 1e9 from a grid of width 1/8 is far beyond maxGrow bins.
			far := span(1000, 0, 8)
			far[13] = 1e9
			if signed {
				far[27] = -1e9
			}
			cases["outlier"] = far
		}
		switch typ {
		case dtype.Int64:
			cases["extremes"] = []float64{math.MinInt64, -1, 0, 1, math.MaxInt64 / 2}
		case dtype.Uint64:
			cases["extremes"] = []float64{0, 1, 1 << 63, 1 << 62}
		}
		if typ.IsFloat() {
			special := span(2000, -50, 50)
			special[0], special[11], special[12] = math.NaN(), math.Inf(1), math.Inf(-1)
			special[100], special[505] = math.NaN(), math.Inf(1)
			cases["specials"] = special
			cases["allnan"] = []float64{math.NaN(), math.NaN(), math.NaN()}
			cases["infonly"] = []float64{math.Inf(1), math.NaN(), math.Inf(-1)}
		}
		if typ == dtype.Float64 {
			huge := span(500, -1, 1)
			huge[5], huge[21], huge[40] = 1.7e308, -1.7e308, 0x1p1020
			cases["beyondgrid"] = huge
			// A grid that spans the whole limit: ±Inf fall on it by
			// onGrid and must still be counted off it.
			cases["beyondsampled"] = []float64{math.MaxFloat64, -math.MaxFloat64, 0x1p1021, math.Inf(1), math.Inf(-1), 1}
		}
		for name, vals := range cases {
			for _, nbin := range []int{0, 1, 16, DefaultBins} {
				requireBuildBytesMatches(t, name, typ, typedRegion(typ, vals), nbin)
			}
		}
	}
	// A trailing partial element is ignored, as dtype.At's count ignores it.
	requireBuildBytesMatches(t, "partial", dtype.Float64, append(typedRegion(dtype.Float64, []float64{1, 2, 3}), 0xff, 0xff), 8)
	// An invalid type reads no elements.
	requireBuildBytesMatches(t, "invalid", dtype.Invalid, []byte{1, 2, 3, 4}, 8)
}

// FuzzBuildBytesMatchesBuild reads arbitrary bytes as a region of any of
// the ten element types (so float regions carry every NaN payload,
// infinity and extreme exponent) and requires BuildBytes to equal Build
// over the widened values and the per-element reference.
func FuzzBuildBytesMatchesBuild(f *testing.F) {
	f.Add([]byte{}, uint8(0), 8)
	f.Add(typedRegion(dtype.Float64, []float64{1, math.NaN(), math.Inf(1), 1e300, -3}), uint8(1), 4)
	f.Add(typedRegion(dtype.Int32, []float64{5, 9, 1 << 30, -7}), uint8(4), 64)
	f.Fuzz(func(t *testing.T, data []byte, tsel uint8, nbin int) {
		typ := dtype.Type(1 + tsel%10)
		requireBuildBytesMatches(t, "fuzz", typ, data, nbin%512)
	})
}
