// Byte-identity of the one-pass index build against the two-pass
// reference it replaced. External test package: the VPIC generator in
// internal/workload depends on bitindex.
package bitindex_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/wah"
	"pdcquery/internal/workload"
)

// buildReference is the index build Build is held to: one pass through
// dtype.At for the range, a second that appends every element's
// position to its bin's list, then one bitmap per list, appended to a
// bit at a time.
func buildReference(t dtype.Type, data []byte, precision int) *bitindex.Index {
	n := t.Count(len(data))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		v := dtype.At(t, data, i)
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	x := &bitindex.Index{N: uint64(n)}
	if math.IsInf(lo, 1) {
		x.Step, x.Base = 1, 0
		return x
	}
	step := bitindex.BinStep(lo, hi, precision)
	base := math.Floor(lo/step) * step
	nbins := int(math.Floor((hi-base)/step)) + 1
	if nbins < 1 {
		nbins = 1
	}
	x.Step, x.Base = step, base

	type binAcc struct {
		idx      []uint64
		min, max float64
	}
	accs := make([]binAcc, nbins)
	for i := range accs {
		accs[i].min = math.Inf(1)
		accs[i].max = math.Inf(-1)
	}
	for i := 0; i < n; i++ {
		v := dtype.At(t, data, i)
		if math.IsNaN(v) {
			continue
		}
		j := int(math.Floor((v - base) / step))
		if j < 0 {
			j = 0
		}
		if j >= nbins {
			j = nbins - 1
		}
		a := &accs[j]
		a.idx = append(a.idx, uint64(i))
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	for j, a := range accs {
		if len(a.idx) == 0 {
			continue
		}
		x.Bins = append(x.Bins, bitindex.Bin{
			Lo:    base + float64(j)*step,
			Hi:    base + float64(j+1)*step,
			Min:   a.min,
			Max:   a.max,
			Count: uint64(len(a.idx)),
			Bits:  bitByBit(a.idx, uint64(n)),
		})
	}
	return x
}

// bitByBit builds a bitmap one bit at a time through the Builder.
func bitByBit(idx []uint64, nbits uint64) *wah.Bitmap {
	var bd wah.Builder
	var pos uint64
	for _, i := range idx {
		bd.AppendRun(false, i-pos)
		bd.AppendBit(true)
		pos = i + 1
	}
	bd.AppendRun(false, nbits-pos)
	return bd.Build()
}

// checkBuild fails unless Build and the reference encode the same bytes.
func checkBuild(t *testing.T, name string, typ dtype.Type, data []byte, precision int) {
	t.Helper()
	lo, hi := dtype.MinMax(typ, data)
	got := bitindex.Build(typ, data, lo, hi, precision).Encode()
	want := buildReference(typ, data, precision).Encode()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Build encodes %d bytes that differ from the reference's %d", name, len(got), len(want))
	}
}

func f32(vals ...float64) []byte {
	out := make([]float32, len(vals))
	for i, v := range vals {
		out[i] = float32(v)
	}
	return dtype.Bytes(out)
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestBuildMatchesReference(t *testing.T) {
	const particles = 1 << 18
	v := workload.GenerateVPIC(particles, 7)
	for _, name := range workload.VPICNames {
		raw := dtype.Bytes(v.Vars[name])
		for _, regionBytes := range []int{8 << 10, 64 << 10} {
			for off := 0; off < len(raw); off += regionBytes {
				part := raw[off:min(off+regionBytes, len(raw))]
				checkBuild(t, fmt.Sprintf("%s region %d/%d", name, off/regionBytes, regionBytes), dtype.Float32, part, bitindex.DefaultPrecision)
			}
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	ramp := make([]float64, 31*4)
	for i := range ramp {
		ramp[i] = float64(i) / 10 // every value a bin edge at step 0.1
	}
	edges := []struct {
		name string
		data []byte
	}{
		{"all NaN", f32(nan, nan, nan)},
		{"one element", f32(2.5)},
		{"every element equal", f32(repeat(7, 31*3+5)...)},
		{"n < 31", f32(1, 5, 2, 8, 3, 9, 4)},
		{"n a multiple of 31", f32(ramp...)},
		{"values on bin edges", f32(0, 0.1, 0.2, 0.3, 0.1, 0.2, 0.30000001, 0.4, 1, 1.1)},
		{"+Inf", f32(1, inf, 2, 3)},
		{"-Inf", f32(1, -inf, 2, 3)},
		{"±Inf only", f32(inf, -inf, nan)},
		{"NaN between runs", f32(append(append(repeat(1, 40), nan, nan), repeat(2, 40)...)...)},
		{"empty", nil},
	}
	for _, c := range edges {
		checkBuild(t, c.name, dtype.Float32, c.data, bitindex.DefaultPrecision)
	}

	// Every element type goes through its own typed loop.
	ints := []int64{-3, 7, 7, 100, -120, 0, 55, 31, 31, 31}
	checkBuild(t, "float64", dtype.Float64, dtype.Bytes([]float64{1.5, math.NaN(), -2, 1e9, 3}), 2)
	for _, typ := range []dtype.Type{dtype.Int8, dtype.Int16, dtype.Int32, dtype.Int64, dtype.Uint8, dtype.Uint16, dtype.Uint32, dtype.Uint64} {
		data := make([]byte, typ.Size()*len(ints))
		for i, v := range ints {
			if typ >= dtype.Uint8 && v < 0 {
				v = -v
			}
			dtype.Put(typ, data, i, float64(v))
		}
		checkBuild(t, typ.String(), typ, data, 2)
	}
}

// FuzzBuildMatchesReference holds Build to the reference on arbitrary
// float32 regions (NaNs, infinities, repeats and all) at precision 1-3.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(2))
	f.Add(f32(1, 2, 2, 3, math.NaN(), 0.5), uint8(1))
	f.Add(f32(repeat(4.25, 70)...), uint8(3))
	f.Add(f32(math.Inf(-1), 0, 0.1, 0.2, math.Inf(1)), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, precision uint8) {
		checkBuild(t, "fuzz", dtype.Float32, raw, int(precision%3)+1)
	})
}

func TestBuildMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(400)
		vals := make([]float32, n)
		for i := range vals {
			switch r := rng.Float64(); {
			case r < 0.05:
				vals[i] = float32(math.NaN())
			case r < 0.3 && i > 0:
				vals[i] = vals[i-1] // repeats
			default:
				vals[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
			}
		}
		checkBuild(t, fmt.Sprintf("trial %d", trial), dtype.Float32, dtype.Bytes(vals), trial%3+1)
	}
}

// TestBuildAllocs pins the one-pass build's allocations on one 64 KiB
// Energy region: per bin an encoder's words and its bitmap, no position
// lists (the two-pass build made 262).
func TestBuildAllocs(t *testing.T) {
	energy := dtype.Bytes(workload.GenerateVPIC(1<<21, 7).Vars["Energy"][:16384])
	lo, hi := dtype.MinMax(dtype.Float32, energy)
	if got := testing.AllocsPerRun(5, func() { bitindex.Build(dtype.Float32, energy, lo, hi, bitindex.DefaultPrecision) }); got > 140 {
		t.Errorf("Build on one 64 KiB Energy region: %v allocs, want <= 140", got)
	}
}
