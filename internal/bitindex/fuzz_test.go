package bitindex_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
)

// fuzzIndex builds the index of raw read as float32 values (a trailing
// partial value dropped).
func fuzzIndex(raw []byte) (*bitindex.Index, []float32) {
	raw = raw[:len(raw)/4*4]
	lo, hi := dtype.MinMax(dtype.Float32, raw)
	return bitindex.Build(dtype.Float32, raw, lo, hi, bitindex.DefaultPrecision), dtype.View[float32](raw)
}

// FuzzDecodeDirectory: the directory decoder — what the engine reads
// when a region's directory is not in its metadata — never panics, and
// reads an index's encoding back to the directory the metadata would
// hold.
func FuzzDecodeDirectory(f *testing.F) {
	x, _ := fuzzIndex(f32(1, 2, 2, 3, math.NaN(), 0.5))
	enc := x.Encode()
	f.Add(enc, f32(1, 2, 2, 3, math.NaN(), 0.5))
	f.Add(enc[:bitindex.DirectorySize(len(x.Bins))-1], f32(repeat(4.25, 70)...))
	f.Add([]byte{}, []byte{})
	f.Add(enc[:32], f32(math.Inf(-1), 0, 0.1, 0.2, math.Inf(1)))
	f.Fuzz(func(t *testing.T, payload, raw []byte) {
		if d, err := bitindex.DecodeDirectory(payload); (d == nil) == (err == nil) {
			t.Fatalf("DecodeDirectory returned %v and %v", d, err)
		}
		x, _ := fuzzIndex(raw)
		got, err := bitindex.DecodeDirectory(x.Encode())
		if err != nil {
			t.Fatalf("decoding an encoded index: %v", err)
		}
		if want := x.Directory(); !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded directory %+v, want %+v", got, want)
		}
	})
}

// FuzzSelect holds Directory.Select to the values it indexes, NaNs
// included, for any interval: the bins it returns, its candidates and
// the bins it leaves out partition the directory; the side it returns
// is the sure bins, or the rest when invert is set; it inverts only when
// the rest has fewer blob bytes and no element is outside every bin;
// and wherever the complement can be taken, the answer read from the
// rest and inverted equals the one read from the sure bins, bit for bit,
// and both are the values' own.
func FuzzSelect(f *testing.F) {
	rng := rand.New(rand.NewSource(45))
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = math.Round(rng.NormFloat64()*40) / 8
	}
	f.Add(f32(vals...), -1.0, 2.0, true, false)
	f.Add(f32(vals...), vals[7], math.Inf(1), false, false)
	f.Add(f32(vals...), math.Inf(-1), vals[9], true, true)
	f.Add(f32(append(vals, math.NaN())...), -3.0, math.Inf(1), true, false)
	f.Add(f32(1, 2, 2, 3, math.NaN(), 0.5), 0.0, 2.0, true, true)
	f.Add([]byte{}, 0.0, 1.0, true, true)
	f.Fuzz(func(t *testing.T, raw []byte, lo, hi float64, loIncl, hiIncl bool) {
		x, vals := fuzzIndex(raw)
		d := x.Directory()
		bins, cands, invert := d.Select(nil, nil, lo, hi, loIncl, hiIncl)

		match := func(v float32) bool {
			return (float64(v) > lo || loIncl && float64(v) == lo) && (float64(v) < hi || hiIncl && float64(v) == hi)
		}
		// side[b] is 1 for a returned bin, 2 for a candidate, 0 left out.
		side := make([]int, len(d.Bins))
		for k, list := range [2][]int{bins, cands} {
			if !slices.IsSorted(list) {
				t.Fatalf("bin list %v is not in bin order", list)
			}
			for _, b := range list {
				if side[b] != 0 {
					t.Fatalf("bin %d is returned twice", b)
				}
				side[b] = k + 1
			}
		}
		// The answer read from the sure bins, and from the complement of
		// the rest and the candidates, each plus the candidates that
		// match.
		direct, inverted := make([]bool, len(vals)), make([]bool, len(vals))
		for i := range inverted {
			inverted[i] = true
		}
		var sureBytes, restBytes int64
		var elems uint64
		for b := range d.Bins {
			elems += d.Bins[b].Count
			isSure := (side[b] == 1) != invert
			switch {
			case side[b] == 2:
			case isSure:
				sureBytes += d.Bins[b].BlobLen
			default:
				restBytes += d.Bins[b].BlobLen
			}
			for _, i := range x.Bins[b].Bits.ToIndices() {
				if side[b] == 2 {
					direct[i], inverted[i] = match(vals[i]), match(vals[i])
					continue
				}
				if match(vals[i]) != isSure {
					t.Fatalf("bin %d (sure %v) holds element %d = %v", b, isSure, i, vals[i])
				}
				direct[i], inverted[i] = isSure, isSure
			}
		}
		if invert != (restBytes < sureBytes && elems == d.N) {
			t.Fatalf("invert %v with %d rest and %d sure bytes, %d of %d elements in bins", invert, restBytes, sureBytes, elems, d.N)
		}
		for i, v := range vals {
			if direct[i] != match(v) {
				t.Fatalf("element %d = %v: the sure bins answer %v", i, v, direct[i])
			}
		}
		if elems == d.N && !slices.Equal(direct, inverted) {
			t.Fatal("the inverted answer differs from the direct one")
		}
	})
}
