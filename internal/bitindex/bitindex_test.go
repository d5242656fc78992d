package bitindex

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pdcquery/internal/dtype"
	"pdcquery/internal/wah"
)

// buildOf builds the index over data with the extrema the import would
// pass in.
func buildOf(t dtype.Type, data []byte, precision int) *Index {
	lo, hi := dtype.MinMax(t, data)
	return Build(t, data, lo, hi, precision)
}

// equalIdx compares index slices treating nil and empty as equal.
func equalIdx(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func truthIndices(vals []float32, lo, hi float64, loIncl, hiIncl bool) []uint64 {
	var out []uint64
	for i, vf := range vals {
		v := float64(vf)
		if math.IsNaN(v) {
			continue
		}
		okLo := v > lo || (loIncl && v == lo)
		okHi := v < hi || (hiIncl && v == hi)
		if okLo && okHi {
			out = append(out, uint64(i))
		}
	}
	return out
}

// resolve runs Evaluate and resolves any candidates against the raw data,
// returning the final sorted hit indices.
func resolve(x *Index, vals []float32, lo, hi float64, loIncl, hiIncl bool) []uint64 {
	sure, cands := x.Evaluate(lo, hi, loIncl, hiIncl)
	if len(cands) > 0 {
		extra := x.CheckCandidates(dtype.Float32, dtype.Bytes(vals), cands, lo, hi, loIncl, hiIncl)
		sure = wah.Or(sure, extra)
	}
	return sure.ToIndices()
}

func randVals(rng *rand.Rand, n int, scale, off float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.Float64()*scale + off)
	}
	return out
}

func TestBuildBinStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := randVals(rng, 10000, 8, 0) // range ~8 -> step 0.1 at precision 2
	x := buildOf(dtype.Float32, dtype.Bytes(vals), 2)
	if x.N != 10000 {
		t.Fatalf("N = %d", x.N)
	}
	if x.Step != 0.1 {
		t.Errorf("step = %v, want 0.1", x.Step)
	}
	var total uint64
	for i := range x.Bins {
		b := &x.Bins[i]
		if b.Count == 0 {
			t.Errorf("bin %d stored with zero count", i)
		}
		if b.Count != b.Bits.Cardinality() {
			t.Errorf("bin %d count %d != cardinality %d", i, b.Count, b.Bits.Cardinality())
		}
		if b.Min < b.Lo || b.Max >= b.Hi+1e-9 {
			t.Errorf("bin %d extrema [%v,%v] outside edges [%v,%v)", i, b.Min, b.Max, b.Lo, b.Hi)
		}
		total += b.Count
	}
	if total != x.N {
		t.Errorf("bin counts sum %d != N %d", total, x.N)
	}
}

func TestEvaluateExactOnAlignedBoundaries(t *testing.T) {
	// Query boundaries on bin edges (like the paper's 2.1 < E < 2.2)
	// resolve without candidates when no element equals the boundary.
	rng := rand.New(rand.NewSource(2))
	vals := randVals(rng, 50000, 4, 0)
	x := buildOf(dtype.Float32, dtype.Bytes(vals), 2)
	sure, cands := x.Evaluate(2.1, 2.2, false, false)
	if len(cands) != 0 {
		t.Errorf("aligned boundaries produced %d candidate bins", len(cands))
	}
	want := truthIndices(vals, 2.1, 2.2, false, false)
	if got := sure.ToIndices(); !equalIdx(got, want) {
		t.Errorf("got %d hits, want %d", len(got), len(want))
	}
}

func TestEvaluateUnalignedBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := randVals(rng, 20000, 10, -5)
	x := buildOf(dtype.Float32, dtype.Bytes(vals), 2)
	for _, q := range []struct{ lo, hi float64 }{
		{-1.234, 2.345}, {0.001, 0.002}, {-5, 5}, {4.99, 5.01}, {-6, -4.5},
	} {
		got := resolve(x, vals, q.lo, q.hi, true, false)
		want := truthIndices(vals, q.lo, q.hi, true, false)
		if !equalIdx(got, want) {
			t.Errorf("query [%v,%v): got %d hits, want %d", q.lo, q.hi, len(got), len(want))
		}
	}
}

func TestEvaluateBoundaryValueInData(t *testing.T) {
	// Data containing the exact boundary value forces a candidate check,
	// which must distinguish strict from inclusive predicates.
	vals := []float32{1.0, 2.0, 2.0, 3.0, 4.0}
	x := buildOf(dtype.Float32, dtype.Bytes(vals), 2)

	got := resolve(x, vals, 2.0, 4.0, false, false) // 2 < v < 4
	if want := []uint64{3}; !reflect.DeepEqual(got, want) {
		t.Errorf("strict: got %v, want %v", got, want)
	}
	got = resolve(x, vals, 2.0, 4.0, true, true) // 2 <= v <= 4
	if want := []uint64{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("inclusive: got %v, want %v", got, want)
	}
}

func TestEqualityQuery(t *testing.T) {
	vals := []float32{1.5, 2.5, 2.5, 3.5}
	x := buildOf(dtype.Float32, dtype.Bytes(vals), 2)
	got := resolve(x, vals, 2.5, 2.5, true, true) // v == 2.5
	if want := []uint64{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("equality: got %v, want %v", got, want)
	}
}

func TestEmptyAndConstantData(t *testing.T) {
	x := buildOf(dtype.Float32, nil, 2)
	if x.N != 0 || len(x.Bins) != 0 {
		t.Errorf("empty index: N=%d bins=%d", x.N, len(x.Bins))
	}
	sure, cands := x.Evaluate(0, 1, true, true)
	if sure.Cardinality() != 0 || len(cands) != 0 {
		t.Error("empty index produced hits")
	}

	vals := []float32{7, 7, 7}
	x = buildOf(dtype.Float32, dtype.Bytes(vals), 2)
	got := resolve(x, vals, 6, 8, true, true)
	if len(got) != 3 {
		t.Errorf("constant data: %d hits, want 3", len(got))
	}
	got = resolve(x, vals, 8, 9, true, true)
	if len(got) != 0 {
		t.Errorf("constant data out of range: %d hits", len(got))
	}
}

func TestNaNNeverMatches(t *testing.T) {
	vals := []float32{1, float32(math.NaN()), 3}
	x := buildOf(dtype.Float32, dtype.Bytes(vals), 2)
	got := resolve(x, vals, math.Inf(-1), math.Inf(1), false, false)
	if want := []uint64{0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("NaN handling: got %v, want %v", got, want)
	}
}

func TestIntegerData(t *testing.T) {
	vals := []int32{10, 20, 30, 40, 50}
	x := buildOf(dtype.Int32, dtype.Bytes(vals), 2)
	sure, cands := x.Evaluate(15, 45, true, true)
	if len(cands) > 0 {
		got := x.CheckCandidates(dtype.Int32, dtype.Bytes(vals), cands, 15, 45, true, true)
		sure = wah.Or(sure, got)
	}
	if want := []uint64{1, 2, 3}; !reflect.DeepEqual(sure.ToIndices(), want) {
		t.Errorf("int32 query: got %v, want %v", sure.ToIndices(), want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := randVals(rng, 5000, 6, 1)
	x := buildOf(dtype.Float32, dtype.Bytes(vals), 2)
	enc := x.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != x.N || got.Step != x.Step || got.Base != x.Base || len(got.Bins) != len(x.Bins) {
		t.Fatalf("decode header mismatch")
	}
	for i := range x.Bins {
		a, b := &x.Bins[i], &got.Bins[i]
		if a.Lo != b.Lo || a.Hi != b.Hi || a.Min != b.Min || a.Max != b.Max || a.Count != b.Count {
			t.Fatalf("bin %d metadata mismatch", i)
		}
		if !reflect.DeepEqual(a.Bits.ToIndices(), b.Bits.ToIndices()) {
			t.Fatalf("bin %d bitmap mismatch", i)
		}
	}
}

func TestDirectoryPartialRead(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := randVals(rng, 20000, 8, 0)
	x := buildOf(dtype.Float32, dtype.Bytes(vals), 2)
	enc := x.Encode()

	// A query reads only the directory prefix first...
	dirBytes := enc[:DirectorySize(len(x.Bins))]
	d, err := DecodeDirectory(dirBytes)
	if err != nil {
		t.Fatal(err)
	}
	sure, cands, invert := d.Select(nil, nil, 2.1, 2.4, false, false)
	if len(cands) != 0 {
		t.Fatalf("aligned query produced candidates: %v", cands)
	}
	if invert {
		t.Fatal("a selective query selected the complement")
	}
	// ...then only the selected bins' blobs.
	var bms []*wah.Bitmap
	var blobBytes int64
	for _, bi := range sure {
		db := d.Bins[bi]
		bm, err := wah.Decode(enc[db.BlobOff : db.BlobOff+db.BlobLen])
		if err != nil {
			t.Fatal(err)
		}
		blobBytes += db.BlobLen
		bms = append(bms, bm)
	}
	got := wah.OrAll(bms).ToIndices()
	want := truthIndices(vals, 2.1, 2.4, false, false)
	if !equalIdx(got, want) {
		t.Errorf("partial-read query: %d hits, want %d", len(got), len(want))
	}
	// Selective queries must touch a small fraction of the index.
	if blobBytes*5 > int64(len(enc)) {
		t.Errorf("query read %d of %d index bytes; expected a small fraction", blobBytes, len(enc))
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeDirectory(nil); err == nil {
		t.Error("DecodeDirectory(nil) succeeded")
	}
	if _, err := DecodeDirectory(make([]byte, 32)); err == nil {
		t.Error("bad magic accepted")
	}
	vals := []float32{1, 2, 3}
	enc := buildOf(dtype.Float32, dtype.Bytes(vals), 2).Encode()
	if _, err := DecodeDirectory(enc[:33]); err == nil {
		t.Error("truncated directory accepted")
	}
	if _, err := Decode(enc[:len(enc)-2]); err == nil {
		t.Error("truncated blob accepted")
	}
}

func TestSizeBytesMatchesEncoded(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := randVals(rng, 3000, 5, 0)
	x := buildOf(dtype.Float32, dtype.Bytes(vals), 2)
	if got, want := x.SizeBytes(), int64(len(x.Encode())); got != want {
		t.Errorf("SizeBytes = %d, encoded length = %d", got, want)
	}
}

func TestPropertyResolveMatchesTruth(t *testing.T) {
	f := func(seed int64, loF, wF float64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := randVals(rng, 800, 20, -10)
		x := buildOf(dtype.Float32, dtype.Bytes(vals), 2)
		lo := math.Mod(math.Abs(loF), 25) - 12
		hi := lo + math.Mod(math.Abs(wF), 8)
		got := resolve(x, vals, lo, hi, true, false)
		want := truthIndices(vals, lo, hi, true, false)
		return equalIdx(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBinStep(t *testing.T) {
	cases := []struct {
		lo, hi float64
		p      int
		want   float64
	}{
		{0, 8, 2, 0.1},
		{0, 80, 2, 1},
		{0, 0.8, 2, 0.01},
		{0, 8, 3, 0.01},
		{5, 5, 2, 1},  // zero range
		{0, 10, 0, 1}, // default precision
	}
	for _, c := range cases {
		if got := binStep(c.lo, c.hi, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("binStep(%v,%v,%d) = %v, want %v", c.lo, c.hi, c.p, got, c.want)
		}
	}
}
