package exec

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/simio"
	"pdcquery/internal/vclock"
	"pdcquery/internal/wah"
)

// indexedRegion stores vals as the one float32 region of object 1, with
// its index and the directory in its metadata, as import does.
func indexedRegion(vals []float32) (*simio.Store, *object.Object) {
	n := uint64(len(vals))
	data := dtype.Bytes(vals)
	o := &object.Object{ID: 1, Type: dtype.Float32, Dims: []uint64{n}}
	lo, hi := dtype.MinMax(o.Type, data)
	x := bitindex.Build(o.Type, data, lo, hi, bitindex.DefaultPrecision)
	rm := object.RegionMeta{
		Region:    region.Split1D(n, n)[0],
		ExtentKey: object.ExtentKey(1, 0), IndexKey: object.IndexExtentKey(1, 0),
		IndexBins: len(x.Bins), IndexDir: x.Directory(),
	}
	st := simio.New(simio.DefaultModel())
	st.Write(nil, rm.ExtentKey, simio.PFS, data)
	st.Write(nil, rm.IndexKey, simio.PFS, x.Encode())
	o.Regions = []object.RegionMeta{rm}
	return st, o
}

// evalCondition resolves iv over o's region 0 on the index path into a
// fresh bitset.
func evalCondition(t *testing.T, e *Engine, o *object.Object, iv query.Interval) []uint64 {
	t.Helper()
	p, err := compile(o.Type, iv)
	if err != nil {
		t.Fatal(err)
	}
	n := o.Regions[0].Region.NumElems()
	dst := make([]uint64, wah.DenseWords(n))
	if err := e.evalIndexCondition(o, 0, n, iv, p, new(scratch), dst, new(Stats)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// FuzzCachedIndexOr holds the decoded-bin cache to the bins it stands
// for. The fuzzed values, NaNs included, are tiled over a region of
// 4096 elements (132 WAH groups, so a bin whose bits are spread runs
// past binCacheMinWords) and indexed; the fuzzed interval is then
// resolved without a cache (every bin decoded into the bitset), through
// a fresh cache (every bin past the limit decoded, cached and ORed) and
// through the same cache again (those bins ORed from it). All three
// bitsets are the values' own, bit for bit, and the second pass hits on
// every bin the first one looked up (an inverted side ORs a candidate
// bin twice, so the first pass can hit too).
func FuzzCachedIndexOr(f *testing.F) {
	rng := rand.New(rand.NewSource(48))
	vals := make([]float64, 97)
	for i := range vals {
		vals[i] = math.Round(rng.NormFloat64()*40) / 8
	}
	f.Add(f32(vals...), -1.0, 2.0, true, false)
	f.Add(f32(vals...), vals[7], math.Inf(1), false, false)
	f.Add(f32(vals...), math.Inf(-1), vals[9], true, true)
	f.Add(f32(append(vals, math.NaN())...), -3.0, math.Inf(1), true, false)
	f.Add(f32(1, 2, 2, 3, math.NaN(), 0.5), 0.0, 2.0, true, true)
	f.Add(f32(7), 7.0, 7.0, true, true)
	f.Fuzz(func(t *testing.T, raw []byte, lo, hi float64, loIncl, hiIncl bool) {
		pattern := dtype.View[float32](raw)
		if len(pattern) == 0 {
			return
		}
		vals := make([]float32, 4096)
		for i := range vals {
			vals[i] = pattern[i%len(pattern)]
		}
		st, o := indexedRegion(vals)
		iv := query.Interval{Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl}
		want := make([]uint64, wah.DenseWords(uint64(len(vals))))
		for i, v := range vals {
			if iv.Contains(float64(v)) {
				want[i>>6] |= 1 << (i & 63)
			}
		}
		direct := evalCondition(t, &Engine{Store: st, Acct: vclock.NewAccount()}, o, iv)
		e := &Engine{Store: st, Acct: vclock.NewAccount(), Cache: NewCache(1 << 20)}
		miss := evalCondition(t, e, o, iv)
		first := e.Cache.Stats()
		hit := evalCondition(t, e, o, iv)
		second := e.Cache.Stats()
		for name, got := range map[string][]uint64{"direct": direct, "miss": miss, "hit": hit} {
			if !slices.Equal(got, want) {
				t.Fatalf("%v: the %s pass differs from the values' own bits", iv, name)
			}
		}
		if second.BinMisses != first.BinMisses || second.BinHits-first.BinHits != first.BinHits+first.BinMisses {
			t.Fatalf("%v: first pass %d hits %d misses, second %d hits %d misses; want the second to hit every first-pass lookup",
				iv, first.BinHits, first.BinMisses, second.BinHits-first.BinHits, second.BinMisses-first.BinMisses)
		}
	})
}

func f32(vs ...float64) []byte {
	out := make([]float32, len(vs))
	for i, v := range vs {
		out[i] = float32(v)
	}
	return dtype.Bytes(out)
}

// TestCorruptBinNeverCached damages the largest bin of a region's index,
// one past binCacheMinWords: the first statement and the second on the
// same engine both fail with wah.ErrCorrupt, serially and under a
// worker pool, and the damaged bin has no cache entry after either.
func TestCorruptBinNeverCached(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	f := buildTypedFixture(rng, []dtype.Type{dtype.Float32}, 4000, 4000, nil, true)
	rm := &f.objs[1].Regions[0]
	big := 0
	for b, db := range rm.IndexDir.Bins {
		if db.BlobLen > rm.IndexDir.Bins[big].BlobLen {
			big = b
		}
	}
	bin := rm.IndexDir.Bins[big]
	if bin.BlobLen < 12+4*binCacheMinWords {
		t.Fatalf("largest bin holds %d bytes, below the cache limit", bin.BlobLen)
	}
	q := &query.Query{Root: query.Leaf(1, query.OpGT, -1e12)} // touches every bin
	raw, err := f.st.ReadAll(nil, rm.IndexKey)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func(blob []byte){
		"truncated word count": func(blob []byte) { blob[8]-- },
		"lying bit count":      func(blob []byte) { blob[0]++ },
		"overrunning fill":     func(blob []byte) { copy(blob[12:], []byte{0xff, 0xff, 0x00, 0x80}) },
	}
	for name, corrupt := range damage {
		enc := raw.Clone()
		corrupt(enc[bin.BlobOff : bin.BlobOff+bin.BlobLen])
		f.st.Write(nil, rm.IndexKey, simio.PFS, enc)
		stored, err := f.st.ReadAll(nil, rm.IndexKey)
		if err != nil {
			t.Fatal(err)
		}
		blob := stored[bin.BlobOff : bin.BlobOff+bin.BlobLen]
		for _, workers := range []int{0, 4} {
			e, _ := f.engine(shapeBitmap, workers)
			for stmt := 1; stmt <= 2; stmt++ {
				if _, err := e.Evaluate(q, f.assign(), NeedCount); !errors.Is(err, wah.ErrCorrupt) {
					t.Errorf("%s, %d workers, statement %d: err = %v, want wah.ErrCorrupt", name, workers, stmt, err)
				}
				if _, ok := e.Cache.GetBin(rm.IndexKey, big, rm.Region.NumElems(), blob); ok {
					t.Errorf("%s, %d workers, statement %d: the damaged bin is cached", name, workers, stmt)
				}
			}
			if e.Pool != nil {
				e.Pool.Close()
			}
		}
	}
	f.st.Write(nil, rm.IndexKey, simio.PFS, raw)
	e, _ := f.engine(shapeBitmap, 0)
	if res, err := e.Evaluate(q, f.assign(), NeedCount); err != nil || res.Sel.NHits == 0 {
		t.Fatalf("restored index: %v", err)
	}
	if s := e.Cache.Stats(); s.BinMisses == 0 || s.BinBytes == 0 {
		t.Fatalf("restored index cached no bin: %+v", s)
	}
}

// TestCachedIndexRegionAllocatesNothing: a warm index-path evaluation of
// a region whose bins are all in the cache — one 64 KiB float32 region
// of values spread over [0, 100), so the window's bins run to hundreds
// of words — allocates nothing, and every bin it ORs comes from the
// cache.
func TestCachedIndexRegionAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	vals := make([]float32, 1<<14)
	for i := range vals {
		vals[i] = float32(rng.Float64() * 100)
	}
	_, index, cache := regionOps(dtype.Bytes(vals), uint64(len(vals)))
	index()
	before := cache.Stats()
	if before.BinMisses == 0 {
		t.Fatal("the window read no bin past the cache limit")
	}
	const runs = 100
	if n := testing.AllocsPerRun(runs, index); n != 0 {
		t.Errorf("warm index region with cached bins: %v allocs/op, want 0", n)
	}
	after := cache.Stats()
	lookups := before.BinHits + before.BinMisses // per evaluation
	if hits := after.BinHits - before.BinHits; after.BinMisses != before.BinMisses || hits != lookups*(runs+1) {
		t.Errorf("%d runs: %d bin hits and %d new misses, want %d hits and none",
			runs+1, hits, after.BinMisses-before.BinMisses, lookups*(runs+1))
	}
}
