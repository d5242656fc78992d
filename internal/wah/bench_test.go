package wah

import (
	"math/rand"
	"testing"
)

func benchBitmap(n int, density float64, seed int64) *Bitmap {
	rng := rand.New(rand.NewSource(seed))
	var idx []uint64
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			idx = append(idx, uint64(i))
		}
	}
	return FromIndices(idx, uint64(n))
}

func BenchmarkFromIndicesSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var idx []uint64
	for i := 0; i < 1<<20; i++ {
		if rng.Float64() < 0.001 {
			idx = append(idx, uint64(i))
		}
	}
	b.SetBytes(1 << 17) // bitmap bits in bytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromIndices(idx, 1<<20)
	}
}

func BenchmarkOrClustered(b *testing.B) {
	var bd1, bd2 Builder
	bd1.AppendRun(false, 1<<19)
	bd1.AppendRun(true, 1<<10)
	bd1.AppendRun(false, (1<<20)-(1<<19)-(1<<10))
	bd2.AppendRun(true, 1<<10)
	bd2.AppendRun(false, (1<<20)-(1<<10))
	x, y := bd1.Build(), bd2.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Or(x, y)
	}
}

func BenchmarkCardinality(b *testing.B) {
	x := benchBitmap(1<<20, 0.05, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Cardinality()
	}
}

// BenchmarkOrEncodedInto is the index path's per-bin cost: one bin of a
// 16384-element region of continuous data (about one set bit in eighty,
// so fills and literals alternate) ORed into the dense bitset. The copy
// sub-benchmark moves the same bytes and is the floor to read it
// against; both report ns per 32-bit WAH word. The cached sub-benchmark
// ORs the same bin already decoded (OrDenseInto of its 257 words), what
// a bin costs once the region cache holds it; ns/op is ns per bin for
// all three, and cached ÷ kernel's ns/word is the blob size, in WAH
// words, at which keeping the decoded bin starts to pay.
func BenchmarkOrEncodedInto(b *testing.B) {
	const nbits = 1 << 14
	blob := benchBitmap(nbits, 0.012, 6).Encode()
	nwords := float64(len(blob)-12) / 4
	perWord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nwords, "ns/word")
	}
	b.Run("kernel", func(b *testing.B) {
		dst := make([]uint64, DenseWords(nbits))
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if err := OrEncodedInto(dst, nbits, blob); err != nil {
				b.Fatal(err)
			}
		}
		perWord(b)
	})
	b.Run("cached", func(b *testing.B) {
		dst := make([]uint64, DenseWords(nbits))
		words := make([]uint64, DenseWords(nbits))
		if err := OrEncodedInto(words, nbits, blob); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			OrDenseInto(dst, words)
		}
		perWord(b)
	})
	b.Run("copy", func(b *testing.B) {
		dst := make([]byte, len(blob))
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			copy(dst, blob)
		}
		perWord(b)
	})
}
