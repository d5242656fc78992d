package bitindex

import (
	"math/rand"
	"testing"

	"pdcquery/internal/dtype"
)

func benchData(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(rng.ExpFloat64() * 2)
	}
	return dtype.Bytes(vals)
}

func BenchmarkBuild(b *testing.B) {
	data := benchData(1 << 18)
	lo, hi := dtype.MinMax(dtype.Float32, data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(dtype.Float32, data, lo, hi, 2)
	}
}

func BenchmarkEvaluateSelective(b *testing.B) {
	x := buildOf(dtype.Float32, benchData(1<<18), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Evaluate(8.0, 9.0, false, false)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	x := buildOf(dtype.Float32, benchData(1<<16), 2)
	enc := x.Encode()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
