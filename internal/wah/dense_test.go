package wah

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand"
	"testing"
)

// denseIndices lists the set bits of a dense bitset.
func denseIndices(ws []uint64) []uint64 {
	var out []uint64
	for i, w := range ws {
		for ; w != 0; w &= w - 1 {
			out = append(out, uint64(i)<<6+uint64(bits.TrailingZeros64(w)))
		}
	}
	return out
}

const sentinel = 0xdeadbeefdeadbeef

// orDense runs the kernel on a zeroed bitset of exactly DenseWords
// words followed by sentinels, and fails the test if a sentinel moved.
func orDense(t testing.TB, nbits uint64, blob []byte) ([]uint64, error) {
	t.Helper()
	words := DenseWords(nbits)
	buf := make([]uint64, words+2)
	buf[words], buf[words+1] = sentinel, sentinel
	err := OrEncodedInto(buf[:words], nbits, blob)
	if buf[words] != sentinel || buf[words+1] != sentinel {
		t.Fatalf("nbits=%d: wrote beyond the bitset", nbits)
	}
	return buf[:words], err
}

// checkDense holds the dense OR of bm's encoding to bm.ToIndices().
func checkDense(t *testing.T, name string, bm *Bitmap) {
	t.Helper()
	got, err := orDense(t, bm.NumBits(), bm.Encode())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := bm.ToIndices(); !equalU64(denseIndices(got), want) {
		t.Errorf("%s: dense OR = %v, want %v", name, denseIndices(got), want)
	}
}

func TestOrEncodedIntoTable(t *testing.T) {
	run := func(spans ...uint64) *Bitmap { // alternating zero/one runs
		var bd Builder
		for i, n := range spans {
			bd.AppendRun(i%2 == 1, n)
		}
		return bd.Build()
	}
	for name, bm := range map[string]*Bitmap{
		"empty bitmap":            Empty(0),
		"one bit":                 FromIndices([]uint64{0}, 1),
		"30 bits":                 FromIndices([]uint64{0, 29}, 30),
		"31 bits":                 Full(31),
		"32 bits":                 FromIndices([]uint64{31}, 32),
		"63 bits":                 FromIndices([]uint64{0, 31, 62}, 63),
		"64 bits":                 Full(64),
		"65 bits":                 FromIndices([]uint64{64}, 65),
		"all-zero fill":           Empty(1000),
		"all-one fill":            Full(31 * 40),
		"all-one, padded tail":    Full(1000),
		"one-fill across words":   run(40, 500, 7),
		"one-fill inside a word":  run(62, 31, 100),
		"literal straddles words": FromIndices([]uint64{60, 63, 64, 70}, 200),
		"region-sized":            FromIndices([]uint64{1, 5, 100, 101, 3000, 3001, 9000, 16383}, 1<<14),
		"tail group of one bit":   FromIndices([]uint64{62}, 63),
	} {
		checkDense(t, name, bm)
	}

	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 31, 33, 64, 100, 1000, 4097, 1 << 14} {
		for _, density := range []float64{0, 0.002, 0.05, 0.5, 0.98, 1} {
			checkDense(t, "random", fromNaive(randNaive(rng, n, density)))
		}
	}
}

// TestOrEncodedIntoAccumulates ORs several bins into one bitset, the way
// the index path uses the kernel.
func TestOrEncodedIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 5000
	dst := make([]uint64, DenseWords(n))
	union := make(naive, n)
	for k := 0; k < 6; k++ {
		nv := randNaive(rng, n, 0.03)
		for i, v := range nv {
			union[i] = union[i] || v
		}
		if err := OrEncodedInto(dst, n, fromNaive(nv).Encode()); err != nil {
			t.Fatal(err)
		}
	}
	if !equalU64(denseIndices(dst), union.indices()) {
		t.Error("accumulated OR differs from the union")
	}
}

func TestOrEncodedIntoRejectsBadBlobs(t *testing.T) {
	const n = 1000
	good := FromIndices([]uint64{3, 500, 999}, n).Encode()
	word := func(blob []byte, i int, w uint32) []byte {
		out := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(out[12+4*i:], w)
		return out
	}
	nwords := func(blob []byte, k uint32) []byte {
		out := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(out[8:12], k)
		return out
	}
	lyingBits := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(lyingBits[0:8], n+1)
	for name, blob := range map[string][]byte{
		"nil":                  nil,
		"short header":         good[:11],
		"truncated body":       good[:len(good)-1],
		"truncated by a word":  nwords(good[:len(good)-4], 0),
		"groups missing":       nwords(good[:len(good)-4], uint32(len(good)-16)/4),
		"over-long":            nwords(append(append([]byte(nil), good...), 0, 0, 0, 0), uint32(len(good)-12)/4+1),
		"word count lies":      nwords(good, 1),
		"bit count lies":       lyingBits,
		"fill overruns":        word(good, 0, fillFlag|40),
		"max fill":             word(good, 0, fillFlag|maxFillLen),
		"max one-fill":         word(good, 0, fillFlag|fillValue|maxFillLen),
		"zero-length fill":     word(good, 0, fillFlag),
		"zero-length one-fill": word(good, 0, fillFlag|fillValue),
	} {
		if _, err := orDense(t, n, blob); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if err := OrEncodedInto(make([]uint64, DenseWords(n)-1), n, good); err == nil {
		t.Error("short dst accepted")
	}
}

// TestOrEncodedIntoClearsDirtyTail: set padding bits in the last group
// (a damaged blob that still adds up) never reach the bitset.
func TestOrEncodedIntoClearsDirtyTail(t *testing.T) {
	const n = 40 // two groups; bits 40..61 are padding
	blob := FromIndices([]uint64{39}, n).Encode()
	binary.LittleEndian.PutUint32(blob[12+4:], literalAll)
	got, err := orDense(t, n, blob)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !equalU64(denseIndices(got), bm.ToIndices()) {
		t.Errorf("dirty tail: dense OR = %v, want %v", denseIndices(got), bm.ToIndices())
	}
}

func TestOrEncodedIntoZeroAlloc(t *testing.T) {
	a, _ := allocTestOperands()
	blob := a.Encode()
	dst := make([]uint64, DenseWords(a.NumBits()))
	if n := testing.AllocsPerRun(200, func() { _ = OrEncodedInto(dst, a.NumBits(), blob) }); n != 0 {
		t.Errorf("OrEncodedInto allocated %.1f/op, want 0", n)
	}
}
