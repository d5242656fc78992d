package exec

import (
	"math/bits"
	"slices"
)

// Both access paths hold a region's matches as a dense bitset: bit i%64
// of word i/64 is local element i. These are its word loops; the ones
// that fill it are pred.mark (from raw data) and wah.OrEncodedInto (from
// an encoded bin).

// sized returns buf resized to n words, its contents left as they are:
// for a bitset pred.mark is about to overwrite.
func sized(buf []uint64, n int) []uint64 {
	return slices.Grow(buf[:0], n)[:n]
}

// zeroed returns buf resized to n words, all zero.
func zeroed(buf []uint64, n int) []uint64 {
	buf = sized(buf, n)
	clear(buf)
	return buf
}

func popcount(ws []uint64) int64 {
	var n int
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

// andInto intersects acc with cur in place and returns what is left.
func andInto(acc, cur []uint64) int64 {
	var n int
	cur = cur[:len(acc)]
	for i := range acc {
		acc[i] &= cur[i]
		n += bits.OnesCount64(acc[i])
	}
	return int64(n)
}

// setBits sets the bits listed in idx (local indices below 64*len(ws)).
func setBits(ws []uint64, idx []uint64) {
	for _, i := range idx {
		ws[i>>6] |= 1 << (i & 63)
	}
}

// clearRange clears bits [lo, hi) of ws; an empty range is a no-op.
func clearRange(ws []uint64, lo, hi uint64) {
	if lo >= hi {
		return
	}
	i, j := lo>>6, (hi-1)>>6
	first := ^uint64(0) << (lo & 63)
	last := ^uint64(0) >> (63 - (hi-1)&63)
	if i == j {
		ws[i] &^= first & last
		return
	}
	ws[i] &^= first
	clear(ws[i+1 : j])
	ws[j] &^= last
}

// invertBits complements the n-bit set ws: bits at and beyond n, the
// slack word's included, come back zero.
func invertBits(ws []uint64, n uint64) {
	for i := range ws {
		ws[i] = ^ws[i]
	}
	clearRange(ws, n, uint64(len(ws))<<6)
}

// coversRegion reports whether the runs are the whole n-element region,
// i.e. there is no spatial constraint to apply.
func coversRegion(runs []localRun, n uint64) bool {
	return len(runs) == 1 && runs[0].Start == 0 && runs[0].Len >= n
}

// keepRuns clears every bit of the n-bit set ws outside the sorted,
// disjoint runs — the spatial constraint applied as a range mask. Runs
// covering the whole region (no constraint) clear nothing.
func keepRuns(ws []uint64, runs []localRun, n uint64) {
	var prev uint64
	for _, r := range runs {
		clearRange(ws, prev, min(r.Start, n))
		prev = min(r.Start+r.Len, n)
	}
	clearRange(ws, prev, n)
}

// appendSetBits writes base+i for each of the card set bits i of ws to
// out[:0], in increasing order, growing out only when its capacity is
// short.
func appendSetBits(out []uint64, ws []uint64, base uint64, card int64) []uint64 {
	out = slices.Grow(out[:0], int(card))[:card]
	k := 0
	for i, w := range ws {
		b := base + uint64(i)<<6
		for ; w != 0; w &= w - 1 {
			out[k] = b + uint64(bits.TrailingZeros64(w))
			k++
		}
	}
	return out
}
