package wah

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt marks an encoded bitmap whose header, length or group
// count does not describe a bitmap of the expected size. Encoded bins
// come from storage, so a damaged one is an input error, never a panic.
var ErrCorrupt = errors.New("wah: corrupt encoded bitmap")

// DenseWords returns the length OrEncodedInto needs of a dense bitset
// over nbits bits: one uint64 per 64 bits plus a slack word, which lets
// the kernel store a literal's spill-over unconditionally.
func DenseWords(nbits uint64) int { return int((nbits+63)/64) + 1 }

// OrEncodedInto ORs the bitmap serialized in blob (the format Encode
// writes) into the dense bitset dst: bit i of the bitmap is bit i%64 of
// dst[i/64]. It reads the 32-bit words straight from blob — no Bitmap,
// no Builder — so a query that unions many bins pays one pass over each
// bin's bytes and nothing per combine. len(dst) must be at least
// DenseWords(nbits); dst's bits at and beyond nbits are zero on return.
//
// The blob is held to nbits as it is read: its header must say nbits,
// its length must match its word count, every fill must span at least
// one group, and the groups must add up to exactly ⌈nbits/31⌉. Anything
// else is ErrCorrupt, and no word of dst outside dst[:DenseWords(nbits)]
// is written either way (dst's contents are unspecified after an
// error).
func OrEncodedInto(dst []uint64, nbits uint64, blob []byte) error {
	words := DenseWords(nbits)
	if len(dst) < words {
		return fmt.Errorf("wah: dense bitset of %d words is too short for %d bits", len(dst), nbits)
	}
	if len(blob) < 12 {
		return fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorrupt, len(blob))
	}
	if got := binary.LittleEndian.Uint64(blob[0:8]); got != nbits {
		return fmt.Errorf("%w: header says %d bits, want %d", ErrCorrupt, got, nbits)
	}
	body := blob[12:]
	if n := binary.LittleEndian.Uint32(blob[8:12]); uint64(len(body)) != 4*uint64(n) {
		return fmt.Errorf("%w: %d body bytes do not hold %d words", ErrCorrupt, len(body), n)
	}
	dst = dst[:words]
	end := (nbits + groupBits - 1) / groupBits * groupBits // where the last group ends
	var pos uint64                                         // bit position of the next group
	for ; len(body) >= 4; body = body[4:] {
		w := binary.LittleEndian.Uint32(body)
		// Fills and literals alternate unpredictably in a bin of
		// continuous data, so the word is not branched on: fill is all
		// ones for a fill word, a fill contributes a zero literal, and a
		// literal spans one group.
		fill := -(w >> 31)
		lit := uint64(w &^ fill)
		span := uint64(w&maxFillLen&fill|^fill&1) * groupBits
		if span-1 >= end-pos { // an empty fill, or more groups than the bitmap has
			break
		}
		// The group starts below nbits, so i+1 is at most the slack word.
		i, s := pos>>6, pos&63
		dst[i] |= lit << s
		dst[i+1] |= lit >> 1 >> (63 - s)
		if w >= fillFlag|fillValue { // a one-fill: rare, and predicted so
			setRange(dst, pos, pos+span)
		}
		pos += span
	}
	if len(body) != 0 || pos != end {
		return fmt.Errorf("%w: groups do not add up to %d bits", ErrCorrupt, nbits)
	}
	// The last group is padded to 31 bits; a well-formed bitmap pads with
	// zeros, a damaged one may not.
	t := nbits >> 6
	dst[t] &= 1<<(nbits&63) - 1
	clear(dst[t+1:])
	return nil
}

// OrDenseInto ORs src, a dense bitset as OrEncodedInto leaves it, into
// dst[:len(src)]; len(dst) must be at least len(src). A bin decoded
// once into its own bitset is ORed into the next statement's with this
// instead of being decoded again.
func OrDenseInto(dst, src []uint64) {
	dst = dst[:len(src)]
	for i, w := range src {
		dst[i] |= w
	}
}

// setRange sets bits [lo, hi) of dst; hi > lo.
func setRange(dst []uint64, lo, hi uint64) {
	i, j := lo>>6, (hi-1)>>6
	first := ^uint64(0) << (lo & 63)
	last := ^uint64(0) >> (63 - (hi-1)&63)
	if i == j {
		dst[i] |= first & last
		return
	}
	dst[i] |= first
	for k := i + 1; k < j; k++ {
		dst[k] = ^uint64(0)
	}
	dst[j] |= last
}
