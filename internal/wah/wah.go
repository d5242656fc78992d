// Package wah implements 32-bit Word-Aligned Hybrid (WAH) compressed
// bitmaps, the compression used by FastBit and by the paper's bitmap index
// (§III-D4).
//
// A WAH bitmap is a sequence of 32-bit words. A word with its most
// significant bit clear is a literal holding the next 31 bits of the
// bitmap. A word with its MSB set is a fill: bit 30 is the fill value and
// the low 30 bits count how many 31-bit groups the fill spans. Long runs
// of identical bits — the common case for bin bitmaps over clustered
// scientific data — compress to a single word.
package wah

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const (
	groupBits  = 31
	fillFlag   = uint32(1) << 31
	fillValue  = uint32(1) << 30
	maxFillLen = fillValue - 1 // max groups representable by one fill word
	literalAll = uint32(1)<<groupBits - 1
)

// Bitmap is an immutable WAH-compressed bitmap. Build one with a Builder
// or FromIndices. The zero value is an empty bitmap.
type Bitmap struct {
	words []uint32
	nbits uint64
}

// NumBits returns the logical length of the bitmap in bits.
func (b *Bitmap) NumBits() uint64 { return b.nbits }

// SizeBytes returns the compressed size in bytes.
func (b *Bitmap) SizeBytes() int { return 4 * len(b.words) }

// Cardinality returns the number of set bits.
func (b *Bitmap) Cardinality() uint64 {
	var n uint64
	for _, w := range b.words {
		if w&fillFlag != 0 {
			if w&fillValue != 0 {
				n += uint64(w&maxFillLen) * groupBits
			}
		} else {
			n += uint64(bits.OnesCount32(w))
		}
	}
	// Tail bits beyond nbits are kept zero by the builder, so no
	// correction is needed.
	return n
}

// ForEach calls fn with the index of every set bit in increasing order.
func (b *Bitmap) ForEach(fn func(idx uint64)) {
	var pos uint64
	for _, w := range b.words {
		if w&fillFlag != 0 {
			span := uint64(w&maxFillLen) * groupBits
			if w&fillValue != 0 {
				end := pos + span
				if end > b.nbits {
					end = b.nbits
				}
				for i := pos; i < end; i++ {
					fn(i)
				}
			}
			pos += span
		} else {
			for g := w; g != 0; {
				t := bits.TrailingZeros32(g)
				idx := pos + uint64(t)
				if idx < b.nbits {
					fn(idx)
				}
				g &^= 1 << t
			}
			pos += groupBits
		}
	}
}

// ToIndices returns the sorted indices of all set bits.
func (b *Bitmap) ToIndices() []uint64 {
	return b.ToIndicesInto(nil)
}

// ToIndicesInto appends the sorted indices of all set bits to dst[:0]
// and returns it, growing dst only when its capacity is short — the
// reusable-buffer variant the per-region hot loop uses to stay
// allocation-free once warm. The loop is ForEach unrolled: a closure
// over an append target would itself allocate.
func (b *Bitmap) ToIndicesInto(dst []uint64) []uint64 {
	card := b.Cardinality()
	if uint64(cap(dst)) < card {
		dst = make([]uint64, 0, card)
	}
	out := dst[:0]
	var pos uint64
	for _, w := range b.words {
		if w&fillFlag != 0 {
			span := uint64(w&maxFillLen) * groupBits
			if w&fillValue != 0 {
				end := pos + span
				if end > b.nbits {
					end = b.nbits
				}
				for i := pos; i < end; i++ {
					out = append(out, i)
				}
			}
			pos += span
		} else {
			for g := w; g != 0; {
				t := bits.TrailingZeros32(g)
				idx := pos + uint64(t)
				if idx < b.nbits {
					out = append(out, idx)
				}
				g &^= 1 << t
			}
			pos += groupBits
		}
	}
	return out
}

// Builder assembles a WAH bitmap by appending bits or runs in order.
// The zero value is ready to use.
type Builder struct {
	words []uint32
	cur   uint32 // partial literal group being filled
	curN  uint8  // bits in cur
	nbits uint64
}

// appendGroup appends one full 31-bit group, compressing runs.
func (bd *Builder) appendGroup(g uint32) {
	switch g {
	case 0:
		bd.appendFill(false, 1)
	case literalAll:
		bd.appendFill(true, 1)
	default:
		bd.words = append(bd.words, g)
	}
}

// appendFill appends n groups of the given fill value, merging with a
// trailing fill word of the same value.
func (bd *Builder) appendFill(v bool, n uint64) {
	for n > 0 {
		if last := len(bd.words) - 1; last >= 0 {
			w := bd.words[last]
			if w&fillFlag != 0 && ((w&fillValue != 0) == v) {
				room := uint64(maxFillLen - w&maxFillLen)
				take := n
				if take > room {
					take = room
				}
				if take > 0 {
					bd.words[last] = w + uint32(take)
					n -= take
					continue
				}
			}
		}
		take := n
		if take > uint64(maxFillLen) {
			take = uint64(maxFillLen)
		}
		w := fillFlag | uint32(take)
		if v {
			w |= fillValue
		}
		bd.words = append(bd.words, w)
		n -= take
	}
}

// AppendBit appends a single bit.
func (bd *Builder) AppendBit(v bool) {
	if v {
		bd.cur |= 1 << bd.curN
	}
	bd.curN++
	bd.nbits++
	if bd.curN == groupBits {
		bd.appendGroup(bd.cur)
		bd.cur, bd.curN = 0, 0
	}
}

// AppendRun appends n copies of bit v.
func (bd *Builder) AppendRun(v bool, n uint64) {
	// Fill the partial group first.
	for n > 0 && bd.curN != 0 {
		bd.AppendBit(v)
		n--
	}
	if groups := n / groupBits; groups > 0 {
		bd.appendFill(v, groups)
		bd.nbits += groups * groupBits
		n -= groups * groupBits
	}
	for ; n > 0; n-- {
		bd.AppendBit(v)
	}
}

// Build finalizes and returns the bitmap. The builder is reset.
func (bd *Builder) Build() *Bitmap {
	if bd.curN > 0 {
		// Pad the tail group with zeros; nbits records the logical length.
		bd.appendGroup(bd.cur)
	}
	bm := &Bitmap{words: bd.words, nbits: bd.nbits}
	*bd = Builder{}
	return bm
}

// Encoder builds a bitmap from strictly increasing set-bit positions a
// group at a time: it ORs each bit into the literal of the group it falls
// in, and only when a position crosses into a later group does it emit
// the held group and the all-zero groups skipped over. Groups go through
// the Builder's own appendGroup and appendFill, so the words are exactly
// the ones appending the same bits one at a time produces. The zero value
// is ready to use.
type Encoder struct {
	bd   Builder
	base uint64 // first bit position of the held group
	lit  uint32 // set bits of the held group
}

// Set marks bit i. Positions must be strictly increasing; Set does not
// check (FromIndices does), and a position at or below a previous one
// corrupts the bitmap.
func (e *Encoder) Set(i uint64) {
	if d := i - e.base; d < groupBits {
		e.lit |= 1 << d
		return
	}
	e.advance(i)
}

// advance emits the held group and the zero groups between it and the
// group holding bit i, then holds that group with bit i set.
func (e *Encoder) advance(i uint64) {
	e.bd.appendGroup(e.lit)
	g := i / groupBits
	e.bd.appendFill(false, g-e.base/groupBits-1)
	e.base = g * groupBits
	e.lit = 1 << (i - e.base)
}

// Finish returns the bitmap of nbits bits holding the positions set so
// far, all of which must be below nbits. The encoder is reset.
func (e *Encoder) Finish(nbits uint64) *Bitmap {
	if groups := (nbits + groupBits - 1) / groupBits; groups > 0 {
		// The held group is the last one with a set bit (or group 0);
		// zero groups pad out to the bitmap's length.
		e.bd.appendGroup(e.lit)
		e.bd.appendFill(false, groups-e.base/groupBits-1)
	}
	bm := &Bitmap{words: e.bd.words, nbits: nbits}
	*e = Encoder{}
	return bm
}

// FromIndices builds a bitmap of nbits bits with the given sorted set-bit
// indices. It panics if indices are unsorted, duplicated, or out of range.
func FromIndices(indices []uint64, nbits uint64) *Bitmap {
	var e Encoder
	var pos uint64
	for _, i := range indices {
		if i < pos {
			panic(fmt.Sprintf("wah: indices not strictly increasing at %d", i))
		}
		if i >= nbits {
			panic(fmt.Sprintf("wah: index %d out of range %d", i, nbits))
		}
		e.Set(i)
		pos = i + 1
	}
	return e.Finish(nbits)
}

// Empty returns an all-zero bitmap of nbits bits.
func Empty(nbits uint64) *Bitmap { return FromIndices(nil, nbits) }

// Full returns an all-one bitmap of nbits bits.
func Full(nbits uint64) *Bitmap {
	var bd Builder
	bd.AppendRun(true, nbits)
	return bd.Build()
}

// groupIter iterates a bitmap group by group, exposing fills without
// materializing them.
type groupIter struct {
	words []uint32
	wi    int
	// remaining groups in the current fill (0 when on a literal)
	fillLeft uint32
	fillVal  bool
}

func (it *groupIter) done() bool { return it.wi >= len(it.words) && it.fillLeft == 0 }

// peek returns the current state: if onFill, the fill value and the number
// of remaining groups in it; otherwise the literal group payload.
func (it *groupIter) peek() (onFill bool, val bool, groups uint32, lit uint32) {
	if it.fillLeft > 0 {
		return true, it.fillVal, it.fillLeft, 0
	}
	w := it.words[it.wi]
	if w&fillFlag != 0 {
		it.fillVal = w&fillValue != 0
		it.fillLeft = w & maxFillLen
		it.wi++
		return true, it.fillVal, it.fillLeft, 0
	}
	return false, false, 1, w
}

// advance consumes n groups (n must not exceed the current run for fills;
// for literals n must be 1).
func (it *groupIter) advance(n uint32) {
	if it.fillLeft > 0 {
		it.fillLeft -= n
		return
	}
	it.wi++
}

// OrInto returns the bitwise OR of two equal-length bitmaps, combining
// them group-wise and writing the result into dst when dst can be
// reused.
//
// dst may be nil (a fresh bitmap is allocated, pre-sized to the worst
// case so the builder never regrows). A non-nil dst must not share
// storage with a or b; its words capacity is recycled, which makes
// repeated combines allocation-free once the buffer is warm. Callers
// that fold a chain of bitmaps ping-pong two accumulators:
//
//	acc, scratch = wah.OrInto(scratch, acc, bm), acc
func OrInto(dst, a, b *Bitmap) *Bitmap {
	if a.nbits != b.nbits {
		panic(fmt.Sprintf("wah: length mismatch %d vs %d", a.nbits, b.nbits))
	}
	ia := groupIter{words: a.words}
	ib := groupIter{words: b.words}
	var bd Builder
	if dst != nil && dst != a && dst != b {
		bd.words = dst.words[:0]
	} else {
		// Worst case: no run in either operand survives the OR, so the
		// output holds at most one word per input word.
		bd.words = make([]uint32, 0, len(a.words)+len(b.words))
	}
	for !ia.done() && !ib.done() {
		fa, va, ga, la := ia.peek()
		fb, vb, gb, lb := ib.peek()
		if fa && fb {
			n := min(ga, gb)
			bd.appendFill(va || vb, uint64(n))
			ia.advance(n)
			ib.advance(n)
			continue
		}
		// Materialize exactly one group from each side.
		x := la
		if fa {
			if va {
				x = literalAll
			} else {
				x = 0
			}
		}
		y := lb
		if fb {
			if vb {
				y = literalAll
			} else {
				y = 0
			}
		}
		bd.appendGroup(x | y)
		ia.advance(1)
		ib.advance(1)
	}
	// The loop emits whole groups only, so there is no partial group to
	// pad; take the builder's words directly instead of Build (which
	// would allocate a fresh Bitmap even when dst is reusable).
	if dst == nil || dst == a || dst == b {
		dst = &Bitmap{}
	}
	dst.words, dst.nbits = bd.words, a.nbits
	return dst
}

// Or returns the bitwise OR of two equal-length bitmaps.
func Or(a, b *Bitmap) *Bitmap { return OrInto(nil, a, b) }

// OrAll returns the union of the given bitmaps (nil for an empty list).
// It folds with two ping-ponged accumulators, so the whole union costs
// two bitmap allocations regardless of list length.
func OrAll(bms []*Bitmap) *Bitmap {
	if len(bms) == 0 {
		return nil
	}
	if len(bms) == 1 {
		return bms[0]
	}
	acc := Or(bms[0], bms[1])
	scratch := &Bitmap{}
	for _, b := range bms[2:] {
		acc, scratch = OrInto(scratch, acc, b), acc
	}
	return acc
}

// Test reports whether bit i is set. It is O(words) and intended for
// tests and spot checks, not bulk scans.
func (b *Bitmap) Test(i uint64) bool {
	if i >= b.nbits {
		return false
	}
	var pos uint64
	for _, w := range b.words {
		if w&fillFlag != 0 {
			span := uint64(w&maxFillLen) * groupBits
			if i < pos+span {
				return w&fillValue != 0
			}
			pos += span
		} else {
			if i < pos+groupBits {
				return w&(1<<(i-pos)) != 0
			}
			pos += groupBits
		}
	}
	return false
}

// Encode serializes the bitmap.
func (b *Bitmap) Encode() []byte {
	return b.AppendEncode(make([]byte, 0, b.EncodedSize()))
}

// EncodedSize is the length of the bitmap's encoding.
func (b *Bitmap) EncodedSize() int { return 12 + 4*len(b.words) }

// AppendEncode appends the bitmap's encoding to dst: a caller that sized
// dst with EncodedSize writes several bitmaps into one buffer.
func (b *Bitmap) AppendEncode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, b.nbits)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.words)))
	for _, w := range b.words {
		dst = binary.LittleEndian.AppendUint32(dst, w)
	}
	return dst
}

// Decode deserializes a bitmap produced by Encode.
func Decode(data []byte) (*Bitmap, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("wah: encoded buffer too short")
	}
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	if len(data) != 12+4*n {
		return nil, fmt.Errorf("wah: encoded length %d does not match %d words", len(data), n)
	}
	b := &Bitmap{
		nbits: binary.LittleEndian.Uint64(data[0:8]),
		words: make([]uint32, n),
	}
	for i := 0; i < n; i++ {
		b.words[i] = binary.LittleEndian.Uint32(data[12+4*i:])
	}
	return b, nil
}
