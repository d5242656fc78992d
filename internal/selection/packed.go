package selection

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"pdcquery/internal/wire"
)

// Packed is a selection in the form it travels in: the hit count, the
// object dimensions, and — unless it is count-only — the coordinates as
// an ascending stream of per-region chunks. A server's region task
// writes its chunk from the dense bitset either access path leaves its
// answer in (a producer holding a coordinate list packs from that), the
// merge barrier concatenates chunks in region order, and the reply
// carries the bytes as they are;
// coordinates become a []uint64 again only at the consumer (the client,
// or the few server paths that read values at them).
//
// A chunk is
//
//	uvarint base | uvarint span | kind u8 | uvarint nhits | payload
//
// for the region [base, base+span) of the row-major element space and
// its nhits > 0 matches. The payload is one of two containers:
//
//   - kindBitset: ⌈span/64⌉ little-endian uint64 words, bit i%64 of word
//     i/64 set when element base+i matches; bits at and beyond span are
//     zero.
//   - kindDelta: nhits uvarints, each the number of non-matching
//     elements skipped since the previous match (since base for the
//     first).
//
// Which one is a function of (nhits, span) alone — see useBitset — and
// every uvarint is minimally encoded, so one coordinate set over one
// region decomposition has exactly one byte string: whichever access
// path, forcing or worker count produced it.
type Packed struct {
	// NHits is the number of matching elements.
	NHits uint64
	// CountOnly marks a selection that deliberately omits locations;
	// Chunks is then empty.
	CountOnly bool
	// Dims are the object dimensions the coordinates index.
	Dims []uint64
	// Chunks is the encoded chunk stream. One decoded from the wire is
	// held to the format only when it is unpacked (Coords, MergePacked).
	Chunks []byte
}

const (
	kindBitset byte = 0
	kindDelta  byte = 1
)

// ErrCorrupt marks a packed selection that the encoder could not have
// written. Replies come off the wire, so a damaged one is an input
// error, never a panic.
var ErrCorrupt = errors.New("selection: corrupt packed selection")

// bitsetWords is ⌈span/64⌉ without overflowing for a span near 2^64
// (a decoded header can say anything).
func bitsetWords(span uint64) uint64 { return span>>6 + (span&63+63)>>6 }

func bitsetBytes(span uint64) uint64 { return 8 * bitsetWords(span) }

// useBitset is the container rule. A delta payload spends at least one
// byte per hit, so a bitset that is no longer than nhits bytes is never
// the larger of the two; below that density (one hit in eight) the gaps
// fit one byte each and the delta form wins. The rule reads nothing but
// the two counts, so every producer of the same set agrees on it.
func useBitset(nhits, span uint64) bool { return nhits >= bitsetBytes(span) }

// PackedCount returns a count-only packed selection.
func PackedCount(n uint64, dims []uint64) *Packed {
	return &Packed{NHits: n, CountOnly: true, Dims: dims}
}

// appendUvarint is binary.AppendUvarint with the one-byte case — nearly
// every gap of a delta chunk — kept out of the call.
func appendUvarint(dst []byte, v uint64) []byte {
	if v < 0x80 {
		return append(dst, byte(v))
	}
	return binary.AppendUvarint(dst, v)
}

func appendChunkHeader(dst []byte, base, span uint64, kind byte, nhits uint64) []byte {
	dst = appendUvarint(dst, base)
	dst = appendUvarint(dst, span)
	dst = appendUvarint(dst, uint64(kind)) // one byte: kinds are below 0x80
	return appendUvarint(dst, nhits)
}

// AppendChunkBits appends the chunk of region [base, base+span) whose
// matches are the nhits set bits of the dense bitset words (bit i%64 of
// word i/64 is element base+i; bits at and beyond span are zero). No
// hits, no chunk.
func AppendChunkBits(dst []byte, base, span uint64, words []uint64, nhits uint64) []byte {
	if nhits == 0 {
		return dst
	}
	words = words[:bitsetWords(span)]
	if useBitset(nhits, span) {
		dst = appendChunkHeader(dst, base, span, kindBitset, nhits)
		for _, w := range words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return dst
	}
	dst = appendChunkHeader(dst, base, span, kindDelta, nhits)
	var next uint64 // the lowest local index the next match can have
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			at := uint64(i)<<6 + uint64(bits.TrailingZeros64(w))
			dst = appendUvarint(dst, at-next)
			next = at + 1
		}
	}
	return dst
}

// AppendChunkCoords appends the chunk of region [base, base+span) whose
// matches are coords: sorted, distinct, absolute, all inside the region.
// It writes the bytes AppendChunkBits writes for the same set. It is for
// producers that hold coordinates rather than a bitset: Pack.
func AppendChunkCoords(dst []byte, base, span uint64, coords []uint64) []byte {
	nhits := uint64(len(coords))
	if nhits == 0 {
		return dst
	}
	if useBitset(nhits, span) {
		dst = appendChunkHeader(dst, base, span, kindBitset, nhits)
		at, n := len(dst), int(bitsetBytes(span))
		dst = slices.Grow(dst, n)[:at+n]
		set := dst[at:]
		clear(set)
		for _, c := range coords {
			i := c - base
			set[i>>3] |= 1 << (i & 7)
		}
		return dst
	}
	dst = appendChunkHeader(dst, base, span, kindDelta, nhits)
	next := base
	for _, c := range coords {
		dst = appendUvarint(dst, c-next)
		next = c + 1
	}
	return dst
}

// Regions is the region decomposition a coordinate list is packed over
// (an object's, in the engine).
type Regions interface {
	// RegionSpan returns the region [base, base+span) of the row-major
	// element space that holds element c.
	RegionSpan(c uint64) (base, span uint64)
}

// Pack packs sorted, distinct coordinates, one chunk per region of rs
// that holds any. It is for a producer that ends up with a coordinate
// list anyway (several conjuncts ORed together); region tasks append
// their chunk directly.
func Pack(coords, dims []uint64, rs Regions) *Packed {
	p := &Packed{NHits: uint64(len(coords)), Dims: dims}
	if len(coords) > 0 {
		p.Chunks = make([]byte, 0, len(coords)+len(coords)/8+32)
	}
	for len(coords) > 0 {
		base, span := rs.RegionSpan(coords[0])
		// The first coordinate at or beyond the region's end.
		lo, hi := 1, len(coords)
		for lo < hi {
			if mid := (lo + hi) / 2; coords[mid]-base < span {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		p.Chunks = AppendChunkCoords(p.Chunks, base, span, coords[:lo])
		coords = coords[lo:]
	}
	return p
}

// EncodedLen is the length of p's wire form.
func (p *Packed) EncodedLen() int { return 10 + 8*len(p.Dims) + len(p.Chunks) }

// FlatLen is the length of the flat encoding (Selection.Encode, 8 bytes
// per coordinate) of the selection p stands for — what the paper's
// result transfer moves and the modeled wire keeps charging.
func (p *Packed) FlatLen() int {
	n := 10 + 8*len(p.Dims)
	if !p.CountOnly {
		n += 8 * int(p.NHits)
	}
	return n
}

// Encode appends p's wire form to dst: the flat encoding's header
// (flags, hit count, rank, dims) followed by the chunk stream.
func (p *Packed) Encode(dst []byte) []byte {
	flags := byte(0)
	if p.CountOnly {
		flags = 1
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, p.NHits)
	dst = append(dst, byte(len(p.Dims)))
	for _, d := range p.Dims {
		dst = binary.LittleEndian.AppendUint64(dst, d)
	}
	return append(dst, p.Chunks...)
}

// DecodePacked parses the wire form Encode writes. Chunks aliases b and
// is validated when it is unpacked, not here: every way to read the
// coordinates goes through that check.
func DecodePacked(b []byte) (*Packed, error) {
	r := wire.NewReader(b)
	p := &Packed{}
	p.CountOnly, p.NHits, p.Dims = decodeHeader(&r)
	if p.Chunks = r.Rest(); p.CountOnly && len(p.Chunks) != 0 {
		r.Fail(fmt.Errorf("count-only selection with %d chunk bytes", len(p.Chunks)))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return p, nil
}

// uvarint reads one minimally encoded unsigned varint and returns its
// length, 0 when b is truncated, overflows 64 bits, or spends a byte it
// did not need (binary.Uvarint accepts those, and a canonical form
// cannot).
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i, c := range b {
		if i == binary.MaxVarintLen64 {
			return 0, 0
		}
		if c < 0x80 {
			if (i == binary.MaxVarintLen64-1 && c > 1) || (i > 0 && c == 0) {
				return 0, 0
			}
			return v | uint64(c)<<(7*i), i + 1
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
	return 0, 0
}

// elemLimit is ∏dims, saturating: no chunk may reach beyond it.
func elemLimit(dims []uint64) uint64 {
	n := uint64(1)
	for _, d := range dims {
		hi, lo := bits.Mul64(n, d)
		if hi != 0 {
			return ^uint64(0)
		}
		n = lo
	}
	return n
}

// cursor walks one packed selection's chunk stream.
type cursor struct {
	rest  []byte // from the next chunk's payload on
	limit uint64 // ∏Dims
	want  uint64 // the part's NHits
	hits  uint64 // hits in the chunks read so far
	end   uint64 // where the previous chunk's region ended
	done  bool
	// The next chunk's header.
	base, span, nhits uint64
	kind              byte
}

// next reads and checks the header of the part's next chunk, or marks
// the part done once its bytes are used up and its hits add up.
func (c *cursor) next() error {
	if len(c.rest) == 0 {
		c.done = true
		if c.hits != c.want {
			return fmt.Errorf("%w: chunks hold %d hits, header says %d", ErrCorrupt, c.hits, c.want)
		}
		return nil
	}
	b := c.rest
	var n int
	if c.base, n = uvarint(b); n == 0 {
		return fmt.Errorf("%w: bad chunk base", ErrCorrupt)
	}
	b = b[n:]
	if c.span, n = uvarint(b); n == 0 {
		return fmt.Errorf("%w: bad chunk span", ErrCorrupt)
	}
	b = b[n:]
	if len(b) == 0 {
		return fmt.Errorf("%w: truncated chunk header", ErrCorrupt)
	}
	c.kind = b[0]
	b = b[1:]
	if c.nhits, n = uvarint(b); n == 0 {
		return fmt.Errorf("%w: bad chunk hit count", ErrCorrupt)
	}
	c.rest = b[n:]
	switch {
	case c.base < c.end:
		return fmt.Errorf("%w: chunk at %d starts before the previous one ends at %d", ErrCorrupt, c.base, c.end)
	case c.span > c.limit || c.base > c.limit-c.span:
		return fmt.Errorf("%w: chunk [%d,+%d) reaches beyond %d elements", ErrCorrupt, c.base, c.span, c.limit)
	case c.nhits == 0 || c.nhits > c.span:
		return fmt.Errorf("%w: chunk of %d hits over %d elements", ErrCorrupt, c.nhits, c.span)
	case c.kind > kindDelta:
		return fmt.Errorf("%w: unknown chunk kind %d", ErrCorrupt, c.kind)
	case (c.kind == kindBitset) != useBitset(c.nhits, c.span):
		return fmt.Errorf("%w: chunk kind %d for %d hits over %d elements", ErrCorrupt, c.kind, c.nhits, c.span)
	case c.nhits > c.want-c.hits:
		return fmt.Errorf("%w: chunks hold more than the header's %d hits", ErrCorrupt, c.want)
	}
	return nil
}

// emit decodes the current chunk's payload into out, which has room for
// exactly its nhits coordinates.
func (c *cursor) emit(out []uint64) error {
	if c.kind == kindBitset {
		n := bitsetBytes(c.span)
		if uint64(len(c.rest)) < n {
			return fmt.Errorf("%w: truncated bitset", ErrCorrupt)
		}
		set := c.rest[:n]
		c.rest = c.rest[n:]
		var card int
		for i := 0; i < len(set); i += 8 {
			card += bits.OnesCount64(binary.LittleEndian.Uint64(set[i:]))
		}
		if uint64(card) != c.nhits {
			return fmt.Errorf("%w: bitset holds %d hits, chunk header says %d", ErrCorrupt, card, c.nhits)
		}
		if tail := c.span & 63; tail != 0 && binary.LittleEndian.Uint64(set[n-8:])>>tail != 0 {
			return fmt.Errorf("%w: bits set beyond the chunk's %d elements", ErrCorrupt, c.span)
		}
		k := 0
		for i := 0; i < len(set); i += 8 {
			at := c.base + uint64(i)<<3
			for w := binary.LittleEndian.Uint64(set[i:]); w != 0; w &= w - 1 {
				out[k] = at + uint64(bits.TrailingZeros64(w))
				k++
			}
		}
		return nil
	}
	b := c.rest
	var next uint64 // the lowest local index the next match can have
	for k := range out {
		if len(b) == 0 {
			return fmt.Errorf("%w: truncated gaps", ErrCorrupt)
		}
		g, n := uint64(b[0]), 1
		if g >= 0x80 {
			if g, n = uvarint(b); n == 0 {
				return fmt.Errorf("%w: bad gap", ErrCorrupt)
			}
		}
		b = b[n:]
		if g >= c.span-next {
			return fmt.Errorf("%w: gap leaves the chunk's %d elements", ErrCorrupt, c.span)
		}
		next += g
		out[k] = c.base + next
		next++
	}
	c.rest = b
	return nil
}

// unpackInto writes the parts' coordinates in ascending order into
// dst[:0] (grown only when its capacity is short of Σ NHits), provided
// the parts' chunk regions are disjoint — true of partial results over
// disjoint region sets, where the parts merely interleave. disjoint is
// false when two parts' regions overlap; the coordinates then have to
// be merged (MergePacked). Every check of the format is made here, on
// the bytes as they are read.
func unpackInto(dst []uint64, parts []*Packed) (out []uint64, disjoint bool, err error) {
	var stack [8]cursor
	curs := stack[:0]
	var total uint64
	for _, p := range parts {
		// Either container spends a byte on at most eight hits: the
		// payload bounds what is allocated for it.
		if p.NHits > 8*uint64(len(p.Chunks)) {
			return nil, false, fmt.Errorf("%w: %d hits in %d chunk bytes", ErrCorrupt, p.NHits, len(p.Chunks))
		}
		total += p.NHits
		curs = append(curs, cursor{rest: p.Chunks, limit: elemLimit(p.Dims), want: p.NHits})
		if err := curs[len(curs)-1].next(); err != nil {
			return nil, false, err
		}
	}
	out = slices.Grow(dst[:0], int(total))[:total]
	var k, end uint64
	for {
		var c *cursor
		for i := range curs {
			if !curs[i].done && (c == nil || curs[i].base < c.base) {
				c = &curs[i]
			}
		}
		if c == nil {
			return out, true, nil
		}
		if c.base < end {
			return nil, false, nil
		}
		if err := c.emit(out[k : k+c.nhits]); err != nil {
			return nil, false, err
		}
		k += c.nhits
		c.hits += c.nhits
		end = c.base + c.span
		c.end = end
		if err := c.next(); err != nil {
			return nil, false, err
		}
	}
}

// Coords unpacks p's coordinates into dst[:0] and returns them, growing
// dst only when its capacity is below NHits; a count-only selection has
// none. A stream the encoder could not have written is ErrCorrupt.
func (p *Packed) Coords(dst []uint64) ([]uint64, error) {
	if p.CountOnly {
		return nil, nil
	}
	out, _, err := unpackInto(dst, []*Packed{p})
	return out, err
}

// MergePacked is the client's aggregation of the servers' partial
// results: MergeAll over the selections the parts stand for. Partial
// results over disjoint region sets interleave without overlapping, so
// their chunks are decoded in base order straight into one coordinate
// list sized from Σ NHits. Only parts whose chunk regions do overlap
// (sorted-replica results are sliced by value, not by region) are
// unpacked one by one and merged with duplicate removal.
func MergePacked(parts []*Packed) (*Selection, error) {
	if len(parts) == 0 {
		return New(nil, nil), nil
	}
	var n uint64
	countOnly := false
	for _, p := range parts {
		n += p.NHits
		countOnly = countOnly || p.CountOnly
	}
	if countOnly {
		return NewCount(n, parts[0].Dims), nil
	}
	coords, disjoint, err := unpackInto(nil, parts)
	if err != nil {
		return nil, err
	}
	if disjoint {
		if len(coords) == 0 {
			coords = nil
		}
		return New(coords, parts[0].Dims), nil
	}
	var merged *Selection
	for _, p := range parts {
		c, err := p.Coords(nil)
		if err != nil {
			return nil, err
		}
		merged = Merge(merged, New(c, p.Dims))
	}
	return merged, nil
}
