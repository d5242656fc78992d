// Package bitindex implements the binned, WAH-compressed bitmap index the
// paper builds per region with FastBit (§III-D4).
//
// Values are split into bins whose width is a power of ten chosen from the
// region's value range and a decimal precision (the paper uses
// precision=2, "sufficient for the queries evaluated"); one representative
// range per bin maps each element to a single bin bitmap, compressed with
// WAH. The index additionally stores the exact min and max value found in
// each bin: a range query resolves a boundary bin without touching raw
// data whenever the bin's observed extrema already decide it, which is
// exactly why the paper's PDC-HI strategy obtains selections "without the
// need to read the region's data". Elements of boundary bins that the
// extrema cannot decide are returned as candidates for a raw-data check.
//
// The encoded layout places a fixed-size directory (bin edges, extrema,
// counts, blob offsets) before the bitmap blobs so a query can read the
// directory plus only the touched bins' bitmaps — the reason index reads
// stay tiny for selective queries.
package bitindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pdcquery/internal/dtype"
	"pdcquery/internal/wah"
)

// DefaultPrecision matches the paper's FastBit setting.
const DefaultPrecision = 2

// Bin is one value bin of the index.
type Bin struct {
	// Lo and Hi are the nominal decimal bin edges; elements satisfy
	// Lo <= v < Hi.
	Lo, Hi float64
	// Min and Max are the exact extrema of the values in the bin.
	Min, Max float64
	// Count is the number of elements in the bin.
	Count uint64
	// Bits marks which region elements fall in this bin.
	Bits *wah.Bitmap
}

// Index is a bitmap index over one region's values.
type Index struct {
	// N is the number of indexed elements.
	N uint64
	// Step is the decimal bin width (a power of ten scaled by the
	// precision), and Base the grid origin (a multiple of Step).
	Step, Base float64
	Bins       []Bin
}

// binStep picks the decimal bin width for a value range at the given
// precision: one decimal digit of the range magnitude per precision level.
func binStep(lo, hi float64, precision int) float64 {
	if precision <= 0 {
		precision = DefaultPrecision
	}
	r := hi - lo
	if !(r > 0) || math.IsInf(r, 0) {
		return 1
	}
	exp := int(math.Floor(math.Log10(r))) - precision + 1
	return math.Pow(10, float64(exp))
}

// Build constructs the index over a raw region buffer of the given element
// type. NaN elements are never indexed and never match queries.
//
// The region is read twice: once for its range, which fixes the bin grid,
// and once to stream every element into its bin's WAH encoder with the
// bin's count and extrema beside it. Elements arrive in position order,
// so each encoder sees strictly increasing positions and emits whole
// groups; no per-bin position list is built.
func Build(t dtype.Type, data []byte, precision int) *Index {
	// dtype.MinMax skips NaN: every comparison with it is false.
	lo, hi := dtype.MinMax(t, data)
	x := &Index{N: uint64(t.Count(len(data)))}
	if math.IsInf(lo, 1) {
		x.Step, x.Base = 1, 0
		return x
	}
	step := binStep(lo, hi, precision)
	base := math.Floor(lo/step) * step
	nbins := int(math.Floor((hi-base)/step)) + 1
	if nbins < 1 {
		nbins = 1
	}
	x.Step, x.Base = step, base

	accs := make([]binAcc, nbins)
	for i := range accs {
		accs[i].min = math.Inf(1)
		accs[i].max = math.Inf(-1)
	}
	switch t {
	case dtype.Float32:
		binElems(accs, dtype.View[float32](data), base, step)
	case dtype.Float64:
		binElems(accs, dtype.View[float64](data), base, step)
	case dtype.Int8:
		binElems(accs, dtype.View[int8](data), base, step)
	case dtype.Int16:
		binElems(accs, dtype.View[int16](data), base, step)
	case dtype.Int32:
		binElems(accs, dtype.View[int32](data), base, step)
	case dtype.Int64:
		binElems(accs, dtype.View[int64](data), base, step)
	case dtype.Uint8:
		binElems(accs, dtype.View[uint8](data), base, step)
	case dtype.Uint16:
		binElems(accs, dtype.View[uint16](data), base, step)
	case dtype.Uint32:
		binElems(accs, dtype.View[uint32](data), base, step)
	case dtype.Uint64:
		binElems(accs, dtype.View[uint64](data), base, step)
	}
	for j := range accs {
		a := &accs[j]
		if a.count == 0 {
			continue
		}
		x.Bins = append(x.Bins, Bin{
			Lo:    base + float64(j)*step,
			Hi:    base + float64(j+1)*step,
			Min:   a.min,
			Max:   a.max,
			Count: a.count,
			Bits:  a.enc.Finish(x.N),
		})
	}
	return x
}

// binAcc accumulates one bin during Build.
type binAcc struct {
	enc      wah.Encoder
	count    uint64
	min, max float64
}

// binElems streams a region's elements into the bins of the grid
// (base, step) that accs spans: the value's bin gets its position, its
// count and its extrema. Values below or above the grid clamp into the
// first or last bin.
func binElems[E dtype.Native](accs []binAcc, vals []E, base, step float64) {
	last := len(accs) - 1
	for i, e := range vals {
		v := float64(e)
		if v != v { // NaN
			continue
		}
		j := int(math.Floor((v - base) / step))
		if j < 0 {
			j = 0
		}
		if j > last {
			j = last
		}
		a := &accs[j]
		a.enc.Set(uint64(i))
		a.count++
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
}

// pred reports how a bin relates to the range predicate using the bin's
// exact extrema: all elements match, none match, or undecided.
func binMatch(b *Bin, lo, hi float64, loIncl, hiIncl bool) (all, none bool) {
	minOK := b.Min > lo || (loIncl && b.Min == lo)
	maxOK := b.Max < hi || (hiIncl && b.Max == hi)
	if minOK && maxOK {
		return true, false
	}
	outLow := b.Max < lo || (!loIncl && b.Max == lo)
	outHigh := b.Min > hi || (!hiIncl && b.Min == hi)
	if outLow || outHigh {
		return false, true
	}
	return false, false
}

// Evaluate resolves the range predicate lo (<|<=) v (<|<=) hi against the
// index. It returns the bitmap of elements that surely match and the list
// of bin indices (into x.Bins) whose elements need a raw-data candidate
// check. For queries whose boundaries do not coincide with data values —
// the common case for continuous data — the candidate list is empty and no
// raw data is needed.
func (x *Index) Evaluate(lo, hi float64, loIncl, hiIncl bool) (sure *wah.Bitmap, candidates []int) {
	var sureBins []*wah.Bitmap
	for i := range x.Bins {
		b := &x.Bins[i]
		all, none := binMatch(b, lo, hi, loIncl, hiIncl)
		switch {
		case all:
			sureBins = append(sureBins, b.Bits)
		case none:
		default:
			candidates = append(candidates, i)
		}
	}
	sure = wah.OrAll(sureBins)
	if sure == nil {
		sure = wah.Empty(x.N)
	}
	return sure, candidates
}

// CheckCandidates resolves candidate bins against raw region data,
// returning the bitmap of candidate elements that actually satisfy the
// predicate.
func (x *Index) CheckCandidates(t dtype.Type, data []byte, candidates []int, lo, hi float64, loIncl, hiIncl bool) *wah.Bitmap {
	var idx []uint64
	for _, ci := range candidates {
		x.Bins[ci].Bits.ForEach(func(i uint64) {
			v := dtype.At(t, data, int(i))
			okLo := v > lo || (loIncl && v == lo)
			okHi := v < hi || (hiIncl && v == hi)
			if okLo && okHi {
				idx = append(idx, i)
			}
		})
	}
	// Indices come out sorted per bin but bins may interleave; sort-merge.
	slices.Sort(idx)
	return wah.FromIndices(idx, x.N)
}

const (
	encMagic   = uint32(0x50444249) // "PDBI"
	headerSize = 32
	binMetaLen = 8 * 5 // lo, hi, min, max (f64) + count (u64)
)

// Directory is the decoded index metadata without the bitmap blobs: bin
// edges, extrema, counts, and blob placement. It is small (tens of bytes
// per bin) and is what a query reads first.
type Directory struct {
	N          uint64
	Step, Base float64
	Bins       []DirBin
}

// DirBin describes one bin and where its bitmap blob lives in the encoded
// index.
type DirBin struct {
	Lo, Hi   float64
	Min, Max float64
	Count    uint64
	BlobOff  int64
	BlobLen  int64
}

// DirectorySize returns the encoded directory size in bytes for an index
// with nbins bins; callers read this prefix before selecting bins.
func DirectorySize(nbins int) int64 {
	return headerSize + int64(nbins)*(binMetaLen+8)
}

// Encode serializes the index: header, directory, then bitmap blobs.
// It is single-pass in wire order — header fields first, then one visit
// per bin that fills the bin's directory entry and appends its blob.
func (x *Index) Encode() []byte {
	out := make([]byte, DirectorySize(len(x.Bins)))
	binary.LittleEndian.PutUint32(out[0:4], encMagic)
	binary.LittleEndian.PutUint32(out[4:8], uint32(len(x.Bins)))
	binary.LittleEndian.PutUint64(out[8:16], x.N)
	binary.LittleEndian.PutUint64(out[16:24], math.Float64bits(x.Step))
	binary.LittleEndian.PutUint64(out[24:32], math.Float64bits(x.Base))
	off := headerSize
	for i := range x.Bins {
		b := &x.Bins[i]
		blob := b.Bits.Encode()
		binary.LittleEndian.PutUint64(out[off:], math.Float64bits(b.Lo))
		binary.LittleEndian.PutUint64(out[off+8:], math.Float64bits(b.Hi))
		binary.LittleEndian.PutUint64(out[off+16:], math.Float64bits(b.Min))
		binary.LittleEndian.PutUint64(out[off+24:], math.Float64bits(b.Max))
		binary.LittleEndian.PutUint64(out[off+32:], b.Count)
		binary.LittleEndian.PutUint64(out[off+40:], uint64(len(blob)))
		off += binMetaLen + 8
		out = append(out, blob...)
	}
	return out
}

// Directory returns the index's directory as it would decode from the
// encoded form, with blob offsets matching Encode's layout. PDC keeps it
// in the region metadata (cached on every server after metadata
// distribution, §III-D2), so a query pays storage reads only for the
// touched bins' bitmap blobs.
func (x *Index) Directory() *Directory {
	d := &Directory{N: x.N, Step: x.Step, Base: x.Base, Bins: make([]DirBin, len(x.Bins))}
	blobOff := DirectorySize(len(x.Bins))
	for i := range x.Bins {
		b := &x.Bins[i]
		blobLen := int64(b.Bits.SizeBytes()) + 12 // wah.Encode header
		d.Bins[i] = DirBin{
			Lo: b.Lo, Hi: b.Hi, Min: b.Min, Max: b.Max,
			Count: b.Count, BlobOff: blobOff, BlobLen: blobLen,
		}
		blobOff += blobLen
	}
	return d
}

// DecodeDirectory parses the directory prefix of an encoded index. The
// input must contain at least the header; if it contains the full
// directory the bin list is populated with blob offsets relative to the
// start of the encoded index.
func DecodeDirectory(b []byte) (*Directory, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("bitindex: directory too short (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:4]) != encMagic {
		return nil, fmt.Errorf("bitindex: bad magic")
	}
	nbins := int(binary.LittleEndian.Uint32(b[4:8]))
	d := &Directory{
		N:    binary.LittleEndian.Uint64(b[8:16]),
		Step: math.Float64frombits(binary.LittleEndian.Uint64(b[16:24])),
		Base: math.Float64frombits(binary.LittleEndian.Uint64(b[24:32])),
	}
	need := DirectorySize(nbins)
	if int64(len(b)) < need {
		return nil, fmt.Errorf("bitindex: directory truncated: have %d, need %d", len(b), need)
	}
	off := int64(headerSize)
	blobOff := need
	d.Bins = make([]DirBin, nbins)
	for i := 0; i < nbins; i++ {
		db := &d.Bins[i]
		db.Lo = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		db.Hi = math.Float64frombits(binary.LittleEndian.Uint64(b[off+8:]))
		db.Min = math.Float64frombits(binary.LittleEndian.Uint64(b[off+16:]))
		db.Max = math.Float64frombits(binary.LittleEndian.Uint64(b[off+24:]))
		db.Count = binary.LittleEndian.Uint64(b[off+32:])
		db.BlobLen = int64(binary.LittleEndian.Uint64(b[off+40:]))
		db.BlobOff = blobOff
		blobOff += db.BlobLen
		off += binMetaLen + 8
	}
	return d, nil
}

// Select classifies bins against a range predicate using the directory
// only: sure bins (every element matches) and candidate bins (their
// extrema cannot decide, so their elements need checking against raw
// data). The bin numbers are appended to sure and candidates, which a
// caller on a hot path passes back emptied to reuse their storage.
func (d *Directory) Select(sure, candidates []int, lo, hi float64, loIncl, hiIncl bool) ([]int, []int) {
	for i := range d.Bins {
		db := &d.Bins[i]
		b := Bin{Lo: db.Lo, Hi: db.Hi, Min: db.Min, Max: db.Max}
		all, none := binMatch(&b, lo, hi, loIncl, hiIncl)
		switch {
		case all:
			sure = append(sure, i)
		case none:
		default:
			candidates = append(candidates, i)
		}
	}
	return sure, candidates
}

// Decode fully deserializes an encoded index (used by tests and tools;
// queries prefer DecodeDirectory + per-bin reads).
func Decode(b []byte) (*Index, error) {
	d, err := DecodeDirectory(b)
	if err != nil {
		return nil, err
	}
	x := &Index{N: d.N, Step: d.Step, Base: d.Base}
	for i := range d.Bins {
		db := &d.Bins[i]
		if db.BlobOff+db.BlobLen > int64(len(b)) {
			return nil, fmt.Errorf("bitindex: blob %d out of bounds", i)
		}
		bm, err := wah.Decode(b[db.BlobOff : db.BlobOff+db.BlobLen])
		if err != nil {
			return nil, fmt.Errorf("bitindex: bin %d: %w", i, err)
		}
		x.Bins = append(x.Bins, Bin{
			Lo: db.Lo, Hi: db.Hi, Min: db.Min, Max: db.Max,
			Count: db.Count, Bits: bm,
		})
	}
	return x, nil
}

// SizeBytes returns the encoded size of the index.
func (x *Index) SizeBytes() int64 {
	n := DirectorySize(len(x.Bins))
	for i := range x.Bins {
		n += int64(x.Bins[i].Bits.SizeBytes()) + 12
	}
	return n
}
