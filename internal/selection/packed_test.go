package selection

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"pdcquery/internal/workload"
)

// grid is a decomposition of total elements into regions of n, the last
// one ragged.
type grid struct{ n, total uint64 }

func (g grid) RegionSpan(c uint64) (base, span uint64) {
	base = c / g.n * g.n
	return base, min(g.n, g.total-base)
}

// every returns the coordinates from, from+step, ... below to.
func every(from, to, step uint64) []uint64 {
	var out []uint64
	for c := from; c < to; c += step {
		out = append(out, c)
	}
	return out
}

// packBits packs coords the way the index path does: one dense bitset
// per region of g, then AppendChunkBits.
func packBits(coords, dims []uint64, g grid) *Packed {
	p := &Packed{NHits: uint64(len(coords)), Dims: dims}
	for len(coords) > 0 {
		base, span := g.RegionSpan(coords[0])
		words := make([]uint64, bitsetWords(span)+1) // the engine's bitsets carry a slack word
		n := 0
		for n < len(coords) && coords[n]-base < span {
			i := coords[n] - base
			words[i>>6] |= 1 << (i & 63)
			n++
		}
		p.Chunks = AppendChunkBits(p.Chunks, base, span, words, uint64(n))
		coords = coords[n:]
	}
	return p
}

// regionsOf is the decomposition a chunk stream was packed over, as far
// as the stream tells: the regions it names (the others hold no hit, so
// a re-pack never asks for them).
type regionsOf [][2]uint64

func (rs regionsOf) RegionSpan(c uint64) (base, span uint64) {
	for _, r := range rs {
		if c-r[0] < r[1] {
			return r[0], r[1]
		}
	}
	return 0, 0
}

// walkChunks lists the containers and regions of a valid chunk stream.
func walkChunks(t testing.TB, p *Packed) (kinds []byte, regions regionsOf) {
	t.Helper()
	c := cursor{rest: p.Chunks, limit: elemLimit(p.Dims), want: p.NHits}
	for {
		if err := c.next(); err != nil {
			t.Fatalf("walk: %v", err)
		}
		if c.done {
			return kinds, regions
		}
		kinds = append(kinds, c.kind)
		regions = append(regions, [2]uint64{c.base, c.span})
		if err := c.emit(make([]uint64, c.nhits)); err != nil {
			t.Fatalf("walk: %v", err)
		}
		c.hits += c.nhits
		c.end = c.base + c.span
	}
}

func TestPackedTable(t *testing.T) {
	const n = 1024 // region elements: a bitset is 128 bytes
	for _, tc := range []struct {
		name   string
		coords []uint64
		dims   []uint64
		g      grid
		kinds  []byte
		bytes  int // of the chunk stream; 0 = not pinned
	}{
		{name: "empty", dims: []uint64{4 * n}, g: grid{n, 4 * n}},
		{name: "one hit", coords: []uint64{2*n + 5}, dims: []uint64{4 * n}, g: grid{n, 4 * n},
			kinds: []byte{kindDelta}, bytes: 2 + 2 + 1 + 1 + 1},
		{name: "full region", coords: every(n, 2*n, 1), dims: []uint64{4 * n}, g: grid{n, 4 * n},
			kinds: []byte{kindBitset}, bytes: 2 + 2 + 1 + 2 + n/8},
		{name: "ragged last region", coords: every(0, 2*n+100, 1), dims: []uint64{2*n + 100}, g: grid{n, 2*n + 100},
			kinds: []byte{kindBitset, kindBitset, kindBitset}, bytes: (1 + 2 + 1 + 2 + n/8) + (2 + 2 + 1 + 2 + n/8) + (2 + 1 + 1 + 1 + 16)},
		{name: "rank 2", coords: []uint64{0, 31, 32, 95}, dims: []uint64{3, 32}, g: grid{32, 96},
			kinds: []byte{kindDelta, kindDelta, kindDelta}},
		// The rule's two sides: a bitset once it is no longer than one
		// byte per hit.
		{name: "density just below the rule", coords: every(0, n, 1)[:n/8-1], dims: []uint64{n}, g: grid{n, n},
			kinds: []byte{kindDelta}, bytes: 1 + 2 + 1 + 1 + (n/8 - 1)},
		{name: "density at the rule", coords: every(0, n, 1)[:n/8], dims: []uint64{n}, g: grid{n, n},
			kinds: []byte{kindBitset}, bytes: 1 + 2 + 1 + 2 + n/8},
		{name: "mixed containers", coords: append(every(0, n, 2), every(n, 2*n, 100)...), dims: []uint64{2 * n}, g: grid{n, 2 * n},
			kinds: []byte{kindBitset, kindDelta}},
		// Gaps of 127 / 128 / 16383 / 16384 skipped elements are the ends
		// of the 1-, 2- and 3-byte varints.
		{name: "gap varint widths", coords: []uint64{127, 127 + 1 + 127, 255 + 1 + 128, 384 + 1 + 16383, 16768 + 1 + 16384}, dims: []uint64{1 << 16}, g: grid{1 << 16, 1 << 16},
			kinds: []byte{kindDelta}, bytes: 1 + 3 + 1 + 1 + (1 + 1 + 2 + 2 + 3)},
		{name: "max gap", coords: []uint64{1<<21 - 1}, dims: []uint64{1 << 21}, g: grid{1 << 21, 1 << 21},
			kinds: []byte{kindDelta}, bytes: 1 + 4 + 1 + 1 + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Pack(tc.coords, tc.dims, tc.g)
			if kinds, _ := walkChunks(t, p); !bytes.Equal(kinds, tc.kinds) {
				t.Errorf("containers = %v, want %v", kinds, tc.kinds)
			}
			if tc.bytes != 0 && len(p.Chunks) != tc.bytes {
				t.Errorf("chunk stream is %d bytes, want %d", len(p.Chunks), tc.bytes)
			}
			if fromBits := packBits(tc.coords, tc.dims, tc.g); !bytes.Equal(fromBits.Chunks, p.Chunks) {
				t.Errorf("packed from bitsets: %d bytes, from coordinates %d, not the same", len(fromBits.Chunks), len(p.Chunks))
			}
			wire := p.Encode(nil)
			if len(wire) != p.EncodedLen() {
				t.Errorf("Encode wrote %d bytes, EncodedLen says %d", len(wire), p.EncodedLen())
			}
			flat := New(tc.coords, tc.dims).Encode()
			if p.FlatLen() != len(flat) {
				t.Errorf("FlatLen = %d, the flat encoding is %d bytes", p.FlatLen(), len(flat))
			}
			dec, err := DecodePacked(wire)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MergePacked([]*Packed{dec})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Encode(), flat) {
				t.Errorf("unpacked %v, want %v", got.Coords, tc.coords)
			}
		})
	}
	// A count travels as the flat encoding's own bytes.
	c := PackedCount(7, []uint64{3, 5})
	if wire := c.Encode(nil); !bytes.Equal(wire, NewCount(7, []uint64{3, 5}).Encode()) || c.FlatLen() != len(wire) {
		t.Errorf("count-only wire form %x differs from the flat one", wire)
	}
	if coords, err := c.Coords(nil); coords != nil || err != nil {
		t.Errorf("count-only Coords = %v, %v", coords, err)
	}
}

// chunk hand-assembles one chunk, valid or not.
func chunk(base, span uint64, kind byte, nhits uint64, payload ...byte) []byte {
	b := binary.AppendUvarint(nil, base)
	b = binary.AppendUvarint(b, span)
	b = append(b, kind)
	b = binary.AppendUvarint(b, nhits)
	return append(b, payload...)
}

func TestPackedDecodeRejects(t *testing.T) {
	dims := []uint64{1000}
	bitset := func(bits ...uint64) []byte { // two words: a 128-element region
		out := make([]byte, 16)
		for _, i := range bits {
			out[i>>3] |= 1 << (i & 7)
		}
		return out
	}
	dense := every(0, 128, 8) // 16 hits: a 128-element region's bitset is 16 bytes
	for _, tc := range []struct {
		name   string
		nhits  uint64
		chunks []byte
	}{
		{"truncated header", 1, chunk(0, 100, kindDelta, 1, 5)[:2]},
		{"no hit count", 1, chunk(0, 100, kindDelta, 1)[:3]},
		{"truncated gaps", 2, chunk(0, 100, kindDelta, 2, 5)},
		{"truncated wide gap", 1, chunk(0, 1000, kindDelta, 1, 0x80)},
		{"truncated bitset", 16, chunk(0, 128, kindBitset, 16, bitset(dense...)[:15]...)},
		{"unknown kind", 1, chunk(0, 100, 2, 1, 5)},
		{"chunk before the previous one ends", 2, append(chunk(0, 100, kindDelta, 1, 5), chunk(99, 100, kindDelta, 1, 5)...)},
		{"chunk beyond the object", 1, chunk(950, 100, kindDelta, 1, 5)},
		{"base overflows", 1, chunk(^uint64(0), 100, kindDelta, 1, 5)},
		{"empty span", 0, chunk(0, 0, kindDelta, 0)},
		{"gap leaves the span", 1, chunk(0, 100, kindDelta, 1, 100)},
		{"later gap leaves the span", 2, chunk(0, 100, kindDelta, 2, 50, 49)},
		{"bits in the tail padding", 16, chunk(0, 100, kindBitset, 16, bitset(append(slices.Clone(dense[:15]), 100)...)...)},
		{"chunk without hits", 0, chunk(0, 100, kindDelta, 0)},
		{"more hits than elements", 101, chunk(0, 100, kindBitset, 101, bitset(dense...)...)},
		{"bitset where the rule says gaps", 15, chunk(0, 128, kindBitset, 15, bitset(dense[:15]...)...)},
		{"gaps where the rule says bitset", 16, chunk(0, 128, kindDelta, 16, bytes.Repeat([]byte{7}, 16)...)},
		{"bitset holds more than the chunk says", 16, chunk(0, 128, kindBitset, 16, bitset(append(slices.Clone(dense), 1)...)...)},
		{"chunks hold more than the header says", 1, chunk(0, 100, kindDelta, 2, 5, 5)},
		{"chunks hold fewer than the header says", 3, chunk(0, 100, kindDelta, 2, 5, 5)},
		{"hits the payload cannot hold", 1 << 40, chunk(0, 100, kindDelta, 2, 5, 5)},
		{"non-minimal gap", 1, chunk(0, 1000, kindDelta, 1, 0x85, 0x00)},
		{"non-minimal base", 1, append([]byte{0x80, 0x00}, chunk(0, 100, kindDelta, 1, 5)[1:]...)},
		{"overlong varint", 1, chunk(0, 1000, kindDelta, 1, bytes.Repeat([]byte{0xff}, 11)...)},
		{"trailing byte", 1, append(chunk(0, 100, kindDelta, 1, 5), 0)},
	} {
		p := &Packed{NHits: tc.nhits, Dims: dims, Chunks: tc.chunks}
		if coords, err := p.Coords(nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Coords = %v, %v, want ErrCorrupt", tc.name, coords, err)
		}
		if sel, err := MergePacked([]*Packed{p, Pack([]uint64{999}, dims, grid{1000, 1000})}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: MergePacked = %v, %v, want ErrCorrupt", tc.name, sel, err)
		}
	}

	good := Pack([]uint64{3, 9}, dims, grid{100, 1000}).Encode(nil)
	for n := 0; n < len(good); n++ {
		p, err := DecodePacked(good[:n])
		if err == nil {
			_, err = p.Coords(nil)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d of %d bytes: err = %v, want ErrCorrupt", n, len(good), err)
		}
	}
	for name, wire := range map[string][]byte{
		"unknown flags":          append([]byte{2}, good[1:]...),
		"count-only with chunks": append([]byte{1}, good[1:]...),
	} {
		if _, err := DecodePacked(wire); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestMergePacked covers the client's three cases: parts over disjoint
// regions that interleave (one decode, no merge), parts whose regions
// overlap (unpacked and merged with duplicate removal), and counts.
func TestMergePacked(t *testing.T) {
	g := grid{64, 640}
	dims := []uint64{640}
	// Two members, alternate regions: the first sparse, the second dense.
	var a, b []uint64
	for r := uint64(0); r < 10; r++ {
		if r%2 == 0 {
			a = append(a, every(64*r, 64*r+64, 9)...)
		} else {
			b = append(b, every(64*r, 64*r+64, 1)...)
		}
	}
	want := New(MergeCoords(nil, a, b), dims)
	parts := []*Packed{Pack(b, dims, g), Pack(a, dims, g)}
	got, err := MergePacked(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatalf("interleaved parts: %d hits %v, want %d", got.NHits, got.Coords[:8], want.NHits)
	}
	// The coordinate list and the Selection that holds it: nothing per
	// part, per chunk or per hit. (The race detector moves the cursors
	// off the stack, which makes three.)
	if n := testing.AllocsPerRun(100, func() { got, err = MergePacked(parts) }); n > 3 {
		t.Errorf("MergePacked over disjoint regions allocated %.0f times, want 2", n)
	}

	// Value-sliced parts (the sorted-replica path) share regions and may
	// share coordinates.
	x, y := []uint64{1, 5, 70, 300}, []uint64{2, 5, 71, 639}
	got, err = MergePacked([]*Packed{Pack(x, dims, g), Pack(y, dims, g)})
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 2, 5, 70, 71, 300, 639}; !slices.Equal(got.Coords, want) {
		t.Errorf("overlapping parts merged to %v, want %v", got.Coords, want)
	}

	got, err = MergePacked([]*Packed{PackedCount(3, dims), PackedCount(4, dims)})
	if err != nil || !got.CountOnly || got.NHits != 7 || got.Coords != nil {
		t.Errorf("counts merged to %+v, %v", got, err)
	}
	got, err = MergePacked([]*Packed{Pack(nil, dims, g), Pack(nil, dims, g)})
	if err != nil || got.CountOnly || got.NHits != 0 || !bytes.Equal(got.Encode(), New(nil, dims).Encode()) {
		t.Errorf("empty parts merged to %+v, %v", got, err)
	}
}

// FuzzPackedDecode is the canonical property: arbitrary bytes are either
// refused with ErrCorrupt or are exactly what packing the selection they
// decode to writes.
func FuzzPackedDecode(f *testing.F) {
	f.Add(Pack([]uint64{3, 9, 250}, []uint64{1000}, grid{100, 1000}).Encode(nil))
	f.Add(Pack(every(0, 200, 2), []uint64{4, 50}, grid{64, 200}).Encode(nil))
	f.Add(Pack(every(5, 70000, 16385), []uint64{70000}, grid{70000, 70000}).Encode(nil))
	f.Add(PackedCount(9, []uint64{5}).Encode(nil))
	f.Add(Pack(nil, nil, grid{1, 1}).Encode(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacked(data)
		var coords []uint64
		if err == nil {
			coords, err = p.Coords(nil)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if p.CountOnly {
			if again := PackedCount(p.NHits, p.Dims).Encode(nil); !bytes.Equal(again, data) {
				t.Fatalf("count re-encodes to %x, was %x", again, data)
			}
			return
		}
		if sel := New(coords, p.Dims); sel.Validate() != nil || sel.NHits != p.NHits {
			t.Fatalf("decoded an invalid selection: %d coordinates of %d hits, %v", len(coords), p.NHits, sel.Validate())
		}
		_, rs := walkChunks(t, p)
		if again := Pack(coords, p.Dims, rs).Encode(nil); !bytes.Equal(again, data) {
			t.Fatalf("not canonical: decodes to %d coordinates that pack to\n%x, was\n%x", len(coords), again, data)
		}
	})
}

// FuzzPackedRoundTrip draws a coordinate set and a decomposition from
// the seed bytes: packing from coordinates and from bitsets agree, and
// the bytes unpack to the set.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(1000), uint8(10))
	f.Add(uint64(2), uint16(1000), uint16(999), uint8(200))
	f.Add(uint64(3), uint16(7), uint16(65535), uint8(1))
	f.Add(uint64(4), uint16(4096), uint16(40000), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, regionElems, total uint16, density uint8) {
		if regionElems == 0 || total == 0 {
			return
		}
		g := grid{uint64(regionElems), uint64(total)}
		dims := []uint64{g.total}
		rng := rand.New(rand.NewSource(int64(seed)))
		var coords []uint64
		for c := uint64(0); c < g.total; c++ {
			// Density varies by region, so one selection mixes containers.
			if d := (uint64(density) + 37*(c/g.n)) % 256; uint64(rng.Intn(256)) < d {
				coords = append(coords, c)
			}
		}
		p := Pack(coords, dims, g)
		if fromBits := packBits(coords, dims, g); !bytes.Equal(fromBits.Chunks, p.Chunks) {
			t.Fatalf("packed from bitsets: %d bytes, from coordinates %d, not the same", len(fromBits.Chunks), len(p.Chunks))
		}
		dec, err := DecodePacked(p.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Coords(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, coords) {
			t.Fatalf("round trip: %d coordinates, want %d", len(got), len(coords))
		}
	})
}

var packedSink int

// BenchmarkPackedRoundTrip is the result path's three kernels on one
// 64 KiB region of VPIC Energy at the bulk-ids thresholds (Energy > 1.0,
// 0.3, 0.1): pack from the index path's bitset, pack from the scan
// path's hit list, and the client's unpack, each with ns/hit and the
// packed bytes per hit (the flat form is 8).
func BenchmarkPackedRoundTrip(b *testing.B) {
	const n = 1 << 14
	energy := workload.GenerateVPIC(n, 1).Vars["Energy"]
	for _, tc := range []struct {
		name string
		th   float32
	}{{"4pct", 1.0}, {"20pct", 0.3}, {"57pct", 0.1}} { // the thresholds' share of the whole dataset
		name, th := tc.name, tc.th
		var coords []uint64
		words := make([]uint64, n/64)
		for i, e := range energy {
			if e > th {
				coords = append(coords, uint64(i))
				words[i>>6] |= 1 << (i & 63)
			}
		}
		hits := uint64(len(coords))
		chunk := AppendChunkCoords(nil, 0, n, coords)
		p := &Packed{NHits: hits, Dims: []uint64{n}, Chunks: chunk}
		dst := make([]uint64, hits)
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(hits), "ns/hit")
			b.ReportMetric(float64(len(chunk))/float64(hits), "bytes/hit")
		}
		b.Run(name+"/pack-bits", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chunk = AppendChunkBits(chunk[:0], 0, n, words, hits)
			}
			report(b)
		})
		b.Run(name+"/pack-coords", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chunk = AppendChunkCoords(chunk[:0], 0, n, coords)
			}
			report(b)
		})
		b.Run(name+"/unpack", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := p.Coords(dst)
				if err != nil {
					b.Fatal(err)
				}
				packedSink += len(out)
			}
			report(b)
		})
	}
}
