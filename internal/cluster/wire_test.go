package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/histogram"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/server"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/wiretest"
)

// TestWireRoundTrip is the round trip of every catalog codec, one
// subtest per encode/decode pair. The cases set every field to a value
// distinct from its same-typed siblings (wiretest enforces it), so a
// field the encoder and decoder disagree on — dropped on one side, or
// swapped with a neighbour — fails here, not as a catalog timeout.
func TestWireRoundTrip(t *testing.T) {
	view := View{Epoch: 7, Seed: 91, R: 2, Members: []MemberInfo{{ID: 1, Addr: "127.0.0.1:7101"}, {ID: 4, Addr: "127.0.0.1:7104"}}}
	pending := View{Epoch: 8, Seed: 92, R: 3, Members: []MemberInfo{{ID: 4, Addr: "127.0.0.1:7104"}}}
	t.Run("View", func(t *testing.T) {
		wiretest.RoundTrip(t, []View{view, pending}, func(v View) (View, error) { return DecodeView(v.Encode()) })
	})
	t.Run("HelloResult", func(t *testing.T) {
		wiretest.RoundTrip(t, []HelloResult{{ID: 4, View: view, Meta: []byte("meta snapshot")}},
			func(h HelloResult) (HelloResult, error) { return DecodeHelloResult(h.Encode()) })
	})
	t.Run("Prepare", func(t *testing.T) {
		wiretest.RoundTrip(t, []Prepare{{Source: view, Pending: pending}},
			func(p Prepare) (Prepare, error) { return DecodePrepare(p.Encode()) })
	})
}

// TestDecodersRefuseOversizedCounts feeds every decoder that sizes
// something by a count read off the wire a header whose count its
// payload cannot hold: each must refuse it by wire.Reader's count rule,
// before anything is sized by the count (one such count once ended a
// member with "runtime: out of memory"). The table lives here because
// cluster's tests are the ones that can import every decoding package.
func TestDecodersRefuseOversizedCounts(t *testing.T) {
	u16 := func(n uint16) []byte { return binary.LittleEndian.AppendUint16(nil, n) }
	u32 := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	u64 := func(n uint64) []byte { return binary.LittleEndian.AppendUint64(nil, n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	const huge = 1<<32 - 1
	cost := make([]byte, 32)
	// A span's fixed fields up to its attribute count: kind, empty name,
	// trace, cost and wall.
	spanHead := cat([]byte{0}, u32(0), make([]byte, 8+32+8))
	for _, tc := range []struct {
		name    string
		payload []byte
		count   uint64
		decode  func([]byte) error
	}{
		// The 20-byte header that claims 65 535 members of a view.
		{"cluster.DecodeView", cat(make([]byte, 18), u16(0xffff)), 0xffff,
			func(b []byte) error { _, err := DecodeView(b); return err }},
		// A statement section that claims 255 tag conditions.
		{"server.DecodeQueryRequest", []byte{server.FlagStatement, 0xff}, 0xff,
			func(b []byte) error { _, err := server.DecodeQueryRequest(b); return err }},
		{"server.DecodeFetchExtents", u32(huge), huge,
			func(b []byte) error { _, err := server.DecodeFetchExtents(b); return err }},
		{"server.DecodeExtentsResult", u32(huge), huge,
			func(b []byte) error { _, err := server.DecodeExtentsResult(b); return err }},
		{"server.DecodeDataRequest", cat(make([]byte, 16), u64(1<<32)), 1 << 32,
			func(b []byte) error { _, err := server.DecodeDataRequest(b); return err }},
		{"server.DecodeDataResponse", cat(cost, u64(1<<32)), 1 << 32,
			func(b []byte) error { _, err := server.DecodeDataResponse(b); return err }},
		{"server.DecodeTagResult", cat(cost, u64(1<<32)), 1 << 32,
			func(b []byte) error { _, _, err := server.DecodeTagResult(b); return err }},
		{"server.DecodeTagQuery", []byte{0xff}, 0xff,
			func(b []byte) error { _, err := server.DecodeTagQuery(b); return err }},
		{"server.DecodeStatsResponse", cat(cost, u32(0x50444354), u32(huge)), huge,
			func(b []byte) error { _, err := server.DecodeStatsResponse(b); return err }},
		{"telemetry.DecodeRegistry", cat(u32(0x50444354), u32(huge)), huge,
			func(b []byte) error { _, err := telemetry.DecodeRegistry(b); return err }},
		{"telemetry.DecodeSpan/attrs", cat(spanHead, u32(huge)), huge,
			func(b []byte) error { _, err := telemetry.DecodeSpan(b); return err }},
		{"telemetry.DecodeSpan/children", cat(spanHead, u32(0), u32(1<<16)), 1 << 16,
			func(b []byte) error { _, err := telemetry.DecodeSpan(b); return err }},
		{"telemetry.DecodeEvents", cat(u64(0), u32(huge)), huge,
			func(b []byte) error { _, _, err := telemetry.DecodeEvents(b); return err }},
		// The bin count comes before the fixed fields, the bins after them.
		{"histogram.Decode", cat(u32(0x50444348), u32(huge), make([]byte, 56)), huge,
			func(b []byte) error { _, err := histogram.Decode(b); return err }},
		{"bitindex.DecodeDirectory", cat(u32(0x50444249), u32(huge), make([]byte, 24)), huge,
			func(b []byte) error { _, err := bitindex.DecodeDirectory(b); return err }},
		{"query.Decode", []byte{1, 1, 0xff}, 0xff,
			func(b []byte) error { _, err := query.Decode(b); return err }},
		{"selection.Decode", cat([]byte{0}, u64(1<<32), []byte{0}), 1 << 32,
			func(b []byte) error { _, err := selection.Decode(b); return err }},
		{"selection.DecodePacked", cat([]byte{0}, u64(0), []byte{0xff}), 0xff,
			func(b []byte) error { _, err := selection.DecodePacked(b); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := fmt.Sprintf("count %d exceeds its 0-byte payload", tc.count)
			if err := tc.decode(tc.payload); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("error %v, want one saying %q", err, want)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tc.decode(tc.payload)
			runtime.ReadMemStats(&after)
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10 {
				t.Errorf("refusing the header allocated %d bytes", grown)
			}
		})
	}
}

// FuzzDecodeView hardens the view decoder: no payload panics it, and any
// view it accepts re-encodes to exactly its bytes.
func FuzzDecodeView(f *testing.F) {
	f.Add(View{Epoch: 7, Seed: 91, R: 2, Members: []MemberInfo{{ID: 1, Addr: "127.0.0.1:7101"}, {ID: 4, Addr: "127.0.0.1:7104"}}}.Encode())
	f.Add(View{Epoch: 1}.Encode())
	f.Add(append(make([]byte, 18), 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeView(data)
		if err != nil {
			return
		}
		if re := v.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("accepted % x, re-encoded % x", data, re)
		}
	})
}

// catalogCodecs are the catalog messages other than the view, each a
// decoder returning the re-encoding of what it accepted. FuzzDecodeCatalog
// picks one by its input's first byte.
var catalogCodecs = []func([]byte) ([]byte, error){
	func(b []byte) ([]byte, error) { a, err := DecodeHello(b); return EncodeHello(a), err },
	func(b []byte) ([]byte, error) { h, err := DecodeHelloResult(b); return h.Encode(), err },
	func(b []byte) ([]byte, error) { p, err := DecodePrepare(b); return p.Encode(), err },
	func(b []byte) ([]byte, error) { id, err := DecodeMemberID(b); return EncodeMemberID(id), err },
	func(b []byte) ([]byte, error) { id, e, err := DecodeReady(b); return EncodeReady(id, e), err },
}

// FuzzDecodeCatalog hardens the other five catalog decoders the way
// FuzzDecodeView hardens the view's: no payload panics them, and any
// payload one accepts re-encodes to exactly its bytes, trailing bytes
// included.
func FuzzDecodeCatalog(f *testing.F) {
	view := View{Epoch: 7, Seed: 91, R: 2, Members: []MemberInfo{{ID: 1, Addr: "127.0.0.1:7101"}}}
	for i, b := range [][]byte{
		EncodeHello("127.0.0.1:7101"),
		HelloResult{ID: 4, View: view, Meta: []byte("meta")}.Encode(),
		Prepare{Source: view, Pending: View{Epoch: 8, Seed: 91, R: 2}}.Encode(),
		EncodeMemberID(3),
		EncodeReady(3, 9),
	} {
		f.Add(append([]byte{byte(i)}, b...))
		f.Add(append([]byte{byte(i)}, append(b, 0)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		re, err := catalogCodecs[int(data[0])%len(catalogCodecs)](data[1:])
		if err != nil {
			return
		}
		if !bytes.Equal(re, data[1:]) {
			t.Fatalf("decoder %d accepted % x, re-encoded % x", int(data[0])%len(catalogCodecs), data[1:], re)
		}
	})
}
