package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

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
		wiretest.RoundTrip(t, []View{view, pending}, func(v View) (View, error) {
			b := v.Encode()
			got, n, err := DecodeView(b)
			if err == nil && n != len(b) {
				err = fmt.Errorf("decoded %d of %d bytes", n, len(b))
			}
			return got, err
		})
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

// TestDecodeViewRefusesOversizedCount: a 20-byte view header that claims
// 65 535 members is refused before any member is sized by the count.
func TestDecodeViewRefusesOversizedCount(t *testing.T) {
	b := make([]byte, 20)
	binary.LittleEndian.PutUint16(b[18:], 0xffff)
	if _, _, err := DecodeView(b); err == nil || !strings.Contains(err.Error(), "member count 65535 exceeds its 0-byte payload") {
		t.Fatalf("DecodeView of a 65535-member header: %v", err)
	}
	// Sizing the members by the count would take 1.5 MB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	DecodeView(b)
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10 {
		t.Errorf("refusing the header allocated %d bytes", grown)
	}
}

// FuzzDecodeView hardens the view decoder: no payload panics it, and any
// view it accepts re-encodes to exactly the bytes it consumed.
func FuzzDecodeView(f *testing.F) {
	f.Add(View{Epoch: 7, Seed: 91, R: 2, Members: []MemberInfo{{ID: 1, Addr: "127.0.0.1:7101"}, {ID: 4, Addr: "127.0.0.1:7104"}}}.Encode())
	f.Add(View{Epoch: 1}.Encode())
	f.Add(append(make([]byte, 18), 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeView(data)
		if err != nil {
			return
		}
		if re := v.Encode(); !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted % x, re-encoded % x", data[:n], re)
		}
	})
}
