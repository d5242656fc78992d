package cluster

import (
	"fmt"
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
