package query

import (
	"bytes"
	"testing"

	"pdcquery/internal/region"
)

// FuzzDecode hardens the wire decoder against corrupt broadcasts: it must
// return an error or a tree that re-encodes to the same bytes and decodes
// stably — never panic.
func FuzzDecode(f *testing.F) {
	seeds := []*Query{
		{Root: Leaf(1, OpGT, 2.0)},
		{Root: Between(7, 2.1, 2.2, false, false)},
		{Root: Or(And(Leaf(1, OpGE, -5), Leaf(2, OpLE, 5)), Leaf(3, OpEQ, 0))},
	}
	withRegion := &Query{Root: Leaf(4, OpLT, 9)}
	withRegion.SetRegion(region.New([]uint64{3, 4}, []uint64{5, 6}))
	seeds = append(seeds, withRegion)
	for _, q := range seeds {
		f.Add(q.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 255})
	f.Add([]byte{1, 1, 200})

	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Decode(data)
		if err != nil {
			return
		}
		// A successfully decoded query must round-trip exactly: the
		// encoding is canonical, so a statement's bytes key one plan.
		enc := q.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding drifted: %x vs %x", enc, data)
		}
		q2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if q.Root.String() != q2.Root.String() {
			t.Fatalf("round trip drifted: %q vs %q", q.Root.String(), q2.Root.String())
		}
		// Normalization must not panic on any decodable tree.
		_, _ = Normalize(q.Root)
	})
}
