package query

import (
	"bytes"
	"errors"
	"testing"

	"pdcquery/internal/object"
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
	f.Add(deepAnds(4 * MaxDepth))
	f.Add(chain(MaxDepth).Encode())
	f.Add(chain(MaxDepth + 1).Encode())

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

// chain is a left-deep AND of leaves whose tree has depth levels.
func chain(depth int) *Query {
	n := Leaf(1, OpGT, 0)
	for range depth - 1 {
		n = And(n, Leaf(1, OpGT, 0))
	}
	return &Query{Root: n}
}

// deepAnds is a query payload of n nested and-node bytes and nothing
// else: each opens a level before any leaf arrives.
func deepAnds(n int) []byte {
	return append([]byte{wireVersion, 0}, bytes.Repeat([]byte{byte(KindAnd)}, n)...)
}

// TestDecodeRefusesDeepTrees: a tree of MaxDepth levels decodes and
// validates; one level more is ErrTooDeep from both. A megabyte of
// nested and bytes — which used to grow the decoding goroutine's stack
// to 128 MiB, one frame per byte — is the same typed error, read no
// deeper than MaxDepth.
func TestDecodeRefusesDeepTrees(t *testing.T) {
	lookup := func(object.ID) (*object.Object, bool) { return &object.Object{Dims: []uint64{8}}, true }
	at := chain(MaxDepth)
	if _, err := Decode(at.Encode()); err != nil {
		t.Fatalf("a tree of MaxDepth levels: %v", err)
	}
	if err := at.Validate(lookup); err != nil {
		t.Fatalf("validating a tree of MaxDepth levels: %v", err)
	}
	over := chain(MaxDepth + 1)
	if _, err := Decode(over.Encode()); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("a tree of MaxDepth+1 levels decoded with err %v, want ErrTooDeep", err)
	}
	if err := over.Validate(lookup); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("a tree of MaxDepth+1 levels validated with err %v, want ErrTooDeep", err)
	}
	if _, err := Decode(deepAnds(1 << 20)); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("1 MiB of nested and bytes: err %v, want ErrTooDeep", err)
	}
}
