package core

import (
	"bytes"
	"sync"
	"testing"

	"pdcquery/internal/client"
	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/selection"
	"pdcquery/internal/server"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
	"pdcquery/internal/workload"
)

// tapConn keeps the last statement reply each server sent, as the
// client's connection received it.
type tapConn struct {
	transport.Conn
	srv  int
	mu   *sync.Mutex
	last map[int][]byte
}

func (c *tapConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Type == server.MsgQueryResult {
		c.mu.Lock()
		c.last[c.srv] = m.Payload
		c.mu.Unlock()
	}
	return m, err
}

// tapped is a two-server deployment with every access path built whose
// client connections are tapped, and one bulk statement with its oracle
// answer.
type tapped struct {
	d      *Deployment
	energy *object.Object
	low    *qlang.Lowered
	truth  *selection.Selection
	mu     sync.Mutex
	last   map[int][]byte
}

// Over half the particles: several sorted regions, so under the sorted
// plan both servers match.
const tappedText = "select ids where Energy > 0.1"

func newTapped(t *testing.T) *tapped {
	t.Helper()
	const n = 12000
	tp := &tapped{last: map[int][]byte{}}
	d := NewDeployment(Options{Servers: 2, RegionBytes: 8 << 10, BuildIndex: true,
		WrapConn: func(srv int, c transport.Conn) transport.Conn {
			return &tapConn{Conn: c, srv: srv, mu: &tp.mu, last: tp.last}
		}})
	c := d.CreateContainer("vpic")
	v := workload.GenerateVPIC(n, 42)
	for _, name := range workload.VPICNames {
		o, err := d.ImportObject(c.ID, object.Property{Name: name, Type: dtype.Float32, Dims: []uint64{n}}, dtype.Bytes(v.Vars[name]))
		if err != nil {
			t.Fatal(err)
		}
		if name == "Energy" {
			tp.energy = o
		}
	}
	if err := d.BuildSortedReplica(tp.energy.ID); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	tp.d = d
	_, q := lowerText(t, d, tappedText)
	tp.low = &qlang.Lowered{Query: q, Projection: qlang.Projection{Kind: qlang.ProjIDs}}
	var err error
	if tp.truth, err = d.GroundTruth(q); err != nil {
		t.Fatal(err)
	}
	return tp
}

// run answers the statement under f, holds the answer to the oracle and
// returns it with the selection each server sent.
func (tp *tapped) run(t *testing.T, f plan.Force) (*client.Result, []*selection.Packed) {
	t.Helper()
	res, err := tp.d.Client().RunText(tappedText, f)
	if err != nil {
		t.Fatalf("%v: %v", f, err)
	}
	if !bytes.Equal(res.Sel.Encode(), tp.truth.Encode()) {
		t.Fatalf("%v: %d hits, oracle %d", f, res.Sel.NHits, tp.truth.NHits)
	}
	parts := make([]*selection.Packed, 2)
	for srv := range parts {
		qr, err := server.DecodeQueryResponse(tp.last[srv])
		if err != nil {
			t.Fatal(err)
		}
		parts[srv] = qr.Sel
	}
	return res, parts
}

// TestAskInterleavedSpansMerge covers the two shapes of partial results
// the client folds. Region-sliced parts (every plan but the sorted one)
// interleave without overlapping and are decoded in one pass into one
// coordinate list; the sorted-replica plan slices by value, so both
// servers report hits in the same regions, which the client must see in
// the chunk headers and merge instead. Either way the answer is the
// oracle's.
func TestAskInterleavedSpansMerge(t *testing.T) {
	tp := newTapped(t)
	for _, tc := range []struct {
		force   plan.Force
		overlap bool
	}{{plan.ForceScan, false}, {plan.ForceBitmap, false}, {plan.ForceSorted, true}} {
		res, parts := tp.run(t, tc.force)
		// Which regions each server reports hits in.
		regions := make([]map[int]bool, len(parts))
		for srv, p := range parts {
			coords, err := p.Coords(nil)
			if err != nil || len(coords) == 0 {
				t.Fatalf("%v: server %d sent %d coordinates, %v", tc.force, srv, len(coords), err)
			}
			regions[srv] = map[int]bool{}
			for _, c := range coords {
				regions[srv][tp.energy.RegionOfLinear(c)] = true
			}
		}
		shared := 0
		for r := range regions[0] {
			if regions[1][r] {
				shared++
			}
		}
		if (shared > 0) != tc.overlap {
			t.Fatalf("%v: the servers share %d regions, want overlap = %v", tc.force, shared, tc.overlap)
		}
		if tc.overlap {
			continue
		}
		// Disjoint regions: the coordinate list and the Selection that
		// holds it, nothing per member, per chunk or per hit. (The race
		// detector moves the cursors off the stack, which makes three.)
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := selection.MergePacked(parts); err != nil {
				t.Fatal(err)
			}
		}); allocs > 3 {
			t.Errorf("%v: folding %d hits from 2 servers allocated %.0f times, want 2", tc.force, res.Sel.NHits, allocs)
		}
	}
}

// TestModeledWirePricesFlatSelection: the vclock prices the paper's
// reply. A call's modeled network time is the request out plus the
// replies in at 8 bytes per coordinate, whatever they were packed to —
// so every committed modeled_ns is what it was before replies were
// packed (make bench-diff holds the figures themselves).
func TestModeledWirePricesFlatSelection(t *testing.T) {
	tp := newTapped(t)
	for _, f := range []plan.Force{plan.ForceScan, plan.ForceBitmap, plan.ForceSorted} {
		res, parts := tp.run(t, f)
		flatReplies := 0
		for srv, p := range parts {
			coords, err := p.Coords(nil)
			if err != nil {
				t.Fatal(err)
			}
			flat := selection.New(coords, p.Dims).Encode()
			if p.EncodedLen() >= len(flat)/4 {
				t.Errorf("%v: server %d packed %d coordinates in %d bytes, flat is %d", f, srv, len(coords), p.EncodedLen(), len(flat))
			}
			flatReplies += len(tp.last[srv]) - p.EncodedLen() + len(flat)
		}
		request := server.EncodeQueryRequest(0, f, 0, tp.low)
		if got, want := res.Info.Elapsed.Part(vclock.Network), transport.WireCost(len(request))+transport.WireCost(flatReplies); got != want {
			t.Errorf("%v: modeled network time %v, want %v for %d flat reply bytes", f, got, want, flatReplies)
		}
	}
}
