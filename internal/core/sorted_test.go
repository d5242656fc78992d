package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/selection"
	"pdcquery/internal/server"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
	"pdcquery/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files of this package")

// sortedFixture is a two-server deployment whose Energy has a sorted
// replica with a co-sorted x companion, and one raw connection per
// server. Statements go to the servers as they arrive from a client, but
// with any projection, keep flag and spatial constraint: text statements
// cannot spell a constraint, and prepared ones are always kept.
type sortedFixture struct {
	d     *Deployment
	ids   map[string]object.ID
	conns []transport.Conn
	req   uint64
	// untraced sends statements without FlagWantTrace.
	untraced bool
}

const (
	sortedParticles   = 20000
	sortedRegionBytes = 8 << 10
)

func newSortedFixture(tb testing.TB, workers int) *sortedFixture {
	tb.Helper()
	d := NewDeployment(Options{Servers: 2, RegionBytes: sortedRegionBytes, Workers: workers})
	c := d.CreateContainer("vpic")
	v := workload.GenerateVPIC(sortedParticles, 42)
	f := &sortedFixture{d: d, ids: map[string]object.ID{}}
	for _, name := range workload.VPICNames {
		o, err := d.ImportObject(c.ID, object.Property{
			Name: name, Type: dtype.Float32, Dims: []uint64{sortedParticles},
		}, dtype.Bytes(v.Vars[name]))
		if err != nil {
			tb.Fatal(err)
		}
		f.ids[name] = o.ID
	}
	if err := d.BuildSortedReplica(f.ids["Energy"]); err != nil {
		tb.Fatal(err)
	}
	if err := d.AddCompanions(f.ids["Energy"], f.ids["x"]); err != nil {
		tb.Fatal(err)
	}
	if err := d.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	for i := range d.Servers() {
		conn, err := d.dialServer(i)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { conn.Close() })
		f.conns = append(f.conns, conn)
	}
	return f
}

// sortedAnswer is what every server answered one statement with: its
// query reply and, for a kept statement, its get-data reply for each of
// the statement's objects.
type sortedAnswer struct {
	replies []*server.QueryResponse
	data    [][]*server.DataResponse // [server][object], objects in q.Root.Objects() order
}

// exchange sends one request to server i and returns the reply payload,
// or the server's error as an error.
func (f *sortedFixture) exchange(i int, typ byte, payload []byte) ([]byte, error) {
	f.req++
	if err := f.conns[i].Send(transport.Message{Type: typ, ReqID: f.req, Trace: f.req, Payload: payload}); err != nil {
		return nil, err
	}
	m, err := f.conns[i].Recv()
	if err != nil {
		return nil, err
	}
	if m.Type == server.MsgError {
		return nil, fmt.Errorf("server %d: %s", i, m.Payload)
	}
	return m.Payload, nil
}

// ask runs q under force on every server, traced unless the fixture is
// untraced, as a kind projection, kept (and then read back through
// get-data) when keep is set.
func (f *sortedFixture) ask(q *query.Query, kind qlang.ProjKind, keep bool, force plan.Force) (*sortedAnswer, error) {
	flags := server.FlagWantTrace
	if f.untraced {
		flags = 0
	}
	if keep {
		flags |= server.FlagKeep
	}
	req := server.EncodeQueryRequest(flags, force, 0, &qlang.Lowered{Query: q, Projection: qlang.Projection{Kind: kind}})
	a := &sortedAnswer{}
	for i := range f.conns {
		payload, err := f.exchange(i, server.MsgQuery, req)
		if err != nil {
			return nil, err
		}
		qr, err := server.DecodeQueryResponse(payload)
		if err != nil {
			return nil, err
		}
		a.replies = append(a.replies, qr)
		if !keep {
			continue
		}
		reqID := f.req
		var data []*server.DataResponse
		for _, id := range q.Root.Objects() {
			payload, err := f.exchange(i, server.MsgGetData, (&server.DataRequest{Obj: id, QueryReq: reqID}).Encode())
			if err != nil {
				return nil, err
			}
			dr, err := server.DecodeDataResponse(payload)
			if err != nil {
				return nil, err
			}
			data = append(data, dr)
		}
		a.data = append(a.data, data)
	}
	return a, nil
}

// sortedStatement is one statement of the pinned set.
type sortedStatement struct {
	name string
	q    func(ids map[string]object.ID) *query.Query
}

// sortedStatements are the shapes the sorted-replica path takes: a
// window on the sort key alone, the key with a companion and a rest
// condition, a spatially constrained window, an OR of two windows, and
// a window that overlaps a sorted region but matches nothing.
var sortedStatements = []sortedStatement{
	{"window", func(ids map[string]object.ID) *query.Query {
		return &query.Query{Root: query.Between(ids["Energy"], 0.03, 0.2, false, true)}
	}},
	{"companion+rest", func(ids map[string]object.ID) *query.Query {
		return &query.Query{Root: query.And(
			query.Leaf(ids["Energy"], query.OpGT, 0.4),
			query.And(query.Between(ids["x"], 50, 1800, false, false),
				query.Leaf(ids["Ux"], query.OpGT, 0)))}
	}},
	{"constrained", func(ids map[string]object.ID) *query.Query {
		return &query.Query{
			Root:       query.Between(ids["Energy"], 0.1, 0.25, true, true),
			Constraint: &region.Region{Offset: []uint64{5000}, Count: []uint64{7000}},
		}
	}},
	{"or", func(ids map[string]object.ID) *query.Query {
		return &query.Query{Root: query.Or(
			query.Leaf(ids["Energy"], query.OpLT, 0.02),
			query.Between(ids["Energy"], 0.2, 0.35, true, false))}
	}},
	{"no-hits", func(ids map[string]object.ID) *query.Query {
		return &query.Query{Root: query.Between(ids["Energy"], 0.11, 0.11000001, false, false)}
	}},
}

// sortedForms are the three ways a statement is answered: the count, the
// matching ids, and the ids kept for a get-data read of the values.
var sortedForms = []struct {
	name string
	kind qlang.ProjKind
	keep bool
}{{"count", qlang.ProjCount, false}, {"ids", qlang.ProjIDs, false}, {"kept", qlang.ProjIDs, true}}

// digest is a fixed-width fingerprint of bytes too long for a golden.
func digest(b []byte) string {
	return fmt.Sprintf("%d bytes sha256:%x", len(b), sha256.Sum256(b))
}

// renderSortedRun answers every pinned statement in every form under
// forced sorted and renders, per statement: each server's packed
// selection, Stats, cost and trace, the slowest server's cost, each
// kept statement's get-data values; then each server's flight-recorder
// stream.
func renderSortedRun(t *testing.T, workers int) string {
	f := newSortedFixture(t, workers)
	var b strings.Builder
	for _, st := range sortedStatements {
		q := st.q(f.ids)
		for _, form := range sortedForms {
			a, err := f.ask(q, form.kind, form.keep, plan.ForceSorted)
			if err != nil {
				t.Fatalf("%s/%s: %v", st.name, form.name, err)
			}
			fmt.Fprintf(&b, "== %s/%s\n", st.name, form.name)
			var serverMax vclock.Cost
			for i, qr := range a.replies {
				serverMax = serverMax.Max(qr.Cost)
				fmt.Fprintf(&b, "server %d: hits %d sel %s\n", i, qr.Sel.NHits, digest(qr.Sel.Encode(nil)))
				fmt.Fprintf(&b, "  stats %+v\n", qr.Stats)
				fmt.Fprintf(&b, "  cost %v\n", qr.Cost)
				b.WriteString(qr.Trace.Render(false))
			}
			for i, data := range a.data {
				for k, dr := range data {
					fmt.Fprintf(&b, "server %d get-data %d: %d values %s cost %v\n", i, k, len(dr.Coords), digest(dr.Data), dr.Cost)
				}
			}
			fmt.Fprintf(&b, "server max %v\n", serverMax)
		}
	}
	for i, srv := range f.d.Servers() {
		events, total := srv.Recorder().SnapshotTotal()
		enc := telemetry.EncodeEvents(events, total)
		fmt.Fprintf(&b, "== recorder %d: %d events %s\n", i, total, digest(enc))
	}
	return b.String()
}

// TestSortedPathPinned pins everything the sorted-replica path answers
// and charges, so that it can be restructured against a fixed record:
// the packed selections, stats, modeled costs, traces and get-data
// values of the pinned statements in all three forms, and every
// server's flight-recorder stream, identical at workers 0 and 4 and to
// testdata/sorted_path.golden (regenerate with -update).
func TestSortedPathPinned(t *testing.T) {
	got := renderSortedRun(t, 0)
	if par := renderSortedRun(t, 4); par != got {
		t.Fatalf("workers=4 differs from the serial run:\n--- serial\n%s\n--- workers=4\n%s", got, par)
	}
	golden := filepath.Join("testdata", "sorted_path.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("sorted path drifted from golden (re-run with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// fuzzStatement decodes one drawn statement on the sorted fixture: a
// window on the sort key (its ends either drawn values or, when a byte
// of edges picks one, a sorted region's Min or Max; either end may be
// open), optionally ANDed with a companion window on x and a rest
// condition on Ux, optionally ORed with a second key window, optionally
// constrained to a spatial window; and the form it is answered in.
// shape's bits: 0 no low end, 1 no high end, 2 low end inclusive, 3
// high end inclusive, 4 companion, 5 rest, 6 OR, 8-9 the form.
func (f *sortedFixture) fuzzStatement(lo, hi float64, edges, shape uint16, xlo, xhi, ux float64, cons uint32,
	orLo, orHi float64) (*query.Query, int) {

	rep := f.d.Replicas()[f.ids["Energy"]]
	edge := func(b uint16, v float64) float64 {
		if b == 0 {
			return v
		}
		ri := rep.Regions[int(b-1)/2%len(rep.Regions)]
		if b%2 == 1 {
			return ri.Min
		}
		return ri.Max
	}
	lo, hi = edge(edges&0xff, lo), edge(edges>>8, hi)
	key := f.ids["Energy"]
	loOp, hiOp := query.OpGT, query.OpLT
	if shape&4 != 0 {
		loOp = query.OpGE
	}
	if shape&8 != 0 {
		hiOp = query.OpLE
	}
	var root *query.Node
	switch {
	case shape&1 != 0:
		root = query.Leaf(key, hiOp, hi)
	case shape&2 != 0:
		root = query.Leaf(key, loOp, lo)
	default:
		root = query.And(query.Leaf(key, loOp, lo), query.Leaf(key, hiOp, hi))
	}
	if shape&16 != 0 {
		root = query.And(root, query.Between(f.ids["x"], xlo, xhi, false, false))
	}
	if shape&32 != 0 {
		root = query.And(root, query.Leaf(f.ids["Ux"], query.OpGT, ux))
	}
	if shape&64 != 0 {
		root = query.Or(root, query.Between(key, orLo, orHi, true, false))
	}
	q := &query.Query{Root: root}
	if cons != 0 {
		off := uint64(cons&0xffff) % sortedParticles
		n := min(max(uint64(cons>>16), 1), sortedParticles-off)
		q.Constraint = &region.Region{Offset: []uint64{off}, Count: []uint64{n}}
	}
	return q, int(shape>>8) % len(sortedForms)
}

// merged is one answer as the client sees it: the servers' selections
// merged, the total hit count and, for a kept statement, each object's
// (coordinate, value) pairs in coordinate order.
func (a *sortedAnswer) merged(tb testing.TB) (sel []byte, nhits uint64, vals [][]byte) {
	tb.Helper()
	parts := make([]*selection.Packed, len(a.replies))
	for i, qr := range a.replies {
		parts[i] = qr.Sel
		nhits += qr.Sel.NHits
	}
	m, err := selection.MergePacked(parts)
	if err != nil {
		tb.Fatal(err)
	}
	if len(a.data) == 0 {
		return m.Encode(), nhits, nil
	}
	for k := range a.data[0] {
		type pair struct {
			coord uint64
			val   []byte
		}
		var pairs []pair
		for _, data := range a.data {
			dr := data[k]
			size := len(dr.Data) / max(len(dr.Coords), 1)
			for i, c := range dr.Coords {
				pairs = append(pairs, pair{c, dr.Data[i*size : (i+1)*size]})
			}
		}
		slices.SortFunc(pairs, func(x, y pair) int { return cmp.Compare(x.coord, y.coord) })
		var b []byte
		for _, p := range pairs {
			b = binary.LittleEndian.AppendUint64(b, p.coord)
			b = append(b, p.val...)
		}
		vals = append(vals, b)
	}
	return m.Encode(), nhits, vals
}

// FuzzSortedMatchesScan holds the sorted-replica path to the scan path:
// a drawn statement (fuzzStatement) answered under forced sorted must
// give the forced-scan answer — the same merged selection bytes, hit
// count and get-data values — or both must fail with the same error.
// The seeds are TestSortedPathPinned's statements in every form, plus
// region edges, open ends and an empty interval.
func FuzzSortedMatchesScan(f *testing.F) {
	type seed struct {
		lo, hi       float64
		edges, shape uint16
		xlo, xhi, ux float64
		cons         uint32
		orLo, orHi   float64
	}
	seeds := []seed{
		{lo: 0.03, hi: 0.2, shape: 8},                            // window
		{lo: 0.4, shape: 2 | 16 | 32, xlo: 50, xhi: 1800},        // companion + rest
		{lo: 0.1, hi: 0.25, shape: 4 | 8, cons: 5000 | 7000<<16}, // constrained
		{hi: 0.02, shape: 1 | 64, orLo: 0.2, orHi: 0.35},         // or
		{lo: 0.11, hi: 0.11000001},                               // no hits
		{edges: 3 | 6<<8, shape: 4 | 8},                          // region edges, closed
		{edges: 4 | 4<<8, shape: 4 | 8 | 16, xlo: 100, xhi: 900}, // one region's Max, both ends
		{edges: 20 << 8, shape: 1 | 32, ux: -0.5},                // open low end at the top Max
		{lo: 0.3, hi: 0.1, shape: 4 | 8},                         // empty interval
	}
	for _, sd := range seeds {
		for form := range sortedForms {
			f.Add(sd.lo, sd.hi, sd.edges, sd.shape|uint16(form)<<8, sd.xlo, sd.xhi, sd.ux, sd.cons, sd.orLo, sd.orHi)
		}
	}
	fx := newSortedFixture(f, 4)
	fx.untraced = true
	f.Fuzz(func(t *testing.T, lo, hi float64, edges, shape uint16, xlo, xhi, ux float64, cons uint32, orLo, orHi float64) {
		q, fi := fx.fuzzStatement(lo, hi, edges, shape, xlo, xhi, ux, cons, orLo, orHi)
		form := sortedForms[fi]
		sorted, errSorted := fx.ask(q, form.kind, form.keep, plan.ForceSorted)
		scan, errScan := fx.ask(q, form.kind, form.keep, plan.ForceScan)
		if errSorted != nil || errScan != nil {
			if fmt.Sprint(errSorted) != fmt.Sprint(errScan) {
				t.Fatalf("%s %s: sorted error %v, scan error %v", q.Root, form.name, errSorted, errScan)
			}
			return
		}
		gotSel, gotHits, gotVals := sorted.merged(t)
		wantSel, wantHits, wantVals := scan.merged(t)
		if gotHits != wantHits || !bytes.Equal(gotSel, wantSel) {
			t.Fatalf("%s %s: sorted %d hits (%s), scan %d hits (%s)", q.Root, form.name, gotHits, digest(gotSel), wantHits, digest(wantSel))
		}
		for k := range wantVals {
			if !bytes.Equal(gotVals[k], wantVals[k]) {
				t.Fatalf("%s %s: object %d values differ: sorted %s, scan %s", q.Root, form.name, k, digest(gotVals[k]), digest(wantVals[k]))
			}
		}
	})
}

// TestMixedOrCountsOnce: an OR whose conjuncts would split the work two
// ways — one led by the sorted key, one by x — runs both from the
// original regions, so a location both match is counted, listed and
// read back once.
func TestMixedOrCountsOnce(t *testing.T) {
	f := newSortedFixture(t, 0)
	q := &query.Query{Root: query.Or(
		query.And(query.Between(f.ids["Energy"], 0, 0.02, false, false), query.Between(f.ids["x"], -580, 24, false, false)),
		query.Between(f.ids["Energy"], -180.6, 0.49, true, false))}
	want, err := f.d.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := f.d.Client().RunText("select count where (Energy > 0 and Energy < 0.02 and x > -580 and x < 24) or (Energy >= -180.6 and Energy < 0.49)", plan.ForceSorted)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.d.Client().Run(q, plan.ForceSorted)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Sel.NHits != want.NHits || res.Sel.NHits != want.NHits {
		t.Fatalf("count %d, ids %d, oracle %d", cnt.Sel.NHits, res.Sel.NHits, want.NHits)
	}
	if _, _, err := res.GetData(f.ids["Energy"]); err != nil {
		t.Fatal(err)
	}
}
