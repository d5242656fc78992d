// adapter.go holds every call the benchmark makes into pdcquery's
// internal packages, so the API surface the benchmark pins is readable
// in one place. The rest of the harness sees only the plain types
// declared here (float32 columns, statement text, counters, byte
// counts) and never imports pdcquery/internal/* itself.
package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/cluster"
	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/histogram"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/workload"
)

// regionBytes is the import partition size: 64 KiB = 2^14 float32
// elements, so a 2^21-particle object has 128 regions.
const regionBytes = 64 << 10

// Planner forcings, by the repo's names.
const (
	forceAuto   = int(plan.ForceAuto)
	forceScan   = int(plan.ForceScan)
	forceBitmap = int(plan.ForceBitmap)
)

// now reads the wall clock through the repo's one sanctioned seam.
func now() int64 { return telemetry.Wall.Now() }

// sleepUntil pauses until the wall clock reads t (no-op when past).
func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		telemetry.WallSleep.Sleep(time.Duration(d))
	}
}

// checkExposition is the repo's strict /metrics validator.
func checkExposition(body []byte) error { return telemetry.CheckPrometheusText(body) }

// generateColumns makes the seeded VPIC particle set.
func generateColumns(n int, seed uint64) map[string][]float32 {
	return workload.GenerateVPIC(n, seed).Vars
}

// figure4Conjuncts returns the paper's six multi-object conjuncts as
// conditions over Energy, x, y, z.
func figure4Conjuncts() [][]cond {
	out := make([][]cond, 0, len(workload.MultiObjectSpecs))
	for _, s := range workload.MultiObjectSpecs {
		out = append(out, []cond{
			above("Energy", s.E),
			open("x", s.X0, s.X1), open("y", s.Y0, s.Y1), open("z", s.Z0, s.Z1),
		})
	}
	return out
}

// source is the harness-side import: an in-process deployment holding
// the dataset with per-region histograms and bitmap indexes, which
// Session.Import then pushes into the cluster.
type source struct {
	d *core.Deployment
}

// importSource partitions the columns into 64 KiB regions and builds
// histograms and bitmap indexes (the paper's offline import cost).
func importSource(cols map[string][]float32) (*source, error) {
	d := core.NewDeployment(core.Options{Servers: 1, RegionBytes: regionBytes, BuildIndex: true})
	c := d.CreateContainer("benchmark")
	for _, name := range workload.VPICNames {
		v := cols[name]
		if _, err := d.ImportObject(c.ID, object.Property{
			Name: name, Type: dtype.Float32, Dims: []uint64{uint64(len(v))},
		}, dtype.Bytes(v)); err != nil {
			return nil, fmt.Errorf("import %s: %w", name, err)
		}
	}
	return &source{d: d}, nil
}

func (s *source) close() { _ = s.d.Close() }

// groundTruth is the repo's own brute-force oracle on the lowered
// statement; the tests hold the harness's plain-loop oracle to it.
func (s *source) groundTruth(text string) (nhits uint64, encoded []byte, err error) {
	low, err := s.lower(text)
	if err != nil {
		return 0, nil, err
	}
	sel, err := s.d.GroundTruth(low.Query)
	if err != nil {
		return 0, nil, err
	}
	return sel.NHits, sel.Encode(), nil
}

func (s *source) lower(text string) (*qlang.Lowered, error) {
	parsed, err := qlang.Parse(text)
	if err != nil {
		return nil, err
	}
	return parsed.Lower(s.resolve)
}

func (s *source) resolve(name string) (object.ID, bool) {
	o, ok := s.d.Meta().GetByName(name)
	if !ok {
		return 0, false
	}
	return o.ID, true
}

// fleet is 1 catalog + members real pdc-server processes over loopback
// TCP, plus the generator's sessions.
type fleet struct {
	p        *core.ProcessDeployment
	sessions []*session
}

type session struct{ s *cluster.Session }

// startFleet spawns the processes and opens nsessions sessions.
func startFleet(bin string, members, nsessions int, seed uint64, stderr io.Writer) (*fleet, error) {
	p, err := core.StartProcessDeployment(core.ProcessOptions{
		BinPath: bin, Members: members, R: 2, Seed: seed, Metrics: true, Stderr: stderr,
	})
	if err != nil {
		return nil, err
	}
	f := &fleet{p: p}
	for i := 0; i < nsessions; i++ {
		s, err := p.Session()
		if err != nil {
			f.close()
			return nil, err
		}
		f.sessions = append(f.sessions, &session{s: s})
	}
	return f, nil
}

func (f *fleet) importFrom(src *source) error { return f.sessions[0].s.Import(src.d) }

// metricsAddrs lists the members' /metrics addresses in spawn order.
func (f *fleet) metricsAddrs() []string {
	var out []string
	for _, a := range f.p.MemberAddrs() {
		out = append(out, f.p.MetricsAddr(a))
	}
	return out
}

func (f *fleet) close() {
	for _, s := range f.sessions {
		s.s.Close()
	}
	f.p.Close()
}

// counters are the exact evaluation counts one reply carries.
type counters struct {
	regionsEvaluated, regionsPruned int64
	elemsScanned, probes            int64
	indexBins, indexBytes           int64
	candChecks, storageBytes        int64
}

func (c *counters) add(o counters) {
	c.regionsEvaluated += o.regionsEvaluated
	c.regionsPruned += o.regionsPruned
	c.elemsScanned += o.elemsScanned
	c.probes += o.probes
	c.indexBins += o.indexBins
	c.indexBytes += o.indexBytes
	c.candChecks += o.candChecks
	c.storageBytes += o.storageBytes
}

// reply is what the harness keeps of one answered statement.
type reply struct {
	nhits     uint64
	coords    []uint64 // ids projection only
	countOnly bool
	dims      []uint64
	hist      *histReply
	stats     counters
	modeledNs int64 // Info.Elapsed.Total(): the vclock's opinion of this call
}

// histReply is a merged value histogram: bin i covers
// [start+i*width, start+(i+1)*width).
type histReply struct {
	start, width float64
	counts       []uint64
	min, max     float64
	total        uint64
}

// run sends one text statement through cluster.Session.RunText.
func (s *session) run(text string, force int) (*reply, error) {
	res, err := s.s.RunText(text, plan.Force(force))
	if err != nil {
		return nil, err
	}
	st := res.Info.Stats
	r := &reply{
		nhits: res.Sel.NHits, coords: res.Sel.Coords, countOnly: res.Sel.CountOnly, dims: res.Sel.Dims,
		modeledNs: int64(res.Info.Elapsed.Total()),
		stats: counters{
			regionsEvaluated: st.RegionsEvaluated, regionsPruned: st.RegionsPruned,
			elemsScanned: st.ElementsScanned, probes: st.Probes,
			indexBins: st.IndexBinsRead, indexBytes: st.IndexBytesRead,
			candChecks: st.CandChecks, storageBytes: st.StorageBytes,
		},
	}
	if h := res.Hist; h != nil {
		r.hist = &histReply{start: h.Start, width: h.Width, counts: h.Counts, min: h.Min, max: h.Max, total: h.Total}
	}
	return r, nil
}

// lowered is a parsed and name-resolved statement, kept opaque.
type lowered struct{ q *query.Query }

// parseLower is the frontend step of a traced statement: qlang.Parse +
// Lower, as client.RunText does first.
func (s *source) parseLower(text string) (lowered, error) {
	low, err := s.lower(text)
	if err != nil {
		return lowered{}, err
	}
	return lowered{low.Query}, nil
}

// buildPlan is the client-side planning step of a traced statement.
func (s *source) buildPlan(l lowered, force int) error {
	_, err := plan.Build(s.d.Meta(), l.q, plan.Force(force))
	return err
}

// decodeMerge repeats the client's result path on a reply: decode the
// encoded selection and merge it across members.
func decodeMerge(r *reply) error {
	sel := &selection.Selection{NHits: r.nhits, Coords: r.coords, CountOnly: r.countOnly, Dims: r.dims}
	dec, err := selection.Decode(sel.Encode())
	if err != nil {
		return err
	}
	if m := selection.MergeAll([]*selection.Selection{dec}); m.NHits != r.nhits {
		return fmt.Errorf("decode+merge lost hits: %d of %d", m.NHits, r.nhits)
	}
	return nil
}

// encodeSelection is the wire form of an ids answer (what the oracle's
// coordinates are compared with, byte for byte).
func encodeSelection(coords, dims []uint64) []byte {
	return selection.New(coords, dims).Encode()
}

// selectionBytes is the encoded size of a reply's merged selection
// without encoding it: flags, hit count, rank, dims, then 8 bytes per
// coordinate (TestOracleAgainstGroundTruth holds it to Encode).
func selectionBytes(r *reply) int64 {
	return int64(1 + 8 + 1 + 8*len(r.dims) + 8*len(r.coords))
}

// --- in-process layer replay ------------------------------------------------
//
// Each function below times one layer's public entry points on the
// workload's own statements, metadata and result sizes, in a tight loop
// in the generator process while the fleet is idle. They return total
// nanoseconds and the number of operations so the caller reports means.

// replayParse times qlang.Parse + Lower over the texts.
func (s *source) replayParse(texts []string, rounds int) (ns int64, ops int, err error) {
	t0 := now()
	for r := 0; r < rounds; r++ {
		for _, t := range texts {
			if _, err := s.lower(t); err != nil {
				return 0, 0, err
			}
		}
	}
	return now() - t0, rounds * len(texts), nil
}

// replayPlan times plan.Build on the imported metadata snapshot.
func (s *source) replayPlan(texts []string, force, rounds int) (ns int64, ops int, err error) {
	lowered := make([]*query.Query, len(texts))
	for i, t := range texts {
		low, err := s.lower(t)
		if err != nil {
			return 0, 0, err
		}
		lowered[i] = low.Query
	}
	t0 := now()
	for r := 0; r < rounds; r++ {
		for _, q := range lowered {
			if _, err := plan.Build(s.d.Meta(), q, plan.Force(force)); err != nil {
				return 0, 0, err
			}
		}
	}
	return now() - t0, rounds * len(texts), nil
}

// replayPrune times the histogram layer's two uses on every condition
// of every statement: SelectivityBounds on the object's global
// histogram and Overlaps on each of its region histograms. It also
// keeps how many region tests survived in pruneSink, so the loop cannot
// be optimised away.
func (s *source) replayPrune(stmts []stmt, rounds int) (ns int64, ops int, err error) {
	type probe struct {
		global  *histogram.Histogram
		regions []*histogram.Histogram
		c       cond
	}
	var probes []probe
	for _, st := range stmts {
		for _, c := range st.conds {
			o, _ := s.d.Meta().GetByName(c.col)
			p := probe{global: o.Global, c: c}
			for i := range o.Regions {
				p.regions = append(p.regions, o.Regions[i].Hist)
			}
			probes = append(probes, p)
		}
	}
	survived := 0
	t0 := now()
	for r := 0; r < rounds; r++ {
		for _, p := range probes {
			p.global.SelectivityBounds(p.c.lo, p.c.hi, p.c.loIncl, p.c.hiIncl)
			for _, h := range p.regions {
				if h.Overlaps(p.c.lo, p.c.hi, p.c.loIncl, p.c.hiIncl) {
					survived++
				}
			}
		}
	}
	ns = now() - t0
	pruneSink = survived
	return ns, rounds * len(stmts), nil
}

var pruneSink int

// replayRTT times a 64-byte frame echo over transport.Listen/Dial.
func replayRTT(rounds int) (ns int64, err error) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer func() { _ = l.Close() }()
	echoErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer func() { _ = c.Close() }()
		for {
			m, err := c.Recv()
			if err != nil {
				echoErr <- nil // the dialer closed: done
				return
			}
			if err := c.Send(m); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	c, err := transport.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	msg := transport.Message{Type: 1, ReqID: 1, Payload: make([]byte, 64)}
	t0 := now()
	for r := 0; r < rounds; r++ {
		if err := c.Send(msg); err != nil {
			return 0, err
		}
		if _, err := c.Recv(); err != nil {
			return 0, err
		}
	}
	ns = now() - t0
	_ = c.Close()
	return ns, <-echoErr
}

// replayFrame times moving frames of payloadBytes one way over a
// loopback connection: AppendFrame + write on one side, Recv on the
// other. Returns nanoseconds for rounds frames.
func replayFrame(payloadBytes, rounds int) (ns int64, err error) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer func() { _ = l.Close() }()
	sendErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			sendErr <- err
			return
		}
		defer func() { _ = c.Close() }()
		msg := transport.Message{Type: 1, ReqID: 1, Payload: make([]byte, payloadBytes)}
		for r := 0; r < rounds; r++ {
			if err := c.Send(msg); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	c, err := transport.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	defer func() { _ = c.Close() }()
	t0 := now()
	for r := 0; r < rounds; r++ {
		if _, err := c.Recv(); err != nil {
			return 0, err
		}
	}
	return now() - t0, <-sendErr
}

// replayBitmap times the bitmap access path on one imported region of
// the column — the region with the largest maximum, which every window
// reaches — for each interval: Index.Evaluate + CheckCandidates, then
// wah ToIndices on the answer.
func (s *source) replayBitmap(col string, ivs []cond, rounds int) (evalNs int64, evals int, toIdxNs int64, hits int64, err error) {
	o, ok := s.d.Meta().GetByName(col)
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("replay: no column %q", col)
	}
	best := 0
	for i := range o.Regions {
		if o.Regions[i].Max > o.Regions[best].Max {
			best = i
		}
	}
	rm := &o.Regions[best]
	raw, err := s.d.Store().ReadAll(nil, rm.IndexKey)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	idx, err := bitindex.Decode(raw.Clone())
	if err != nil {
		return 0, 0, 0, 0, err
	}
	data, err := s.d.Store().ReadAll(nil, rm.ExtentKey)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	bytes := data.Clone()
	for r := 0; r < rounds; r++ {
		for _, iv := range ivs {
			t0 := now()
			sure, cands := idx.Evaluate(iv.lo, iv.hi, iv.loIncl, iv.hiIncl)
			checked := idx.CheckCandidates(o.Type, bytes, cands, iv.lo, iv.hi, iv.loIncl, iv.hiIncl)
			t1 := now()
			n := len(sure.ToIndices()) + len(checked.ToIndices())
			t2 := now()
			evalNs += t1 - t0
			toIdxNs += t2 - t1
			hits += int64(n)
			evals++
		}
	}
	return evalNs, evals, toIdxNs, hits, nil
}

// replaySelection times the result path on a selection of the given
// coordinates split in two member-sized halves: Encode, Decode, and the
// client's cross-member MergeAll.
func replaySelection(coords, dims []uint64, rounds int) (encNs, decNs, mergeNs int64, wireBytes int, err error) {
	half := len(coords) / 2
	a, b := selection.New(coords[:half], dims), selection.New(coords[half:], dims)
	for r := 0; r < rounds; r++ {
		t0 := now()
		ea, eb := a.Encode(), b.Encode()
		t1 := now()
		da, err := selection.Decode(ea)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		db, err := selection.Decode(eb)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		t2 := now()
		m := selection.MergeAll([]*selection.Selection{da, db})
		t3 := now()
		if m.NHits != uint64(len(coords)) {
			return 0, 0, 0, 0, fmt.Errorf("replay: merge lost hits: %d of %d", m.NHits, len(coords))
		}
		encNs += t1 - t0
		decNs += t2 - t1
		mergeNs += t3 - t2
		wireBytes = len(ea) + len(eb)
	}
	return encNs, decNs, mergeNs, wireBytes, nil
}

// inf is the open side of a one-sided condition.
var inf = math.Inf(1)
