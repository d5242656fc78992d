// Command pdc-benchdiff is the repository's performance ratchet and its
// one allocation gate: it measures a fixed set of deterministic figures
// — allocations per operation for the hot kernels the zero-alloc sweep
// pinned, for the import's bitmap-index build over one region, and for a
// whole warm statement (stmt.*: client, transport and members together,
// on every access path), and modeled virtual-time figures of every
// paper figure the bench harness reproduces (Figs. 3–6, scale-out, plan
// cache) and of the cluster's import and rebalance — and compares them
// against the committed baseline in BENCH_seed.json, the repository's
// one baseline file.
//
// Both figure families are deterministic by construction (AllocsPerRun
// over fixed inputs; virtual-clock times from the cost model), so every
// figure must equal its committed value. A higher figure is a
// regression; a lower one fails too, until `make bench-seed` takes it,
// so an improvement tightens the ratchet instead of leaving slack
// behind it.
//
// Usage:
//
//	pdc-benchdiff            compare against BENCH_seed.json, exit 1 on any difference
//	pdc-benchdiff -write     re-measure and rewrite the baseline
//	pdc-benchdiff -baseline p  use a different baseline path
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"pdcquery/internal/bench"
	"pdcquery/internal/bitindex"
	"pdcquery/internal/cluster"
	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/exec"
	"pdcquery/internal/histogram"
	"pdcquery/internal/plan"
	"pdcquery/internal/selection"
	"pdcquery/internal/transport"
	"pdcquery/internal/wah"
	"pdcquery/internal/workload"
)

// Baseline is the committed shape of BENCH_seed.json.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note string `json:"note"`
	// AllocsPerOp maps kernel name to heap allocations per operation.
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
	// ModeledNs maps figure name to modeled virtual wall-clock in
	// nanoseconds.
	ModeledNs map[string]int64 `json:"modeled_ns"`
}

const baselineNote = "deterministic perf baseline; regenerate with `make bench-seed` (go run ./cmd/pdc-benchdiff -write)"

// measureAllocs runs the pinned hot kernels under testing.AllocsPerRun
// with warm, pre-sized buffers — the steady-state regime the zero-alloc
// tests describe.
func measureAllocs() map[string]float64 {
	out := map[string]float64{}

	const nbits = 1 << 14
	a := wah.FromIndices([]uint64{1, 5, 100, 101, 3000, 3001, 9000}, nbits)
	b := wah.FromIndices([]uint64{5, 99, 100, 2999, 3001, 9000, 16383}, nbits)
	dst := wah.OrInto(nil, a, b)
	out["wah.OrInto.warm"] = testing.AllocsPerRun(200, func() { dst = wah.OrInto(dst, a, b) })
	u := wah.Or(a, b)
	idx := u.ToIndicesInto(nil)
	out["wah.ToIndicesInto.warm"] = testing.AllocsPerRun(200, func() { idx = u.ToIndicesInto(idx) })

	ca := make([]uint64, 0, 4096)
	cb := make([]uint64, 0, 4096)
	for i := uint64(0); i < 8192; i++ {
		if i%2 == 0 {
			ca = append(ca, i)
		}
		if i%3 == 0 {
			cb = append(cb, i)
		}
	}
	mdst := make([]uint64, 0, len(ca)+len(cb))
	out["selection.MergeCoords.presized"] = testing.AllocsPerRun(200, func() { mdst = selection.MergeCoords(mdst, ca, cb) })

	// The result path over one 8192-element region: every second element
	// packs as a bitset, every 24th as delta gaps — from a hit list and
	// from a bitset, into a warm buffer — and both unpack into a
	// destination that already has the room.
	var sparse []uint64
	for i := uint64(0); i < 8192; i += 24 {
		sparse = append(sparse, i)
	}
	for _, coords := range [][]uint64{ca, sparse} {
		words := make([]uint64, 8192/64)
		for _, c := range coords {
			words[c>>6] |= 1 << (c & 63)
		}
		chunk := selection.AppendChunkCoords(nil, 0, 8192, coords)
		out["selection.pack.warm"] += testing.AllocsPerRun(200, func() {
			chunk = selection.AppendChunkCoords(chunk[:0], 0, 8192, coords)
			chunk = selection.AppendChunkBits(chunk[:0], 0, 8192, words, uint64(len(coords)))
		})
		p := &selection.Packed{NHits: uint64(len(coords)), Dims: []uint64{8192}, Chunks: chunk}
		udst := make([]uint64, 0, len(coords))
		out["selection.unpack.presized"] += testing.AllocsPerRun(200, func() { udst, _ = p.Coords(udst) })
	}

	m := transport.Message{Type: 3, ReqID: 8, Trace: 5, Deadline: 2, Payload: make([]byte, 512)}
	fbuf := transport.AppendFrame(nil, m)
	out["transport.AppendFrame.warm"] = testing.AllocsPerRun(200, func() { fbuf = transport.AppendFrame(fbuf[:0], m) })

	c := exec.NewCache(1 << 20)
	c.Put("region", make([]byte, 4096))
	out["exec.Cache.Get.hit"] = testing.AllocsPerRun(200, func() { c.Get("region") })

	// The region kernels over one 64 KiB region: the first-condition
	// mark into a warm bitset (countRegion), a probe in place, and the
	// scan and index paths' whole region evaluations with the packing of
	// their chunks (scanRegion, indexRegion).
	for name, op := range exec.KernelOps() {
		out["exec."+name+".warm"] = testing.AllocsPerRun(200, op)
	}

	// The import's index build over one 64 KiB VPIC Energy region: per
	// bin an encoder's words and its bitmap, no per-bin position list.
	energy := dtype.Bytes(workload.GenerateVPIC(1<<21, 7).Vars["Energy"][:16384])
	lo, hi := dtype.MinMax(dtype.Float32, energy)
	out["bitindex.build.warm"] = testing.AllocsPerRun(20, func() {
		bitindex.Build(dtype.Float32, energy, lo, hi, bitindex.DefaultPrecision)
	})
	// The rest of that region's summary: its histogram, read typed from
	// the bytes (the Histogram and its counts), and its index's encoding
	// into one buffer sized up front.
	out["histogram.build.warm"] = testing.AllocsPerRun(20, func() {
		histogram.BuildBytes(dtype.Float32, energy, histogram.DefaultBins)
	})
	x := bitindex.Build(dtype.Float32, energy, lo, hi, bitindex.DefaultPrecision)
	out["bitindex.encode.warm"] = testing.AllocsPerRun(20, func() { x.Encode() })

	return out
}

// stmtAllocStatements are the statement rows: one fixed statement per
// projection, a narrow Energy window like the wall-clock benchmark's
// point workload.
var stmtAllocStatements = []struct{ name, text string }{
	{"stmt.count.warm", "select count where Energy between 3.01 and 3.03"},
	{"stmt.ids.warm", "select ids where Energy between 3.01 and 3.03"},
	{"stmt.hist.warm", "select hist(x, 8) where Energy between 3.01 and 3.03"},
}

// stmtPathRows run the count statement under the forcings the cluster
// rows never reach (the planner picks neither for that window), over
// TCP connections rather than pipes. Each row first checks from the
// statement's Stats that it took its path, so it can never quietly
// measure another.
var stmtPathRows = []struct {
	name  string
	force plan.Force
	took  func(exec.Stats) bool
}{
	{"stmt.count.sorted.tcp.warm", plan.ForceSorted, func(s exec.Stats) bool { return s.SortedRegions > 0 }},
	{"stmt.count.full.tcp.warm", plan.ForceFull, func(s exec.Stats) bool {
		return s.RegionsPruned == 0 && s.RegionsEvaluated == stmtParticles*4/stmtRegionBytes
	}},
}

const (
	// stmtParticles VPIC particles in stmtRegionBytes regions: 128
	// regions per object, the wall-clock benchmark's decomposition.
	stmtParticles   = 1 << 18
	stmtRegionBytes = 8 << 10
	stmtSeed        = 41
)

// warmAllocs runs a statement 20 times to warm the plan caches, region
// caches and pools, then counts the heap allocations of one more.
func warmAllocs(run func() error) (float64, error) {
	var runErr error
	f := func() {
		if err := run(); err != nil {
			runErr = err
		}
	}
	for range 20 {
		f()
	}
	n := testing.AllocsPerRun(100, f)
	return n, runErr
}

// measureStmtAllocs counts the whole process's heap allocations per warm
// statement, client, transport and members included. The stmt.*.warm
// rows run Session.RunText on a two-member cluster.Local (R=2, 4 workers
// per member); the stmtPathRows run Client.RunText on a two-server TCP
// core.Deployment (4 workers per server) with Energy's sorted replica.
func measureStmtAllocs(out map[string]float64) error {
	src := core.NewDeployment(core.Options{Servers: 1, RegionBytes: stmtRegionBytes, BuildIndex: true})
	defer src.Close()
	stmtData := workload.GenerateVPIC(stmtParticles, stmtSeed)
	if _, err := bench.ImportVPIC(src, stmtData, workload.VPICNames...); err != nil {
		return err
	}
	l, err := cluster.StartLocal(cluster.LocalOptions{Members: 2, R: 2, Seed: stmtSeed, Workers: 4})
	if err != nil {
		return err
	}
	defer l.Close()
	s, err := l.Session()
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.Import(src); err != nil {
		return err
	}
	for _, st := range stmtAllocStatements {
		n, err := warmAllocs(func() error {
			_, err := s.RunText(st.text, plan.ForceAuto)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		out[st.name] = n
	}

	d := core.NewDeployment(core.Options{
		Servers: 2, TCP: true, BuildIndex: true, Workers: 4, RegionBytes: stmtRegionBytes,
	})
	defer d.Close()
	ids, err := bench.ImportVPIC(d, stmtData, workload.VPICNames...)
	if err != nil {
		return err
	}
	if err := d.BuildSortedReplica(ids["Energy"]); err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	text := stmtAllocStatements[0].text
	for _, row := range stmtPathRows {
		res, err := d.Client().RunText(text, row.force)
		if err != nil {
			return fmt.Errorf("%s: %w", row.name, err)
		}
		if !row.took(res.Info.Stats) {
			return fmt.Errorf("%s: the statement did not take its path: %+v", row.name, res.Info.Stats)
		}
		n, err := warmAllocs(func() error {
			_, err := d.Client().RunText(text, row.force)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", row.name, err)
		}
		out[row.name] = n
	}
	return nil
}

// measureModeled runs the paper-figure harness at small fixed scales and
// sums each figure's modeled (virtual-clock) time per series, starting
// with Fig. 3's query time per approach. Virtual time is deterministic,
// so these figures catch cost-model and evaluation-path regressions
// without benchmark noise.
func measureModeled() (map[string]int64, error) {
	rows, err := bench.Fig3Run(bench.Config{LogN: 16, Servers: 4, Seed: 42, RegionSteps: 1})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, r := range rows {
		addSeries(out, "fig3.logn16.", r.QueryTime)
	}
	// What building Fig. 3's deployment charges: the data, index and
	// sorted-replica writes of the import.
	out["import.setup"] = int64(rows[0].ImportTime)

	// Plan-cache figures: the declarative corpus cold (round 0, every
	// plan built) and warm (last round, every plan from the LRU). Both
	// are modeled virtual time, so they gate the planner's cost model
	// and the cache's hit path.
	pcRows, err := bench.PlanCacheRun(bench.Config{LogN: 16, Servers: 4, Seed: 42})
	if err != nil {
		return nil, err
	}
	if len(pcRows) >= 2 {
		out["plancache.logn16.cold"] = pcRows[0].TimeNs
		out["plancache.logn16.warm"] = pcRows[len(pcRows)-1].TimeNs
	}
	if err := measureFigures(out); err != nil {
		return nil, err
	}
	return out, measureClusterModeled(out)
}

// figureConfig is the scale of the fig4/fig5/fig6 rows: the paper's
// 32…512-server sweep for Fig. 6, a small fleet and BOSS set for the rest.
var figureConfig = bench.Config{
	LogN: 16, Servers: 4, Seed: 42, BOSSObjects: 1000, FluxLen: 50,
	Fig6Servers: []int{32, 64, 128, 256, 512},
}

// measureFigures records the rest of the paper's figures, each series
// summed over its x axis: Fig. 4's query and get-data time over the six
// queries, Fig. 5 over the six flux bounds, Fig. 6 over the fleet sizes,
// and the scale-out sweep per member count at its default scale.
func measureFigures(out map[string]int64) error {
	f4, err := bench.Fig4Run(figureConfig)
	if err != nil {
		return err
	}
	for _, r := range f4 {
		addSeries(out, "fig4.logn16.", r.QueryTime)
		for _, ap := range bench.Approaches[1:] {
			out["fig4.logn16.getdata."+ap] += int64(r.GetDataTime[ap])
		}
	}
	f5, err := bench.Fig5Run(figureConfig)
	if err != nil {
		return err
	}
	for _, r := range f5 {
		addSeries(out, "fig5.boss1000.", r.Time)
	}
	f6, err := bench.Fig6Run(figureConfig)
	if err != nil {
		return err
	}
	for _, r := range f6 {
		addSeries(out, "fig6.logn16.", r.Time)
	}
	so, err := bench.ScaleoutRun(bench.Config{LogN: 20, Seed: 42})
	if err != nil {
		return err
	}
	for _, r := range so {
		out[fmt.Sprintf("scaleout.logn20.members%d", r.Members)] = r.TimeNs
	}
	return nil
}

// addSeries adds one x-axis point's time per series to the rows named
// prefix+series.
func addSeries(out map[string]int64, prefix string, times map[string]time.Duration) {
	for series, d := range times {
		out[prefix+series] += int64(d)
	}
}

// Cluster figures: the storage the cluster charges for an import and
// for one join. They are the only modeled figures that reach the
// ingest and transfer handlers, so an extent written or fetched without
// an account shows here and nowhere else.
const (
	clusterParticles = 1 << 16
	clusterSeed      = 42
)

// measureClusterModeled imports a VPIC dataset into a two-member,
// R=2 cluster.Local and records the members' summed charges as
// cluster.import; it then adds a third member and records what the join
// added as rebalance.join (the joiner's installs and the owners'
// fetches).
func measureClusterModeled(out map[string]int64) error {
	src := core.NewDeployment(core.Options{Servers: 1, RegionBytes: stmtRegionBytes, BuildIndex: true})
	defer src.Close()
	v := workload.GenerateVPIC(clusterParticles, clusterSeed)
	if _, err := bench.ImportVPIC(src, v, workload.VPICNames...); err != nil {
		return err
	}
	l, err := cluster.StartLocal(cluster.LocalOptions{Members: 2, R: 2, Seed: clusterSeed, Workers: 4})
	if err != nil {
		return err
	}
	defer l.Close()
	s, err := l.Session()
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.Import(src); err != nil {
		return err
	}
	imported := clusterCharged(l)
	out["cluster.import"] = int64(imported)
	if _, err := l.AddMember(); err != nil {
		return err
	}
	if err := l.WaitMembers(3, 10*time.Second); err != nil {
		return err
	}
	out["rebalance.join"] = int64(clusterCharged(l) - imported)
	return nil
}

// clusterCharged sums every running member's server and transfer
// accounts.
func clusterCharged(l *cluster.Local) time.Duration {
	var total time.Duration
	for _, id := range l.MemberIDs() {
		m := l.Member(id)
		total += m.Server().Account().Cost().Total() + m.TransferAccount().Cost().Total()
	}
	return total
}

// compare checks cur against base and returns one formatted table row
// per figure plus the failures found. Every figure must equal its
// committed value: a higher one is a regression, a lower one must be
// taken into the baseline, and a figure on one side only means the
// baseline is stale. All three are fixed with `make bench-seed`, after
// the change that moved the figure is meant.
func compare[N int64 | float64](kind string, base, cur map[string]N) (rows, failures []string) {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	for n := range cur {
		if _, ok := base[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, inBase := base[name]
		c, inCur := cur[name]
		var failure string
		switch {
		case !inCur:
			failure = "in the baseline but not measured: a stale baseline, rewrite it with `make bench-seed`"
		case !inBase:
			failure = "measured but not in the baseline: adopt it with `make bench-seed`"
		case c > b:
			failure = fmt.Sprintf("%v -> %v: REGRESSION", b, c)
		case c < b:
			failure = fmt.Sprintf("%v -> %v: better than the baseline; take it with `make bench-seed` so the ratchet holds it", b, c)
		}
		status := "ok"
		if failure != "" {
			status = "DIFFERS"
			failures = append(failures, fmt.Sprintf("%s %q: %s", kind, name, failure))
		}
		bs, cs := fmt.Sprint(b), fmt.Sprint(c)
		if !inBase {
			bs = "-"
		}
		if !inCur {
			cs = "-"
		}
		rows = append(rows, fmt.Sprintf("  %-38s base=%-12s cur=%-12s %s", name, bs, cs, status))
	}
	return rows, failures
}

func main() {
	write := flag.Bool("write", false, "re-measure and rewrite the baseline file")
	path := flag.String("baseline", "BENCH_seed.json", "baseline file path")
	flag.Parse()

	allocs := measureAllocs()
	if err := measureStmtAllocs(allocs); err != nil {
		fmt.Fprintf(os.Stderr, "pdc-benchdiff: statement figures: %v\n", err)
		os.Exit(1)
	}
	modeled, err := measureModeled()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdc-benchdiff: modeled figures: %v\n", err)
		os.Exit(1)
	}

	if *write {
		bl := Baseline{Note: baselineNote, AllocsPerOp: allocs, ModeledNs: modeled}
		data, err := json.MarshalIndent(&bl, "", " ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdc-benchdiff: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pdc-benchdiff: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d allocs/op figures, %d modeled figures)\n", *path, len(allocs), len(modeled))
		return
	}

	data, err := os.ReadFile(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdc-benchdiff: read baseline: %v (run with -write to create it)\n", err)
		os.Exit(1)
	}
	var bl Baseline
	if err := json.Unmarshal(data, &bl); err != nil {
		fmt.Fprintf(os.Stderr, "pdc-benchdiff: parse baseline: %v\n", err)
		os.Exit(1)
	}

	rows, failures := compare("allocs/op", bl.AllocsPerOp, allocs)
	mrows, mfailures := compare("modeled-ns", bl.ModeledNs, modeled)
	rows, failures = append(rows, mrows...), append(failures, mfailures...)

	fmt.Printf("pdc-benchdiff vs %s (every figure must equal the baseline):\n", *path)
	for _, r := range rows {
		fmt.Println(r)
	}
	if len(failures) > 0 {
		fmt.Println("\ndifferences:")
		for _, r := range failures {
			fmt.Println("  " + r)
		}
		os.Exit(1)
	}
	fmt.Println("all figures equal the baseline")
}
