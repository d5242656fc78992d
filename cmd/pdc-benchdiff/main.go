// Command pdc-benchdiff is the repository's performance ratchet: it
// measures a fixed set of deterministic figures — allocations per
// operation for the hot kernels the zero-alloc sweep pinned, for the
// import's bitmap-index build over one region, and for a whole warm
// statement (stmt.*: client, transport and members of an in-process
// cluster together), and modeled virtual-time query latencies
// from the Fig. 3 harness — and compares them against the committed
// baseline in BENCH_seed.json.
//
// Both figure families are deterministic by construction (AllocsPerRun
// over fixed inputs; virtual-clock times from the cost model), so the
// gate runs in CI without noise margins for machine speed. It fails when
// an allocs/op figure regresses by more than 10% (any allocation at all
// for figures pinned at zero) or a modeled latency regresses by more
// than 15%.
//
// Usage:
//
//	pdc-benchdiff            compare against BENCH_seed.json, exit 1 on regression
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
	"pdcquery/internal/object"
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

const (
	// allocSlack tolerates a 10% allocs/op increase; a zero baseline
	// tolerates nothing (those kernels are pinned allocation-free).
	allocSlack = 1.10
	// timeSlack tolerates a 15% modeled wall-clock increase.
	timeSlack = 1.15

	baselineNote = "deterministic perf baseline; regenerate with `make bench-seed` (go run ./cmd/pdc-benchdiff -write)"
)

// measureAllocs runs the pinned hot kernels under testing.AllocsPerRun
// with warm, pre-sized buffers — the steady-state regime the hotalloc
// budget and the zero-alloc tests describe.
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
	out["bitindex.build.warm"] = testing.AllocsPerRun(20, func() {
		bitindex.Build(dtype.Float32, energy, bitindex.DefaultPrecision)
	})

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

// measureStmtAllocs counts the whole process's heap allocations per warm
// statement: Session.RunText on a two-member cluster.Local (R=2, 4
// workers per member) over 2^18 VPIC particles in 8 KiB regions — 128
// regions per object, the benchmark's decomposition — client, transport
// and both members included.
func measureStmtAllocs(out map[string]float64) error {
	const particles = 1 << 18
	src := core.NewDeployment(core.Options{Servers: 1, RegionBytes: 8 << 10, BuildIndex: true})
	defer src.Close()
	c := src.CreateContainer("stmt-allocs")
	v := workload.GenerateVPIC(particles, 41)
	for _, name := range workload.VPICNames {
		if _, err := src.ImportObject(c.ID, object.Property{
			Name: name, Type: dtype.Float32, Dims: []uint64{particles},
		}, dtype.Bytes(v.Vars[name])); err != nil {
			return fmt.Errorf("import %s: %w", name, err)
		}
	}
	l, err := cluster.StartLocal(cluster.LocalOptions{Members: 2, R: 2, Seed: 41, Workers: 4})
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
		var runErr error
		run := func() {
			if _, err := s.RunText(st.text, plan.ForceAuto); err != nil {
				runErr = err
			}
		}
		for range 20 {
			run() // warm the plan caches, region caches and pools
		}
		out[st.name] = testing.AllocsPerRun(100, run)
		if runErr != nil {
			return fmt.Errorf("%s: %w", st.name, runErr)
		}
	}
	return nil
}

// measureModeled runs the Fig. 3 harness at a small fixed scale and sums
// the modeled (virtual-clock) query time per approach. Virtual time is
// deterministic, so these figures catch cost-model and evaluation-path
// regressions without benchmark noise.
func measureModeled() (map[string]int64, error) {
	rows, err := bench.Fig3Run(bench.Config{LogN: 16, Servers: 4, Seed: 42, RegionSteps: 1})
	if err != nil {
		return nil, err
	}
	sums := map[string]time.Duration{}
	for _, r := range rows {
		for _, ap := range bench.Approaches {
			sums[ap] += r.QueryTime[ap]
		}
	}
	out := make(map[string]int64, len(sums))
	for ap, d := range sums {
		out["fig3.logn16."+ap] = int64(d)
	}

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
	return out, nil
}

// compare checks cur against base under the given slack factor (zero
// baselines tolerate nothing) and returns formatted table rows plus the
// regressions found. Figures present in only one side are regressions
// too: the baseline must be regenerated deliberately, not drift.
func compare[N int64 | float64](kind string, base, cur map[string]N, slack float64, rows *[]string, regressions *[]string) {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			*regressions = append(*regressions, fmt.Sprintf("%s %q: in baseline but not measured (stale baseline? run -write)", kind, name))
			continue
		}
		limit := N(float64(b) * slack)
		status := "ok"
		if float64(c) > float64(limit)+1e-9 {
			status = "REGRESSION"
			*regressions = append(*regressions, fmt.Sprintf("%s %q: %v -> %v (limit %v)", kind, name, b, c, limit))
		}
		*rows = append(*rows, fmt.Sprintf("  %-38s base=%-12v cur=%-12v %s", name, b, c, status))
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			*regressions = append(*regressions, fmt.Sprintf("%s %q: measured but missing from baseline (run -write to adopt it)", kind, name))
		}
	}
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

	var rows, regressions []string
	compare("allocs/op", bl.AllocsPerOp, allocs, allocSlack, &rows, &regressions)
	compare("modeled-ns", bl.ModeledNs, modeled, timeSlack, &rows, &regressions)

	fmt.Printf("pdc-benchdiff vs %s (allocs slack %+.0f%%, modeled slack %+.0f%%):\n",
		*path, (allocSlack-1)*100, (timeSlack-1)*100)
	for _, r := range rows {
		fmt.Println(r)
	}
	if len(regressions) > 0 {
		fmt.Println("\nregressions:")
		for _, r := range regressions {
			fmt.Println("  " + r)
		}
		os.Exit(1)
	}
	fmt.Println("all figures within budget")
}
