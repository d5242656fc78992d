package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// cond is one range condition on a float32 column; ±Inf marks an open
// side. The generator builds statements from conds and renders the
// text itself, so the oracle never depends on the system's parser.
type cond struct {
	col            string
	lo, hi         float64
	loIncl, hiIncl bool
}

func open(col string, lo, hi float64) cond    { return cond{col: col, lo: lo, hi: hi} }
func between(col string, lo, hi float64) cond { return cond{col, lo, hi, true, true} }
func above(col string, lo float64) cond       { return cond{col: col, lo: lo, hi: inf, hiIncl: true} }

func (c cond) contains(v float64) bool {
	return (v > c.lo || (c.loIncl && v == c.lo)) && (v < c.hi || (c.hiIncl && v == c.hi))
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (c cond) render() string {
	switch {
	case c.loIncl && c.hiIncl && !math.IsInf(c.hi, 1):
		return fmt.Sprintf("%s between %s and %s", c.col, num(c.lo), num(c.hi))
	case math.IsInf(c.hi, 1):
		return fmt.Sprintf("%s > %s", c.col, num(c.lo))
	default:
		return fmt.Sprintf("%s > %s and %s < %s", c.col, num(c.lo), c.col, num(c.hi))
	}
}

type projection int

const (
	projCount projection = iota
	projIDs
	projHist
)

// stmt is one generated statement: its text and the structure the
// oracle evaluates.
type stmt struct {
	text     string
	class    string // point, window, hist, bulk
	proj     projection
	histCol  string
	histBins int
	conds    []cond
}

func newStmt(class string, proj projection, conds ...cond) stmt {
	s := stmt{class: class, proj: proj, conds: conds}
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.render()
	}
	head := "select count"
	if proj == projIDs {
		head = "select ids"
	}
	s.text = head + " where " + strings.Join(parts, " and ")
	return s
}

func newHistStmt(col string, bins int, conds ...cond) stmt {
	s := newStmt("hist", projHist, conds...)
	s.histCol, s.histBins = col, bins
	s.text = fmt.Sprintf("select hist(%s, %d)", col, bins) + strings.TrimPrefix(s.text, "select count")
	return s
}

// rng is splitmix64: the harness's only source of randomness, seeded
// from -seed, so one seed gives one byte-identical input stream.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int   { return int(r.next() % uint64(n)) }
func (r *rng) float64() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// grid rounds to the 0.01 literal grid so texts are short and stable.
func grid(v float64) float64 { return math.Round(v*100) / 100 }

// workloadSpec names one workload: its planner forcing, its loop
// discipline, and how its statement pool is drawn from the seed.
type workloadSpec struct {
	name  string
	why   string
	force int
	open  bool
	pool  func(r *rng) []stmt
}

// mixedOpenRate is the frozen arrival rate of mixed-open in statements
// per second. It was set once from a measurement on the reference
// 2-core machine (README, "How the mixed-open rate was frozen") and is
// never computed at run time: a faster build must not be handed more
// load.
const mixedOpenRate = 560

// sloNs is mixed-open's latency limit, counted from the due time.
const sloNs = 25e6

var workloads = []workloadSpec{
	{
		name:  "point-auto",
		why:   "16 narrow high-energy counts: fixed per-statement cost (qlang, plan, session, transport, sched, server prologue) dominates, exec does almost nothing",
		force: forceAuto,
		pool:  pointPool,
	},
	{
		name:  "window-scan",
		why:   "paper Fig. 3 windows + Fig. 4 conjuncts under ForceScan (PDC-H): histogram pruning, the exec scan kernel and the region cache do the work; bitindex and wah are idle",
		force: forceScan,
		pool:  windowPool,
	},
	{
		name:  "window-bitmap",
		why:   "the same statements under ForceBitmap (PDC-HI): bitindex directory select, wah decode and candidate checks do the work and the scan kernel is nearly idle",
		force: forceBitmap,
		pool:  windowPool,
	},
	{
		name:  "bulk-ids",
		why:   "select ids with 4-57% of 2M coordinates per reply: server merge/encode, selection encode/decode, transport framing and client merge dominate; the frontend is noise",
		force: forceAuto,
		pool:  bulkPool,
	},
	{
		name:  "mixed-open",
		why:   "open loop at a frozen Poisson rate over >500 distinct texts: waiting (sched, head-of-line blocking, plan-cache misses, hist projection) sets the result, not service time",
		force: forceAuto,
		open:  true,
		pool:  mixedPool,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// pointPool draws 16 distinct `select count where Energy between a and
// b` windows, 0.01-0.03 wide, from the high-energy tail where at most
// 0.01 % of particles match and only the current-sheet regions survive
// pruning. 16 < the 64-entry server plan cache.
func pointPool(r *rng) []stmt {
	return pointStmts(r, 16, 2.8, 3.4, 3)
}

func pointStmts(r *rng, n int, from, to float64, maxWidth int) []stmt {
	steps := int(math.Round((to - from) * 100))
	seen := make(map[string]bool)
	var out []stmt
	for len(out) < n {
		a := grid(from + 0.01*float64(r.intn(steps)))
		b := grid(a + 0.01*float64(1+r.intn(maxWidth)))
		s := newStmt("point", projCount, between("Energy", a, b))
		if !seen[s.text] {
			seen[s.text] = true
			out = append(out, s)
		}
	}
	return out
}

// windowPool is fixed by the paper: the fifteen Fig. 3 windows
// 2.1+0.1k < Energy < 2.2+0.1k and the six Fig. 4 conjuncts. The seed
// only orders them.
func windowPool(*rng) []stmt {
	var out []stmt
	for k := 0; k < 15; k++ {
		lo := math.Round((2.1+0.1*float64(k))*10) / 10
		hi := math.Round((lo+0.1)*10) / 10
		out = append(out, newStmt("window", projCount, open("Energy", lo, hi)))
	}
	for _, conds := range figure4Conjuncts() {
		out = append(out, newStmt("window", projCount, conds...))
	}
	return out
}

// bulkPool holds the four thresholds 0.1, 0.3, 0.6 and 1.0 (about 57 %,
// 24 %, 7 % and 4 % of the particles), with 0.3 twice: with four equal
// classes the median would sit on the gap between two of them and flip
// from run to run; five entries put p50 inside the 0.3 class and p95
// inside the 0.1 class.
func bulkPool(*rng) []stmt {
	var out []stmt
	for _, t := range []float64{0.1, 0.3, 0.3, 0.6, 1.0} {
		out = append(out, newStmt("bulk", projIDs, above("Energy", t)))
	}
	return out
}

// mixedPool is the open-loop mix's distinct statements; mixedSchedule
// draws arrivals over it by class weight.
func mixedPool(r *rng) []stmt {
	out := pointStmts(r, 560, 2.4, 3.6, 5)
	out = append(out, windowPool(r)...)
	seen := make(map[string]bool)
	for n := 0; n < 48; {
		s := newHistStmt("x", 32, above("Energy", grid(2.2+0.01*float64(r.intn(80)))))
		if !seen[s.text] {
			seen[s.text] = true
			out = append(out, s)
			n++
		}
	}
	for _, t := range []float64{0.6, 1.0} {
		out = append(out, newStmt("bulk", projIDs, above("Energy", t)))
	}
	return out
}

// mixedWeights is the arrival mix by class.
var mixedWeights = []struct {
	class string
	share float64
}{{"point", 0.70}, {"window", 0.20}, {"hist", 0.08}, {"bulk", 0.02}}

// arrival is one open-loop statement: when it is due (ns from window
// start) and which pool entry it is.
type arrival struct {
	dueNs int64
	stmt  int
}

// openSchedule draws rate*seconds arrivals: a Poisson process of that
// rate conditioned on its count (arrival times are then independent
// uniforms over the window), so every seed offers exactly the same
// number of statements and only their times, kinds and literals vary.
// Class counts are fixed to the mix shares for the same reason.
func openSchedule(r *rng, pool []stmt, rate int, durNs int64) []arrival {
	n := int(int64(rate) * durNs / 1e9)
	byClass := make(map[string][]int)
	for i, s := range pool {
		byClass[s.class] = append(byClass[s.class], i)
	}
	out := make([]arrival, 0, n)
	for ci, w := range mixedWeights {
		k := int(math.Round(w.share * float64(n)))
		if ci == len(mixedWeights)-1 {
			k = n - len(out)
		}
		members := byClass[w.class]
		for j := 0; j < k; j++ {
			out = append(out, arrival{stmt: members[r.intn(len(members))]})
		}
	}
	for i := range out {
		out[i].dueNs = int64(r.float64() * float64(durNs))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].dueNs < out[j].dueNs })
	return out
}

// closedOrders gives each closed-loop session its own seeded
// permutation of the pool, which it cycles through: every statement is
// sent equally often, so the mix does not drift from run to run.
func closedOrders(seed uint64, npool, nsessions int) [][]int {
	out := make([][]int, nsessions)
	for k := range out {
		out[k] = newRNG(seed, 100+uint64(k)).perm(npool)
	}
	return out
}
