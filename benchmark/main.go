// The wall-clock PDC-Query benchmark: one generator process drives text
// statements through cluster.Session.RunText against 1 catalog + 2 real
// pdc-server members over loopback TCP, checks every answer against a
// brute-force oracle, and prints the end-to-end metrics (-trace 0) or
// the per-layer budget beneath them (-trace 1). README.md explains the
// workloads and metrics; run.sh is the one command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	server   string
	sessions int
	outDir   string
	stderr   io.Writer

	// What the named metrics mean depends on these, so they are
	// constants, not flags; only the smoke test shrinks them.
	logn   int // 2^logn particles
	setups int // deployments per untraced run; medians are reported
	rate   int // open-loop arrivals per second
}

const (
	members       = 2
	defaultLogN   = 21
	defaultSetups = 3
)

func main() {
	cfg := config{logn: defaultLogN, setups: defaultSetups, rate: mixedOpenRate}
	var trace int
	var aa bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the dataset, the statement literals, their order and arrival times")
	flag.IntVar(&cfg.seconds, "seconds", 12, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced window")
	flag.BoolVar(&aa, "aa", false, "run every workload twice on the same seed and compare (A/A)")
	flag.StringVar(&cfg.server, "server", "benchmark/bin/pdc-server", "pdc-server binary to spawn")
	flag.IntVar(&cfg.sessions, "sessions", 2, "client sessions in the generator (run.sh passes min(nproc, 2))")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for spans.jsonl")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.stderr = io.Discard
	if cfg.sessions < 1 || cfg.seconds < 1 {
		fail(2, "sessions and seconds must be at least 1")
	}

	// A signal must not leave pdc-server children holding ports: the
	// handler closes whichever fleet is alive, then exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		closeLiveFleet()
		os.Exit(130)
	}()

	if aa {
		os.Exit(runAA(cfg))
	}
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		fail(2, "unknown workload %q", cfg.workload)
	}
	res, err := runWorkload(cfg, spec)
	if err != nil {
		fail(1, "%s: %v", spec.name, err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(code int, format string, args ...any) {
	closeLiveFleet()
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// metricValue is one reported number; N is the sample count behind a
// timing (printed beside it, not part of the result line).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// result is the machine-readable outcome of one run: the last line of
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload string
	names    []string // print order
}

func (r *result) set(name string, v float64, n int) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("benchmark: metric " + name + " has no unit in metricUnits")
	}
	if _, dup := r.Metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

// print writes `workload name value unit [n=samples]` per metric, then
// the JSON result as the last line.
func (r *result) print(w io.Writer) {
	for _, name := range r.names {
		m := r.Metrics[name]
		line := fmt.Sprintf("%s %s %.6g %s", r.workload, name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		fmt.Fprintln(w, line)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// liveFleet is the one deployment alive at a time, so a signal or a
// fatal error can kill its processes.
var (
	liveMu    sync.Mutex
	liveFleet *fleet
)

func setLiveFleet(f *fleet) {
	liveMu.Lock()
	liveFleet = f
	liveMu.Unlock()
}

func closeLiveFleet() {
	liveMu.Lock()
	f := liveFleet
	liveFleet = nil
	liveMu.Unlock()
	if f != nil {
		f.close()
	}
}

// placementSeed parameterizes the catalog's consistent-hash placement.
// It is deployment configuration, not workload input, so it does not
// follow -seed: which member owns the few hot regions must not change
// from run to run.
const placementSeed = 42

// deployment is one fresh fleet holding the imported dataset, warmed
// and verified.
type deployment struct {
	src    *source
	fleet  *fleet
	run    *runner
	setupS float64
	// cold sums the exact counters of the cold pass; coldMs times it.
	cold   counters
	coldMs float64
}

func (d *deployment) close() {
	closeLiveFleet()
	d.src.close()
}

// inputs is everything the seed decides, made once per run.
type inputs struct {
	cols   map[string][]float32
	pool   []stmt
	truths []truth
}

// deploy sets up one deployment and warms it. setup_s times the
// harness-side import (regions, histograms, bitmap indexes), spawning
// the catalog and members, Session.Import, and the first statement
// answering correctly.
func deploy(cfg config, spec workloadSpec, in *inputs) (*deployment, error) {
	t0 := now()
	src, err := importSource(in.cols)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(cfg.server, members, cfg.sessions, placementSeed, cfg.stderr)
	if err != nil {
		src.close()
		return nil, fmt.Errorf("start fleet: %w", err)
	}
	setLiveFleet(f)
	d := &deployment{src: src, fleet: f}
	d.run = &runner{spec: spec, pool: in.pool, truths: in.truths, fleet: f, src: src}
	if err := f.importFrom(src); err != nil {
		d.close()
		return nil, fmt.Errorf("cluster import: %w", err)
	}
	check := func(k, i int) (*reply, error) {
		st := in.pool[i]
		rep, err := f.sessions[k].run(st.text, spec.force)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", st.text, err)
		}
		return rep, checkFull(in.cols, st, in.truths[i], rep)
	}
	if _, err := check(0, 0); err != nil {
		d.close()
		return nil, fmt.Errorf("first statement: %w", err)
	}
	d.setupS = float64(now()-t0) / 1e9

	// Cold pass: every distinct statement once, in pool order, on one
	// session, fully checked. Being sequential it is deterministic, so
	// its exact counters repeat bit for bit for one seed. Then one warm
	// pass per remaining session, which also connects it.
	t0 = now()
	for k := 0; k < cfg.sessions; k++ {
		for i := range in.pool {
			rep, err := check(k, i)
			if err != nil {
				d.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if k == 0 {
				d.cold.add(rep.stats)
			}
		}
		if k == 0 {
			d.coldMs = float64(now()-t0) / 1e6
		}
	}
	return d, nil
}

// window runs one measured window of durNs on the deployment.
func (d *deployment) window(cfg config, durNs int64, traced bool) window {
	r := d.run
	if r.spec.open {
		return r.openLoop(openSchedule(newRNG(cfg.seed, 2), r.pool, cfg.rate, durNs), cfg.sessions, traced)
	}
	return r.closedLoop(closedOrders(cfg.seed, len(r.pool), cfg.sessions), durNs, traced)
}

// runWorkload is one benchmark run: inputs from the seed, fresh
// deployments, the verified warm-up, then the window.
//
// With tracing off the run sets up cfg.setups deployments one after
// another and measures an equal share of the window on each; every
// end-to-end metric is the median over the deployments, which drops a
// deployment whose window caught a stall of the machine.
func runWorkload(cfg config, spec workloadSpec) (*result, error) {
	in := &inputs{cols: generateColumns(1<<cfg.logn, cfg.seed)}
	in.pool = spec.pool(newRNG(cfg.seed, 1))
	in.truths = oracleAll(in.cols, in.pool)
	res := &result{Correct: true, Metrics: make(map[string]metricValue), workload: spec.name}

	if cfg.trace {
		d, err := deploy(cfg, spec, in)
		if err != nil {
			return nil, err
		}
		defer d.close()
		return res, tracedRun(cfg, d, in, res)
	}

	durNs := int64(cfg.seconds) * 1e9 / int64(cfg.setups)
	var setupS, qps, p50, rss []float64
	for i := 0; i < cfg.setups; i++ {
		d, err := deploy(cfg, spec, in)
		if err != nil {
			return nil, err
		}
		w := d.window(cfg, durNs, false)
		procs, err := sampleChildren()
		d.close()
		if err != nil {
			return nil, err
		}
		if w.firstErr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: first error: %v\n", spec.name, w.firstErr)
		}
		e := w.reduce(durNs)
		res.Attempted += e.attempted
		res.Failed += e.failed
		setupS, qps, p50 = append(setupS, d.setupS), append(qps, e.qps), append(p50, e.p50)
		rss = append(rss, float64(sumHWM(procs))/1024)
		if e.backlog > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: backlog at window end %d (the frozen rate exceeds this build's capacity)\n", spec.name, e.backlog)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: deployment %d: setup_s %.3f qps %.1f p50_ms %.4f n=%d\n",
			spec.name, i, d.setupS, e.qps, e.p50, e.attempted-e.failed)
	}
	res.Correct = res.Failed == 0
	n := (res.Attempted - res.Failed) / cfg.setups
	res.set("setup_s", median(setupS), cfg.setups)
	res.set("qps", median(qps), n)
	res.set("p50_ms", median(p50), n)
	res.set("peak_rss_mb", median(rss), cfg.setups)
	return res, nil
}

// spansPath is where a traced run leaves its spans.
func spansPath(cfg config, workload string) string {
	return filepath.Join(cfg.outDir, workload+".spans.jsonl")
}
