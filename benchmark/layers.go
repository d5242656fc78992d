package main

import (
	"fmt"
	"os"
)

// metricUnits names every metric the benchmark prints, with its unit.
// BENCHMARK.json lists the same names; TestManifest holds the two
// together.
var metricUnits = map[string]string{
	// end to end (-trace 0)
	"setup_s":     "s",
	"qps":         "1/s",
	"p50_ms":      "ms",
	"peak_rss_mb": "MB",

	// per layer (-trace 1)
	"fail_frac":                       "ratio",
	"slo_miss_frac":                   "ratio",
	"qlang.parse_us":                  "us",
	"plan.build_us":                   "us",
	"histogram.prune_us":              "us",
	"transport.rtt_us":                "us",
	"transport.frame_mb_s":            "MB/s",
	"server.queue_wait_us":            "us",
	"server.prune_us":                 "us",
	"server.region_exec_us":           "us",
	"server.merge_us":                 "us",
	"server.encode_us":                "us",
	"sched.queue_wait_us":             "us",
	"sched.queue_hiwater":             "count",
	"exec.elems_scanned_per_stmt":     "count",
	"exec.regions_evaluated_per_stmt": "count",
	"exec.regions_pruned_frac":        "ratio",
	"exec.cand_checks_per_stmt":       "count",
	"exec.storage_bytes_per_stmt":     "B",
	"exec.cache_hit_frac":             "ratio",
	"exec.cold_pass_ms":               "ms",
	"exec.region_exec_ns_per_elem":    "ns",
	"exec.scan_ceiling_frac":          "ratio",
	"bitindex.bins_read_per_stmt":     "count",
	"bitindex.bytes_read_per_stmt":    "B",
	"bitindex.probes_per_stmt":        "count",
	"bitindex.evaluate_us":            "us",
	"wah.to_indices_ns_per_hit":       "ns",
	"selection.encode_ns_per_hit":     "ns",
	"selection.decode_ns_per_hit":     "ns",
	"selection.merge_ns_per_hit":      "ns",
	"selection.bytes_per_stmt":        "B",
	"client.mean_ms":                  "ms",
	"client.p95_ms":                   "ms",
	"client.p99_ms":                   "ms",
	"client.residual_us":              "us",
	"budget.residual_frac":            "ratio",
	"proc.member_cpu_ms_per_stmt":     "ms",
	"proc.gen_cpu_frac":               "ratio",
	"runtime.alloc_kb_per_stmt":       "KB",
	"runtime.gc_cycles":               "count",
	"vclock.modeled_over_wall":        "ratio",
	"gen.lag_ms":                      "ms",
	"gen.backlog_at_end":              "count",
	"trace.overhead_frac":             "ratio",
}

// replayBudgetNs is how long each replayed layer loops: long enough
// for a stable mean, short enough that the whole replay is ~1 s.
const replayBudgetNs = 100e6

// meanUs sizes fn's loop to fill replayBudgetNs from one trial round,
// runs it, and returns microseconds per operation.
func meanUs(fn func(rounds int) (ns int64, ops int, err error)) (float64, error) {
	ns, _, err := fn(1)
	if err != nil {
		return 0, err
	}
	ns, ops, err := fn(max(1, int(replayBudgetNs/max(ns, 1))))
	return ratio(float64(ns), float64(ops)) / 1e3, err
}

// sumSeries adds one series over the members' deltas.
func sumSeries(deltas []series, name string) (total float64) {
	for _, d := range deltas {
		total += d[name]
	}
	return total
}

// maxPerQueryUs is the largest per-member Δsum/Δcount, in microseconds.
func maxPerQueryUs(deltas []series, sumName, countName string) (us float64) {
	for _, d := range deltas {
		if v := ratio(d[sumName], d[countName]) / 1e3; v > us {
			us = v
		}
	}
	return us
}

// tracedRun is the -trace 1 half of a run: an untraced reference
// window, the traced window between two /metrics scrapes, the
// in-process layer replay, and the per-layer metrics.
func tracedRun(cfg config, d *deployment, in *inputs, res *result) error {
	run, cols, cold, coldMs := d.run, in.cols, d.cold, d.coldMs
	spec, pool := run.spec, run.pool
	addrs := run.fleet.metricsAddrs()
	// A third of the measured time is the untraced reference the
	// tracing overhead is taken against; the rest is the traced window.
	refNs := int64(cfg.seconds) * 1e9 / 3
	durNs := int64(cfg.seconds)*1e9 - refNs

	ref := d.window(cfg, refNs, false)
	refE := ref.reduce(refNs)

	before, err := scrapeAll(addrs)
	if err != nil {
		return err
	}
	kidsBefore, err := sampleChildren()
	if err != nil {
		return err
	}
	selfBefore, err := sampleSelf()
	if err != nil {
		return err
	}
	w := d.window(cfg, durNs, true)
	selfAfter, err := sampleSelf()
	if err != nil {
		return err
	}
	kidsAfter, err := sampleChildren()
	if err != nil {
		return err
	}
	after, err := scrapeAll(addrs)
	if err != nil {
		return err
	}
	if w.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first error: %v\n", spec.name, w.firstErr)
	}
	deltas := make([]series, len(after))
	for i := range after {
		deltas[i] = delta(before[i], after[i])
	}
	e := w.reduce(durNs)
	stmts := float64(e.attempted)
	res.Attempted, res.Failed, res.Correct = e.attempted, e.failed, e.failed == 0 && refE.failed == 0

	// Window sums from the replies themselves.
	var win counters
	var modeledNs, wallNs, selBytes float64
	for _, s := range w.samples {
		if !s.ok {
			continue
		}
		win.add(s.stats)
		modeledNs += float64(s.modeledNs)
		wallNs += float64(s.doneNs - s.sentNs)
		selBytes += float64(s.selBytes)
	}
	good := float64(e.attempted - e.failed)
	selBytesPerStmt := ratio(selBytes, good)

	// --- replay: each layer's public functions on this workload's own
	// statements, as child spans of one "replay" root.
	tr := newTracer(cfg.sessions)
	root := tr.begin("replay", 0, 0)
	rootID := tr.id(root)
	replay := func(name string, fn func() error) error {
		i := tr.begin("replay."+name, rootID, rootID)
		err := fn()
		tr.end(i)
		return err
	}

	texts := make([]string, len(pool))
	for i, st := range pool {
		texts[i] = st.text
	}
	var parseUs, planUs, pruneUs, rttUs, frameMBs, bitEvalUs, toIdxNsPerHit float64
	var encPerHit, decPerHit, mergePerHit, ceilingNsPerElem float64
	steps := []struct {
		name string
		fn   func() error
	}{
		{"qlang.parse", func() (err error) {
			parseUs, err = meanUs(func(r int) (int64, int, error) { return run.src.replayParse(texts, r) })
			return err
		}},
		{"plan.build", func() (err error) {
			planUs, err = meanUs(func(r int) (int64, int, error) { return run.src.replayPlan(texts, spec.force, r) })
			return err
		}},
		{"histogram.prune", func() (err error) {
			pruneUs, err = meanUs(func(r int) (int64, int, error) { return run.src.replayPrune(pool, r) })
			return err
		}},
		{"transport.rtt", func() error {
			const rounds = 2000
			ns, err := replayRTT(rounds)
			rttUs = float64(ns) / rounds / 1e3
			return err
		}},
		{"transport.frame", func() error {
			// One member's share of the workload's mean reply.
			payload := int(selBytesPerStmt) / members
			if payload < 64 {
				payload = 64
			}
			rounds := 1 + (64<<20)/payload
			if rounds > 2000 {
				rounds = 2000
			}
			ns, err := replayFrame(payload, rounds)
			frameMBs = ratio(float64(payload)*float64(rounds)/1e6, float64(ns)/1e9)
			return err
		}},
		{"bitindex.evaluate", func() error {
			ivs := energyConds(pool, 32)
			evalNs, evals, toIdxNs, hits, err := run.src.replayBitmap("Energy", ivs, 8)
			bitEvalUs = ratio(float64(evalNs), float64(evals)) / 1e3
			toIdxNsPerHit = ratio(float64(toIdxNs), float64(hits))
			return err
		}},
		{"selection", func() error {
			// The result path on what the workload's replies carry:
			// the coordinates of its ids statements (none on a
			// count-only workload, where the layer is idle).
			var enc, dec, mrg, hits float64
			seen := make(map[string]bool)
			for i, st := range pool {
				if st.proj != projIDs || seen[st.text] {
					continue
				}
				seen[st.text] = true
				coords := run.truths[i].coords
				e, d, m, _, err := replaySelection(coords, []uint64{uint64(len(cols["Energy"]))}, 2)
				if err != nil {
					return err
				}
				enc, dec, mrg, hits = enc+float64(e), dec+float64(d), mrg+float64(m), hits+2*float64(len(coords))
			}
			encPerHit, decPerHit, mergePerHit = ratio(enc, hits), ratio(dec, hits), ratio(mrg, hits)
			return nil
		}},
		{"scan.ceiling", func() error {
			ceilingNsPerElem = scanCeiling(cols["Energy"], energyConds(pool, 8))
			return nil
		}},
	}
	for _, s := range steps {
		if err := replay(s.name, s.fn); err != nil {
			return fmt.Errorf("replay %s: %w", s.name, err)
		}
	}
	tr.end(root)

	spans := append(w.spans, tr.spans...)
	selfTimes(spans)
	if err := writeSpans(spansPath(cfg, spec.name), spans, deltas); err != nil {
		return err
	}
	means := meanByName(w.spans)

	// --- the metrics.
	res.set("fail_frac", ratio(float64(e.failed+refE.failed), float64(e.attempted+refE.attempted)), e.attempted+refE.attempted)
	res.set("slo_miss_frac", e.sloMiss, e.attempted)
	res.set("qlang.parse_us", parseUs, 0)
	res.set("plan.build_us", planUs, 0)
	res.set("histogram.prune_us", pruneUs, 0)
	res.set("transport.rtt_us", rttUs, 0)
	res.set("transport.frame_mb_s", frameMBs, 0)

	queueUs := maxPerQueryUs(deltas, "phase_queue_wait_ns_sum", "query_count")
	pruneSrvUs := maxPerQueryUs(deltas, "phase_prune_ns_sum", "query_count")
	execUs := maxPerQueryUs(deltas, "phase_region_exec_ns_sum", "query_count")
	mergeUs := maxPerQueryUs(deltas, "phase_merge_ns_sum", "query_count")
	encodeUs := maxPerQueryUs(deltas, "phase_encode_ns_sum", "query_count")
	res.set("server.queue_wait_us", queueUs, 0)
	res.set("server.prune_us", pruneSrvUs, 0)
	res.set("server.region_exec_us", execUs, 0)
	res.set("server.merge_us", mergeUs, 0)
	res.set("server.encode_us", encodeUs, 0)
	res.set("sched.queue_wait_us", maxPerQueryUs(deltas, "sched_queue_wait_ns_sum", "sched_queue_wait_ns_count"), 0)
	var hiwater float64
	for _, a := range after {
		if v := a["sched_queue_hiwater"]; v > hiwater {
			hiwater = v
		}
	}
	res.set("sched.queue_hiwater", hiwater, 0)

	// Exact counts come from the cold pass (every distinct statement
	// once, sequentially), so they repeat bit for bit for one seed.
	np := float64(len(pool))
	res.set("exec.elems_scanned_per_stmt", float64(cold.elemsScanned)/np, len(pool))
	res.set("exec.regions_evaluated_per_stmt", float64(cold.regionsEvaluated)/np, len(pool))
	res.set("exec.regions_pruned_frac", ratio(float64(cold.regionsPruned), float64(cold.regionsPruned+cold.regionsEvaluated)), len(pool))
	res.set("exec.cand_checks_per_stmt", float64(cold.candChecks)/np, len(pool))
	res.set("exec.storage_bytes_per_stmt", float64(cold.storageBytes)/np, len(pool))
	hits, misses := sumSeries(deltas, "cache_hits"), sumSeries(deltas, "cache_misses")
	res.set("exec.cache_hit_frac", ratio(hits, hits+misses), 0)
	res.set("exec.cold_pass_ms", coldMs, len(pool))
	execNsPerElem := ratio(sumSeries(deltas, "phase_region_exec_ns_sum"), float64(win.elemsScanned))
	res.set("exec.region_exec_ns_per_elem", execNsPerElem, 0)
	res.set("exec.scan_ceiling_frac", ratio(ceilingNsPerElem, execNsPerElem), 0)
	res.set("bitindex.bins_read_per_stmt", float64(cold.indexBins)/np, len(pool))
	res.set("bitindex.bytes_read_per_stmt", float64(cold.indexBytes)/np, len(pool))
	res.set("bitindex.probes_per_stmt", float64(cold.probes)/np, len(pool))
	res.set("bitindex.evaluate_us", bitEvalUs, 0)
	res.set("wah.to_indices_ns_per_hit", toIdxNsPerHit, 0)
	res.set("selection.encode_ns_per_hit", encPerHit, 0)
	res.set("selection.decode_ns_per_hit", decPerHit, 0)
	res.set("selection.merge_ns_per_hit", mergePerHit, 0)
	res.set("selection.bytes_per_stmt", selBytesPerStmt, int(good))

	// The budget: what of a statement's mean wall time inside
	// Session.RunText the visible layers explain.
	hitsPerStmt := ratio(selBytes/8, good) // coordinates moved per statement
	callUs := means["session.call"] / 1e3
	serverUs := queueUs + pruneSrvUs + execUs + mergeUs + encodeUs
	clientUs := parseUs + planUs + rttUs + hitsPerStmt*(decPerHit+mergePerHit)/1e3
	residualUs := callUs - serverUs - clientUs
	res.set("client.mean_ms", e.meanMs, int(good))
	res.set("client.p95_ms", e.p95, int(good))
	if beyond := samplesBeyond(int(good), 0.95); beyond < 10 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: client.p95_ms rests on %d samples beyond it (want 10)\n", spec.name, beyond)
	}
	res.set("client.p99_ms", e.p99, int(good))
	res.set("client.residual_us", residualUs, 0)
	res.set("budget.residual_frac", ratio(residualUs, callUs), 0)

	kidTicks := float64(sumCPU(kidsAfter) - sumCPU(kidsBefore))
	selfTicks := float64(selfAfter.cpuTick - selfBefore.cpuTick)
	res.set("proc.member_cpu_ms_per_stmt", ratio(kidTicks*1000/clockTick, stmts), e.attempted)
	res.set("proc.gen_cpu_frac", ratio(selfTicks, selfTicks+kidTicks), 0)
	res.set("runtime.alloc_kb_per_stmt", ratio(sumSeries(deltas, "runtime_alloc_bytes_total")/1024, stmts), e.attempted)
	res.set("runtime.gc_cycles", sumSeries(deltas, "runtime_gc_cycles"), 0)
	res.set("vclock.modeled_over_wall", ratio(modeledNs, wallNs), int(good))
	res.set("gen.lag_ms", e.lagP95Ms, int(good))
	res.set("gen.backlog_at_end", float64(e.backlog), 0)
	res.set("trace.overhead_frac", 1-ratio(e.qps, refE.qps), 0)
	return nil
}

// energyConds collects up to max distinct Energy conditions of the
// pool, in pool order.
func energyConds(pool []stmt, max int) []cond {
	var out []cond
	seen := make(map[cond]bool)
	for _, st := range pool {
		for _, c := range st.conds {
			if c.col == "Energy" && !seen[c] && len(out) < max {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// scanCeiling is the machine ceiling for the scan kernel: a plain for
// over the same float32 values with the same bounds, in the same run.
// Returns nanoseconds per element.
func scanCeiling(v []float32, ivs []cond) float64 {
	var hits int
	t0 := now()
	for _, c := range ivs {
		lo, hi := float32(c.lo), float32(c.hi)
		for _, x := range v {
			if x > lo && x < hi {
				hits++
			}
		}
	}
	ns := now() - t0
	scanSink = hits
	return ratio(float64(ns), float64(len(v)*len(ivs)))
}

// scanSink keeps the ceiling loop's result alive.
var scanSink int
