package main

import (
	"sync"
	"sync/atomic"
)

// sample is one statement the generator sent in a window.
type sample struct {
	stmt      int
	dueNs     int64 // when it was due (closed loop: when it was sent)
	sentNs    int64
	doneNs    int64
	ok        bool
	stats     counters
	modeledNs int64
	selBytes  int64
}

// window is everything one measured window produced.
type window struct {
	startNs, endNs int64
	samples        []sample
	spans          []span
	firstErr       error
}

// runner sends statements for one workload against one fleet.
type runner struct {
	spec   workloadSpec
	pool   []stmt
	truths []truth
	fleet  *fleet
	src    *source // traced windows call the frontend layers on it
}

// one sends statement i on session k and checks the reply's hit count
// against the verified value: a wrong answer, a typed error or a
// refusal all count as failed. With a tracer it records the root span
// and the child spans around the harness's own calls.
func (r *runner) one(k, i int, dueNs int64, tr *tracer) (sample, error) {
	st := r.pool[i]
	s := sample{stmt: i, dueNs: dueNs}
	var root, child int
	var rootID uint64
	if tr != nil {
		root = tr.begin("stmt", 0, 0)
		rootID = tr.id(root)
		tr.spans[root].Stmt = st.text
		child = tr.begin("parse", rootID, rootID)
		low, err := r.src.parseLower(st.text)
		tr.end(child)
		if err != nil {
			return s, err
		}
		child = tr.begin("plan", rootID, rootID)
		err = r.src.buildPlan(low, r.spec.force)
		tr.end(child)
		if err != nil {
			return s, err
		}
		child = tr.begin("session.call", rootID, rootID)
	}
	s.sentNs = now()
	if dueNs == 0 {
		s.dueNs = s.sentNs
	}
	rep, err := r.fleet.sessions[k].run(st.text, r.spec.force)
	s.doneNs = now()
	if tr != nil {
		tr.spans[child].EndNs = s.doneNs
	}
	if err == nil {
		s.ok = rep.nhits == r.truths[i].nhits
		s.stats, s.modeledNs = rep.stats, rep.modeledNs
		s.selBytes = selectionBytes(rep)
		if tr != nil {
			child = tr.begin("decode+merge", rootID, rootID)
			err = decodeMerge(rep)
			tr.end(child)
		}
	}
	if tr != nil {
		tr.end(root)
	}
	return s, err
}

// lanes runs body once per session, each on its own goroutine with its
// own sample list and (when traced) tracer, and gathers the window.
// body calls send for every statement it issues on its session.
func (r *runner) lanes(nsessions int, traced bool, body func(k int, startNs int64, send func(i int, dueNs int64))) window {
	var w window
	lanes := make([]window, nsessions)
	var wg sync.WaitGroup
	w.startNs = now()
	for k := 0; k < nsessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lane := &lanes[k]
			var tr *tracer
			if traced {
				tr = newTracer(k)
			}
			body(k, w.startNs, func(i int, dueNs int64) {
				s, err := r.one(k, i, dueNs, tr)
				if err != nil && lane.firstErr == nil {
					lane.firstErr = err
				}
				lane.samples = append(lane.samples, s)
			})
			if tr != nil {
				lane.spans = tr.spans
			}
		}(k)
	}
	wg.Wait()
	w.endNs = now()
	for _, l := range lanes {
		w.samples = append(w.samples, l.samples...)
		w.spans = append(w.spans, l.spans...)
		if w.firstErr == nil {
			w.firstErr = l.firstErr
		}
	}
	return w
}

// closedLoop runs one caller per session that sends its next statement
// only after the previous one completed, cycling through its seeded
// order until the window closes.
func (r *runner) closedLoop(orders [][]int, durNs int64, traced bool) window {
	return r.lanes(len(orders), traced, func(k int, startNs int64, send func(i int, dueNs int64)) {
		order := orders[k]
		for n := 0; now() < startNs+durNs; n++ {
			send(order[n%len(order)], 0)
		}
	})
}

// openLoop sends the schedule's arrivals at their due times whatever
// the system does: each free session takes the next arrival in due
// order and waits for its time if early. Latency later runs from the
// due time, so time spent queued in the generator behind a slow reply
// is counted.
func (r *runner) openLoop(sched []arrival, nsessions int, traced bool) window {
	var next atomic.Int64
	return r.lanes(nsessions, traced, func(k int, startNs int64, send func(i int, dueNs int64)) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(sched) {
				return
			}
			due := startNs + sched[i].dueNs
			sleepUntil(due)
			send(sched[i].stmt, due)
		}
	})
}

// e2e reduces a window to the end-to-end numbers.
type e2e struct {
	attempted, failed int
	qps               float64
	p50, p95, p99     float64 // ms
	meanMs            float64
	sloMiss           float64
	lagP95Ms          float64
	backlog           int // open loop: due inside the window, not yet sent when it closed
}

func (w *window) reduce(windowNs int64) e2e {
	var out e2e
	var lat, lag []float64
	for _, s := range w.samples {
		out.attempted++
		if !s.ok {
			out.failed++
			out.sloMiss++
			continue
		}
		l := float64(s.doneNs-s.dueNs) / 1e6
		lat = append(lat, l)
		lag = append(lag, float64(s.sentNs-s.dueNs)/1e6)
		if s.doneNs-s.dueNs > sloNs {
			out.sloMiss++
		}
		if s.dueNs < w.startNs+windowNs && s.sentNs > w.startNs+windowNs {
			out.backlog++
		}
	}
	lat = sortedCopy(lat)
	out.qps = float64(len(lat)) / (float64(w.endNs-w.startNs) / 1e9)
	out.p50, out.p95, out.p99 = percentile(lat, 0.50), percentile(lat, 0.95), percentile(lat, 0.99)
	out.meanMs = mean(lat)
	out.sloMiss = ratio(out.sloMiss, float64(out.attempted))
	out.lagP95Ms = percentile(sortedCopy(lag), 0.95)
	return out
}
