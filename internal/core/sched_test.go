package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/sched"
	"pdcquery/internal/selection"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/workload"
)

// TestWorkerCountDeterminism pins the scheduler's core contract: the
// merged selection bytes, the modeled costs, and the rendered traces of
// a query batch are identical whether the engine runs serially
// (Workers 0) or region-parallel with 1, 4, or 16 workers.
func TestWorkerCountDeterminism(t *testing.T) {
	for _, strat := range []plan.Force{plan.ForceScan, plan.ForceSorted} {
		t.Run(strat.String(), func(t *testing.T) {
			type outcome struct {
				sel    []byte
				total  time.Duration
				traces []string
			}
			run := func(workers int) outcome {
				d, ids := vpicDeployment(t, 30000, Options{
					Servers: 4, RegionBytes: 8 << 10,
					BuildIndex: true, Workers: workers,
				}, strat)
				var o outcome
				for _, q := range workload.SingleObjectQueries(ids["Energy"])[:4] {
					res, err := d.Client().Do(context.Background(), client.Prepared(q, qlang.ProjIDs), client.Options{Force: strat, Trace: true})
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					o.sel = append(o.sel, res.Sel.Encode()...)
					o.total += res.Info.Elapsed.Total()
					o.traces = append(o.traces, res.Trace().Render(false))
				}
				return o
			}
			base := run(0)
			for _, workers := range []int{1, 4, 16} {
				got := run(workers)
				if !bytes.Equal(got.sel, base.sel) {
					t.Errorf("workers=%d: selection bytes differ from serial run", workers)
				}
				if got.total != base.total {
					t.Errorf("workers=%d: elapsed %v, serial %v", workers, got.total, base.total)
				}
				for i := range base.traces {
					if got.traces[i] != base.traces[i] {
						t.Errorf("workers=%d: trace %d differs from serial run:\n--- serial\n%s\n--- parallel\n%s",
							workers, i, base.traces[i], got.traces[i])
					}
				}
			}
		})
	}
}

// TestPrunedByIsDeterministic: a region that more than one condition of
// a conjunct prunes is attributed to the first of them in plan order, so
// a traced statement whose every region both conditions prune renders
// the same span bytes on every run (the attribution once came from
// ranging over the conjunct's map).
func TestPrunedByIsDeterministic(t *testing.T) {
	d, _ := vpicDeployment(t, 30000, Options{Servers: 2, RegionBytes: 8 << 10, Workers: 4})
	const text = "select count where Energy between 1000 and 2000 and x between 1e9 and 2e9"
	var first []byte
	for run := 0; run < 50; run++ {
		res, err := d.Client().Do(context.Background(), client.Text(text), client.Options{Force: plan.ForceScan, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		var enc []byte
		pruned := 0
		for _, s := range res.Traces {
			s.Trace = 0 // the request ID, which differs per run
			enc = append(enc, s.Encode(false)...)
			pruned += strings.Count(s.Render(false), telemetry.DecisionHistogramPruned)
		}
		if run == 0 {
			if pruned == 0 {
				t.Fatalf("no region was histogram-pruned; the statement shows nothing:\n%s", res.Trace().Render(false))
			}
			first = enc
			continue
		}
		if !bytes.Equal(enc, first) {
			t.Fatalf("run %d: span bytes differ from run 0:\n%s", run, res.Trace().Render(false))
		}
	}
}

// extraSession dials a second client into a running deployment: one new
// pipe per server, each served by its own Serve loop, exactly how the
// deployment wires its primary client.
func extraSession(t *testing.T, d *Deployment) *client.Client {
	t.Helper()
	srvs := d.Servers()
	conns := make([]transport.Conn, len(srvs))
	var wg sync.WaitGroup
	for i, srv := range srvs {
		clientSide, serverSide := transport.Pipe()
		conns[i] = clientSide
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Serve(serverSide)
			serverSide.Close()
		}()
	}
	cl := client.New(conns, d.Meta())
	t.Cleanup(func() {
		cl.Close()
		wg.Wait()
	})
	return cl
}

// TestConcurrentSessionsStress runs several client sessions, each with
// many in-flight queries, against a region-parallel deployment and
// checks every result against the brute-force oracle. Run under -race
// (the Makefile's stress target) this exercises the scheduler's
// session/dispatcher/writer interleavings.
func TestConcurrentSessionsStress(t *testing.T) {
	d, ids := vpicDeployment(t, 20000, Options{
		Servers: 2, RegionBytes: 8 << 10, Workers: 4,
	})
	qs := workload.SingleObjectQueries(ids["Energy"])
	truths := make([]*selection.Selection, len(qs))
	for i, q := range qs {
		truth, err := d.GroundTruth(q)
		if err != nil {
			t.Fatal(err)
		}
		truths[i] = truth
	}

	clients := []*client.Client{d.Client()}
	for len(clients) < 3 {
		clients = append(clients, extraSession(t, d))
	}

	const inflight = 8
	var wg sync.WaitGroup
	errCh := make(chan error, len(clients)*inflight)
	for ci, cl := range clients {
		for m := 0; m < inflight; m++ {
			idx := (ci*inflight + m) % len(qs)
			wg.Add(1)
			go func(cl *client.Client, idx int) {
				defer wg.Done()
				res, err := cl.Run(qs[idx], plan.ForceScan)
				if err != nil {
					errCh <- err
					return
				}
				want := truths[idx]
				if res.Sel.NHits != want.NHits {
					errCh <- errors.New("hit count diverged from oracle")
					return
				}
				for i := range want.Coords {
					if res.Sel.Coords[i] != want.Coords[i] {
						errCh <- errors.New("coords diverged from oracle")
						return
					}
				}
			}(cl, idx)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestOverloadBusyReplies drives a single-worker, depth-1 deployment far
// past its admission bound: the server must push back with busy replies
// (never silently drop a request), and the client's backoff must let at
// least part of the burst complete with oracle-correct results.
func TestOverloadBusyReplies(t *testing.T) {
	// Large enough that one full scan outlasts the burst's arrival even
	// on a loaded machine: at 20000 elements a slow-starting burst could
	// be served one by one and never meet a full queue.
	d, ids := vpicDeployment(t, 200000, Options{
		Servers: 1, RegionBytes: 8 << 10,
		Workers: 1, QueueDepth: 1,
	}, plan.ForceFull)
	cl := d.Client()
	// Pace retries in real time so the burst is not a pure spin loop.
	cl.SetSleeper(telemetry.WallSleep)
	q := &query.Query{Root: query.Leaf(ids["Energy"], query.OpGT, 1.0)}
	truth, err := d.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}

	const burst = 24
	futures := make([]*client.Future, burst)
	for i := range futures {
		futures[i] = cl.DoAsync(context.Background(), client.Prepared(q, qlang.ProjIDs), client.Options{Force: plan.ForceFull})
	}
	var completed, rejectedAfterRetries int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, f := range futures {
			res, err := f.Wait()
			switch {
			case err == nil:
				completed++
				if res.Sel.NHits != truth.NHits {
					t.Errorf("overloaded query: %d hits, want %d", res.Sel.NHits, truth.NHits)
				}
			case errors.Is(err, sched.ErrBusy):
				// Retry budget exhausted: an explicit, typed outcome —
				// still a reply, not a drop.
				rejectedAfterRetries++
			default:
				t.Errorf("overloaded query failed with non-busy error: %v", err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("burst did not drain: replies were dropped or a request hung")
	}
	if completed == 0 {
		t.Error("no queries completed under overload")
	}
	if completed+rejectedAfterRetries != burst {
		t.Errorf("%d completed + %d busy != %d issued", completed, rejectedAfterRetries, burst)
	}
	if rejected := d.Servers()[0].Metrics().Counter("sched.rejected"); rejected == 0 {
		t.Error("admission control never rejected: overload was not exercised")
	}
	t.Logf("burst=%d completed=%d busy-after-retries=%d", burst, completed, rejectedAfterRetries)
}
