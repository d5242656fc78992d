package bench

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"pdcquery/internal/client"
	"pdcquery/internal/core"
	"pdcquery/internal/plan"
	"pdcquery/internal/sched"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/workload"
)

// ConcurrentRow is one (client sessions, region workers) cell of the
// concurrency experiment: the same query batch pushed through the
// scheduler at increasing worker counts. ModeledSeconds is the
// deterministic virtual-time total (identical at every worker count —
// the scheduler's determinism contract); WallSeconds is the measured
// wall time the parallelism actually buys.
type ConcurrentRow struct {
	Clients       int
	Workers       int
	Queries       int
	Completed     int
	Busy          int
	ModeledSec    float64
	WallSec       float64
	QueriesPerSec float64
}

// concurrentWorkerSweep is the worker-count axis of the experiment.
var concurrentWorkerSweep = []int{1, 2, 4, 8}

// ConcurrentRun drives c.Concurrency client sessions, each executing the
// 15-query single-object batch twice, against one deployment per worker
// count in the sweep. Results are oracle-checked when c.Verify is set;
// modeled totals must agree across worker counts or the run errors.
func ConcurrentRun(c Config) ([]ConcurrentRow, error) {
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	n := 1 << c.LogN
	v := workload.GenerateVPIC(n, c.Seed)
	regionBytes := RegionSweep(n, c.RegionSteps)[0].Bytes

	var rows []ConcurrentRow
	var modeledBase float64
	for _, workers := range concurrentWorkerSweep {
		row, modeled, err := concurrentOnce(v, c, regionBytes, workers)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			modeledBase = modeled
		} else if modeled != modeledBase {
			return nil, fmt.Errorf("determinism violation: modeled total %.9fs at %d workers, %.9fs at %d",
				modeled, workers, modeledBase, rows[0].Workers)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func concurrentOnce(v *workload.VPIC, c Config, regionBytes int64, workers int) (ConcurrentRow, float64, error) {
	model := scaledModel(v.N)
	d := core.NewDeployment(core.Options{
		Servers:     c.Servers,
		RegionBytes: regionBytes,
		BuildIndex:  true,
		Model:       &model,
		Workers:     workers,
	})
	defer d.Close()
	ids, err := ImportVPIC(d, v, "Energy")
	if err != nil {
		return ConcurrentRow{}, 0, err
	}
	if err := d.Start(); err != nil {
		return ConcurrentRow{}, 0, err
	}

	queries := workload.SingleObjectQueries(ids["Energy"])
	truths := make([]uint64, len(queries))
	if c.Verify {
		for i, q := range queries {
			truth, err := d.GroundTruth(q)
			if err != nil {
				return ConcurrentRow{}, 0, err
			}
			truths[i] = truth.NHits
		}
	}

	// One session per client: the deployment's own plus extras, each on
	// its own pipe pair served by its server-side Serve loop — the same
	// wiring the deployment uses for its primary client.
	sessions := []*client.Client{d.Client()}
	var serveWG sync.WaitGroup
	var extras []*client.Client
	for len(sessions) < c.Concurrency {
		srvs := d.Servers()
		conns := make([]transport.Conn, len(srvs))
		for i, srv := range srvs {
			clientSide, serverSide := transport.Pipe()
			conns[i] = clientSide
			serveWG.Add(1)
			go func() {
				defer serveWG.Done()
				srv.Serve(serverSide)
				serverSide.Close()
			}()
		}
		cl := client.New(conns, d.Meta())
		cl.SetSleeper(telemetry.WallSleep)
		extras = append(extras, cl)
		sessions = append(sessions, cl)
	}
	defer func() {
		for _, cl := range extras {
			cl.Close()
		}
		serveWG.Wait()
	}()

	// Warm the region cache with one serial pass before the sessions
	// race. Against a cold cache, which session pays each first miss
	// depends on interleaving, and a call's modeled time takes a max over
	// servers, so the per-session sum would differ from run to run; warm,
	// every call costs the same whoever issues it.
	for _, q := range queries {
		if _, err := sessions[0].RunCount(q, plan.ForceScan); err != nil {
			return ConcurrentRow{}, 0, err
		}
	}

	const rounds = 2
	type tally struct {
		completed, busy int
		modeled         float64
		err             error
	}
	tallies := make([]tally, len(sessions))
	start := telemetry.Wall.Now()
	var wg sync.WaitGroup
	for si, cl := range sessions {
		wg.Add(1)
		go func(si int, cl *client.Client) {
			defer wg.Done()
			t := &tallies[si]
			for r := 0; r < rounds; r++ {
				for qi, q := range queries {
					res, err := cl.RunCount(q, plan.ForceScan)
					switch {
					case err == nil:
						t.completed++
						t.modeled += res.Info.Elapsed.Total().Seconds()
						if c.Verify && res.Sel.NHits != truths[qi] {
							t.err = fmt.Errorf("clients=%d workers=%d query %d: %d hits, oracle %d",
								len(sessions), workers, qi, res.Sel.NHits, truths[qi])
							return
						}
					case errors.Is(err, sched.ErrBusy):
						t.busy++
					default:
						t.err = err
						return
					}
				}
			}
		}(si, cl)
	}
	wg.Wait()
	wallSec := float64(telemetry.Wall.Now()-start) / 1e9

	row := ConcurrentRow{Clients: len(sessions), Workers: workers, WallSec: wallSec}
	var modeled float64
	for _, t := range tallies {
		if t.err != nil {
			return ConcurrentRow{}, 0, t.err
		}
		row.Completed += t.completed
		row.Busy += t.busy
		modeled += t.modeled
	}
	row.Queries = len(sessions) * rounds * len(queries)
	row.ModeledSec = modeled
	if wallSec > 0 {
		row.QueriesPerSec = float64(row.Completed) / wallSec
	}
	return row, modeled, nil
}

// ConcurrentPrint renders the sweep as a table.
func ConcurrentPrint(w io.Writer, rows []ConcurrentRow) {
	fmt.Fprintf(w, "\nConcurrent clients: wall throughput vs region workers (modeled time invariant)\n")
	fmt.Fprintf(w, "%8s %8s %9s %10s %6s %12s %12s %10s\n",
		"clients", "workers", "queries", "completed", "busy", "modeled(s)", "wall(s)", "q/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %9d %10d %6d %12.6f %12.6f %10.1f\n",
			r.Clients, r.Workers, r.Queries, r.Completed, r.Busy, r.ModeledSec, r.WallSec, r.QueriesPerSec)
	}
}
