package bench

import (
	"fmt"
	"io"
	"time"

	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/fault"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/workload"
)

// FaultsRow summarizes the recovery-overhead experiment: the same query
// batch against two identical deployments, one clean and one with a
// seeded schedule of connection drops that the client's redial path must
// mask: each statement must return the clean run's hit count or fail
// with an error of the chaos vocabulary (fault.Typed). Recovery is
// pure wall-clock work (redial + resend are not modeled operations), so
// the modeled totals must agree exactly when every fault is masked — that
// equality is checked, not assumed — and the wall-time delta is the
// measured recovery overhead.
type FaultsRow struct {
	Queries      int     `json:"queries"`
	Masked       int     `json:"masked"`
	Typed        int     `json:"typed"`
	FaultsFired  int     `json:"faults_fired"`
	CleanModSec  float64 `json:"clean_modeled_sec"`
	FaultModSec  float64 `json:"fault_modeled_sec"`
	CleanWallSec float64 `json:"clean_wall_sec"`
	FaultWallSec float64 `json:"fault_wall_sec"`
	OverheadPct  float64 `json:"overhead_pct"`
}

// faultsRounds: the batch runs twice so region caches are warm for half
// the workload, as in the concurrency experiment.
const faultsRounds = 2

// faultsPlan schedules connection drops across the first servers'
// send and receive seams at small operation counts, so each fires early
// in the run and exercises redial on both directions.
func faultsPlan(seed uint64, servers int) fault.Plan {
	p := fault.Plan{Seed: seed}
	for s := 0; s < servers && s < 4; s++ {
		p.Schedule = append(p.Schedule,
			fault.Event{Seam: fmt.Sprintf("conn.%d.send", s), Count: uint64(3 + 2*s), Kind: fault.DropConn},
			fault.Event{Seam: fmt.Sprintf("conn.%d.recv", s), Count: uint64(8 + 3*s), Kind: fault.DropConn},
		)
	}
	return p
}

// FaultsRun executes the recovery-overhead experiment.
func FaultsRun(c Config) (*FaultsRow, error) {
	n := 1 << c.LogN
	v := workload.GenerateVPIC(n, c.Seed)
	regionBytes := RegionSweep(n, c.RegionSteps)[0].Bytes

	clean, err := faultsOnce(v, c, regionBytes, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}
	plan := faultsPlan(c.Seed, c.Servers)
	inj := fault.NewInjector(plan)
	faulted, err := faultsOnce(v, c, regionBytes, inj, clean)
	if err != nil {
		return nil, fmt.Errorf("faulted run (seed %d): %w", plan.Seed, err)
	}

	row := &FaultsRow{
		Queries:      len(clean.hits),
		Masked:       len(faulted.hits) - faulted.typed,
		Typed:        faulted.typed,
		FaultsFired:  len(inj.Fired()),
		CleanModSec:  clean.modeled,
		FaultModSec:  faulted.modeled,
		CleanWallSec: clean.wall,
		FaultWallSec: faulted.wall,
	}
	if clean.wall > 0 {
		row.OverheadPct = 100 * (faulted.wall - clean.wall) / clean.wall
	}
	// With every fault masked, the faulted run answered the same queries
	// with the same modeled costs: recovery must be invisible in virtual
	// time. A typed failure removes its query's cost, so only the
	// all-masked case is comparable.
	if faulted.typed == 0 && faulted.modeled != clean.modeled {
		return nil, fmt.Errorf("recovery perturbed modeled time: clean %.9fs, faulted %.9fs (seed %d)",
			clean.modeled, faulted.modeled, plan.Seed)
	}
	return row, nil
}

// faultsTally is one run's outcome.
type faultsTally struct {
	hits    []uint64 // per statement; 0 for a typed failure
	typed   int
	modeled float64
	wall    float64
}

// faultsOnce runs the batch against a fresh deployment. The faulted run
// (inj, clean set) arms the transport seams, redial on, and checks each
// statement against clean; the clean run allows no error.
func faultsOnce(v *workload.VPIC, c Config, regionBytes int64, inj *fault.Injector, clean *faultsTally) (*faultsTally, error) {
	model := scaledModel(v.N)
	d := core.NewDeployment(core.Options{
		Servers:     c.Servers,
		RegionBytes: regionBytes,
		BuildIndex:  true,
		Model:       &model,
		Redial:      true,
		CallTimeout: 30 * time.Second,
	})
	defer d.Close()
	cont := d.CreateContainer("vpic")
	o, err := d.ImportObject(cont.ID, object.Property{
		Name: "Energy", Type: dtype.Float32, Dims: []uint64{uint64(v.N)},
	}, dtype.Bytes(v.Vars["Energy"]))
	if err != nil {
		return nil, err
	}
	if inj != nil {
		d.SetWrapConn(func(srv int, conn transport.Conn) transport.Conn {
			return inj.WrapConn(fmt.Sprintf("conn.%d", srv), conn)
		})
	}
	if err := d.Start(); err != nil {
		return nil, err
	}

	queries := workload.SingleObjectQueries(o.ID)
	t := &faultsTally{}
	start := telemetry.Wall.Now()
	for r := 0; r < faultsRounds; r++ {
		for _, q := range queries {
			i := len(t.hits)
			res, err := d.Client().RunCount(q, plan.ForceScan)
			if err != nil {
				if clean == nil || !fault.Typed(err) {
					return nil, fmt.Errorf("statement %d: %w", i, err)
				}
				t.typed++
				t.hits = append(t.hits, 0)
				continue
			}
			if clean != nil && res.Sel.NHits != clean.hits[i] {
				return nil, fmt.Errorf("statement %d: WRONG ANSWER: %d hits, clean run %d", i, res.Sel.NHits, clean.hits[i])
			}
			t.hits = append(t.hits, res.Sel.NHits)
			t.modeled += res.Info.Elapsed.Total().Seconds()
		}
	}
	t.wall = float64(telemetry.Wall.Now()-start) / 1e9
	return t, nil
}

// FaultsPrint renders the experiment.
func FaultsPrint(w io.Writer, r *FaultsRow) {
	printHeader(w, "Fault recovery overhead: seeded connection drops vs clean run")
	fmt.Fprintf(w, "%9s %8s %6s %7s %14s %14s %12s %12s %9s\n",
		"queries", "masked", "typed", "faults", "clean mod(s)", "fault mod(s)", "clean w(s)", "fault w(s)", "ovhd%")
	fmt.Fprintf(w, "%9d %8d %6d %7d %14.6f %14.6f %12.6f %12.6f %9.1f\n",
		r.Queries, r.Masked, r.Typed, r.FaultsFired,
		r.CleanModSec, r.FaultModSec, r.CleanWallSec, r.FaultWallSec, r.OverheadPct)
}
