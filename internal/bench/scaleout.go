package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"pdcquery/internal/cluster"
	"pdcquery/internal/core"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/workload"
)

// ScaleoutRow is one cluster-size measurement of the distributed
// deployment: the full single-object corpus answered through a catalog
// session against P members with R=2 replication.
type ScaleoutRow struct {
	// Members is the serving member count of the cluster.
	Members int
	// Queries is the corpus size (all rows run the same corpus).
	Queries int
	// NHits sums the hits across the corpus (identical for every row —
	// the answers are byte-identical regardless of cluster size).
	NHits uint64
	// TimeNs is the summed modeled elapsed time of the corpus.
	TimeNs int64
	// Speedup is relative to the single-member row.
	Speedup float64
}

// ScaleoutMembers are the cluster sizes the scale-out figure sweeps.
var ScaleoutMembers = []int{1, 2, 4, 8}

// ScaleoutRun measures how query time falls as the same dataset is
// spread over more cluster members: for each P it boots an in-process
// cluster (catalog + P members over pipe transport — the same
// placement, protocol, and routing as the multi-process deployment),
// imports the VPIC dataset with R=2 replication, and answers the
// 15-query single-object corpus through an epoch-stamped session.
// More members means fewer regions per member, so the per-member
// modeled time (and with it the corpus total) must fall.
func ScaleoutRun(c Config) ([]ScaleoutRow, error) {
	n := 1 << c.LogN
	v := workload.GenerateVPIC(n, c.Seed)
	rs := RegionSweep(n, 6)[0]
	model := scaledModel(n)

	// The source deployment holds the dataset at the swept region size
	// and doubles as the brute-force oracle.
	src := core.NewDeployment(core.Options{
		Servers: 2, RegionBytes: rs.Bytes, Model: &model,
	})
	defer src.Close()
	ids, err := ImportVPIC(src, v, workload.VPICNames...)
	if err != nil {
		return nil, err
	}
	queries := workload.SingleObjectQueries(ids["Energy"])
	var truths []*selection.Selection
	if c.Verify {
		truths = make([]*selection.Selection, len(queries))
		for i, q := range queries {
			sel, err := src.GroundTruth(q)
			if err != nil {
				return nil, err
			}
			truths[i] = sel
		}
	}

	var rows []ScaleoutRow
	for _, p := range ScaleoutMembers {
		row, err := scaleoutOne(c, p, src, queries, truths)
		if err != nil {
			return nil, fmt.Errorf("scaleout members=%d: %w", p, err)
		}
		rows = append(rows, row)
	}
	for i := range rows {
		rows[i].Speedup = float64(rows[0].TimeNs) / float64(rows[i].TimeNs)
	}
	return rows, nil
}

// scaleoutOne boots a P-member cluster, imports the source, and runs
// the corpus through a catalog session, summing modeled time.
func scaleoutOne(c Config, p int, src *core.Deployment, queries []*query.Query, truths []*selection.Selection) (ScaleoutRow, error) {
	n := 1 << c.LogN
	model := scaledModel(n)
	l, err := cluster.StartLocal(cluster.LocalOptions{
		Members: p, R: 2, Seed: c.Seed, Model: &model,
	})
	if err != nil {
		return ScaleoutRow{}, err
	}
	defer l.Close()
	s, err := l.Session()
	if err != nil {
		return ScaleoutRow{}, err
	}
	defer s.Close()
	if err := s.Import(src); err != nil {
		return ScaleoutRow{}, err
	}
	row := ScaleoutRow{Members: p, Queries: len(queries)}
	var total time.Duration
	for i, q := range queries {
		res, err := s.Run(q, plan.ForceScan)
		if err != nil {
			return ScaleoutRow{}, fmt.Errorf("query %d: %w", i, err)
		}
		if truths != nil && !bytes.Equal(res.Sel.Encode(), truths[i].Encode()) {
			return ScaleoutRow{}, fmt.Errorf("query %d: %d hits, truth %d", i, res.Sel.NHits, truths[i].NHits)
		}
		total += res.Info.Elapsed.Total()
		row.NHits += res.Sel.NHits
	}
	row.TimeNs = int64(total)
	return row, nil
}

// ScaleoutPrint renders the table.
func ScaleoutPrint(w io.Writer, rows []ScaleoutRow) {
	printHeader(w, "Scale-out: distributed cluster, 1→8 members (R=2)")
	if len(rows) > 0 {
		fmt.Fprintf(w, "corpus: %d single-object queries, %d total hits\n", rows[0].Queries, rows[0].NHits)
	}
	fmt.Fprintf(w, "%-10s %11s %9s\n", "members", "modeled", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %s %8.2fx\n", r.Members, secs(time.Duration(r.TimeNs)), r.Speedup)
	}
}

// ScaleoutCSV writes the rows as CSV.
func ScaleoutCSV(w io.Writer, rows []ScaleoutRow) {
	fmt.Fprintln(w, "members,queries,hits,modeled_s,speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%d,%d,%d,%.9f,%.4f\n",
			r.Members, r.Queries, r.NHits, time.Duration(r.TimeNs).Seconds(), r.Speedup)
	}
}
