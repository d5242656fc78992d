// pdc-query is an interactive client for a fleet of pdc-server daemons:
// it sends one declarative statement (package qlang has the grammar) and
// prints the hit count and modeled times, then what the statement's own
// text asks for — the matching indices of `select ids`, the quantiles of
// `select hist(col, n)`, the plan of `explain …`, the plan with actuals
// and the span tree of `explain analyze …` — and optionally the matching
// data of one object.
//
//	pdc-query run -servers 127.0.0.1:7100,127.0.0.1:7101 \
//	          -data Energy -limit 10 \
//	          "select ids where Energy > 2.0 and 100 < x < 200"
//
// Against a cluster deployment (pdc-server -catalog / -join), pass the
// catalog instead of a server list; the committed view supplies the
// members and the statement is stamped with the placement epoch:
//
//	pdc-query run -catalog 127.0.0.1:7000 "select count where Energy > 2.0"
//
// Subcommands:
//
//	pdc-query run "select count where ..."   execute one statement; -force
//	                                         pins the strategy (default:
//	                                         the cost-based planner)
//	pdc-query stats -servers ...             print the fleet's merged
//	                                         telemetry registry
//	                                         (Prometheus text format)
//	pdc-query top -servers ...               one-shot health dashboard:
//	                                         fleet counters, phase
//	                                         latency quantiles, and a
//	                                         per-server table
//	pdc-query events -servers ...            dump every server's
//	                                         flight-recorder ring
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/cluster"
	"pdcquery/internal/dtype"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
)

func main() {
	servers := flag.String("servers", "127.0.0.1:7100", "comma-separated server addresses")
	catalog := flag.String("catalog", "", "cluster mode: resolve the serving members from this catalog address instead of -servers")
	dataObj := flag.String("data", "", "run: also fetch the matching values of this object (needs a 'select ids' statement)")
	limit := flag.Int("limit", 10, "run: print at most this many matches")
	forceStr := flag.String("force", "", "run: pin the evaluation strategy: full, scan, bitmap, sorted or a paper label (PDC-F, PDC-H, PDC-HI, PDC-SH); the default, auto, is cost-based")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pdc-query run [flags] \"<statement>\" | pdc-query stats|top|events [flags]")
		flag.PrintDefaults()
	}
	if len(os.Args) < 2 || !slices.Contains([]string{"run", "stats", "top", "events"}, os.Args[1]) {
		flag.Usage()
		os.Exit(2)
	}
	mode := os.Args[1]
	flag.CommandLine.Parse(os.Args[2:])

	var cli *client.Client
	if *catalog != "" {
		// Cluster mode: the catalog hands us the committed view and the
		// metadata snapshot; the session builds an epoch-stamped client
		// routed by placement.
		sess, err := cluster.DialSession(cluster.SessionOptions{
			Net:         cluster.TCPNetwork{},
			CatalogAddr: *catalog,
			CallTimeout: 30 * time.Second,
			RetryWait:   50 * time.Millisecond,
			Sleeper:     telemetry.WallSleep,
			Clock:       telemetry.Wall,
		})
		if err != nil {
			fatal(err)
		}
		defer sess.Close()
		if cli, err = sess.Client(); err != nil {
			fatal(err)
		}
	} else {
		var conns []transport.Conn
		for _, addr := range strings.Split(*servers, ",") {
			conn, err := transport.Dial(strings.TrimSpace(addr))
			if err != nil {
				fatal(err)
			}
			conns = append(conns, conn)
		}
		cli = client.New(conns, nil)
		defer cli.Close()
	}

	if mode == "stats" {
		perServer, merged, err := cli.ServerStats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# %d servers\n", len(perServer))
		telemetry.WritePrometheus(os.Stdout, merged)
		return
	}

	if mode == "top" {
		perServer, merged, err := cli.ServerStats()
		if err != nil {
			fatal(err)
		}
		printTop(perServer, merged)
		return
	}

	if mode == "events" {
		events, totals, err := cli.ServerEvents()
		if err != nil {
			fatal(err)
		}
		for i := range events {
			fmt.Printf("# server %d\n", i)
			telemetry.WriteEvents(os.Stdout, events[i], totals[i])
		}
		return
	}

	if err := cli.SyncMeta(); err != nil {
		fatal(err)
	}
	force, err := plan.ParseForce(*forceStr)
	if err != nil {
		fatal(err)
	}
	text := strings.TrimSpace(strings.Join(flag.CommandLine.Args(), " "))
	if text == "" {
		fatal(fmt.Errorf("run needs a statement, e.g. pdc-query run 'select count where Energy > 2'"))
	}
	var st client.Statement
	var data *object.Object
	if *dataObj == "" {
		st = client.Text(text)
	} else if st, data, err = prepare(cli.Meta(), text, *dataObj); err != nil {
		fatal(err)
	}
	res, err := cli.Do(context.Background(), st, client.Options{Force: force})
	if err != nil {
		fatal(err)
	}
	if res.Explain != "" {
		fmt.Print(res.Explain)
		if res.Sel == nil {
			// Plain EXPLAIN does not execute.
			return
		}
		fmt.Println()
		fmt.Print(res.Trace().Render(true))
	}
	fmt.Printf("hits: %d\nmodeled query time: %v (server max %v)\n",
		res.Sel.NHits, res.Info.Elapsed.Total(), res.Info.ServerMax.Total())
	fmt.Printf("regions: %d evaluated, %d pruned, %d sorted; %d elements scanned, %d index bins read\n",
		res.Info.Stats.RegionsEvaluated, res.Info.Stats.RegionsPruned,
		res.Info.Stats.SortedRegions, res.Info.Stats.ElementsScanned, res.Info.Stats.IndexBinsRead)
	show := min(len(res.Sel.Coords), *limit)
	switch {
	case data != nil:
		vals, info, err := res.GetData(data.ID)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("modeled get-data time: %v (%d bytes)\n", info.Elapsed.Total(), len(vals))
		for i := 0; i < show; i++ {
			fmt.Printf("  %s[%d] = %g\n", data.Name, res.Sel.Coords[i], dtype.At(data.Type, vals, i))
		}
	case res.Hist != nil:
		h := res.Hist
		fmt.Printf("hist(%s): %d values, min %g max %g\n",
			res.Statement.Projection.Col, h.Total, h.Min, h.Max)
		for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
			fmt.Printf("  p%02.0f = %g\n", 100*q, h.Quantile(q))
		}
	default:
		for i := 0; i < show; i++ {
			fmt.Printf("  match[%d] at index %d\n", i, res.Sel.Coords[i])
		}
	}
}

// prepare lowers a `select ids` statement against the metadata into the
// prepared form: only a prepared statement's result is stashed on the
// servers, which is what a get-data of obj answers from.
func prepare(meta *metadata.Service, text, obj string) (client.Statement, *object.Object, error) {
	o, ok := meta.GetByName(obj)
	if !ok {
		return client.Statement{}, nil, fmt.Errorf("unknown object %q", obj)
	}
	parsed, err := qlang.Parse(text)
	if err != nil {
		return client.Statement{}, nil, err
	}
	if parsed.Projection.Kind != qlang.ProjIDs {
		return client.Statement{}, nil, fmt.Errorf("-data needs a `select ids` statement")
	}
	low, err := parsed.Lower(meta.IDByName)
	if err != nil {
		return client.Statement{}, nil, err
	}
	if len(low.Tags) != 0 {
		return client.Statement{}, nil, fmt.Errorf("-data does not take tag conditions")
	}
	st := client.Prepared(low.Query, qlang.ProjIDs)
	st.Explain, st.Analyze = parsed.Explain, parsed.Analyze
	return st, o, nil
}

// printTop renders a one-shot health dashboard from the fleet's
// telemetry: headline counters, latency quantiles over the mergeable
// phase distributions, and a per-server table.
func printTop(perServer []*telemetry.Registry, merged *telemetry.Registry) {
	fmt.Printf("fleet: %d servers\n", len(perServer))
	fmt.Printf("queries: %d (slow %d, rejected %d, errors %d)\n",
		merged.Counter("query.count"), merged.Counter("query.slow"),
		merged.Counter("sched.rejected"), merged.Counter("errors"))
	hits, misses := merged.Counter("cache.hits"), merged.Counter("cache.misses")
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * float64(hits) / float64(hits+misses)
	}
	fmt.Printf("cache: %d hits / %d misses (%.1f%% hit), %d evictions\n",
		hits, misses, rate, merged.Counter("cache.evictions"))
	fmt.Printf("flight recorder: %d events recorded fleet-wide\n", merged.Counter("recorder.events"))
	// Cluster deployments carry membership/rebalance telemetry; the
	// section only appears when the fleet reports a placement epoch.
	if epoch := merged.Gauge("cluster.epoch"); epoch > 0 {
		fmt.Printf("cluster: epoch %.0f; %d transfers (%d bytes, %d errors), %d failover regions promoted\n",
			epoch, merged.Counter("cluster.transfers"), merged.Counter("cluster.transfer.bytes"),
			merged.Counter("cluster.transfer.errors"), merged.Counter("cluster.failover.regions"))
		fmt.Printf("ingest: %d extents (%d bytes), %d meta snapshots\n",
			merged.Counter("ingest.extents"), merged.Counter("ingest.bytes"), merged.Counter("ingest.meta"))
	}
	fmt.Println()

	fmt.Printf("%-28s %8s %12s %12s %12s %12s\n", "latency", "count", "p50", "p95", "p99", "mean")
	for _, name := range merged.DistNames() {
		if !strings.HasPrefix(name, "phase.") && !strings.HasPrefix(name, "query.") &&
			!strings.HasPrefix(name, "sched.") {
			continue
		}
		d := merged.Dist(name)
		if d == nil || d.Count() == 0 {
			continue
		}
		fmt.Printf("%-28s %8d %12v %12v %12v %12v\n", name, d.Count(),
			time.Duration(int64(d.Quantile(0.5))), time.Duration(int64(d.Quantile(0.95))),
			time.Duration(int64(d.Quantile(0.99))), time.Duration(int64(d.Sum/float64(d.Count()))))
	}
	fmt.Println()

	fmt.Printf("%-6s %8s %9s %12s %16s %8s\n", "server", "queries", "sessions", "queue(d/hw)", "cache(hit/miss)", "events")
	for i, r := range perServer {
		fmt.Printf("%-6d %8d %9.0f %6.0f/%-5.0f %8d/%-7d %8d\n", i,
			r.Counter("query.count"), r.Gauge("sessions.live"),
			r.Gauge("sched.queue.depth"), r.Gauge("sched.queue.hiwater"),
			r.Counter("cache.hits"), r.Counter("cache.misses"),
			r.Counter("recorder.events"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdc-query:", err)
	os.Exit(1)
}
