// pdc-query is an interactive client for a fleet of pdc-server daemons:
// it parses a textual query, broadcasts it, and prints the hit count,
// modeled times, and optionally the matching data of one object.
//
//	pdc-query -servers 127.0.0.1:7100,127.0.0.1:7101 \
//	          -query "Energy > 2.0 and 100 < x and x < 200" \
//	          -data Energy -limit 10
//
// Against a cluster deployment (pdc-server -catalog / -join), pass the
// catalog instead of a server list; the committed view supplies the
// members and the query is stamped with the placement epoch:
//
//	pdc-query -catalog 127.0.0.1:7000 -query "Energy > 2.0"
//
// Subcommands:
//
//	pdc-query run "select count where ..."      execute a declarative
//	                                            statement through the
//	                                            cost-based planner
//	                                            (-force pins the strategy,
//	                                            here and in -query mode)
//	pdc-query explain "select ... where ..."    print the plan without
//	                                            executing ("explain
//	                                            analyze select ..." runs
//	                                            it and adds actuals)
//	pdc-query trace -servers ... -query "..."   run the query traced and
//	                                            print the plan with
//	                                            actuals plus the span tree
//	pdc-query stats -servers ...                print the fleet's merged
//	                                            telemetry registry
//	                                            (Prometheus text format)
//	pdc-query top -servers ...                  one-shot health dashboard:
//	                                            fleet counters, phase
//	                                            latency quantiles, and a
//	                                            per-server table
//	pdc-query events -servers ...               dump every server's
//	                                            flight-recorder ring
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/cluster"
	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
)

func main() {
	mode := ""
	args := os.Args[1:]
	if len(args) > 0 && (args[0] == "trace" || args[0] == "stats" || args[0] == "top" || args[0] == "events" ||
		args[0] == "run" || args[0] == "explain") {
		mode = args[0]
		args = args[1:]
	}
	servers := flag.String("servers", "127.0.0.1:7100", "comma-separated server addresses")
	catalog := flag.String("catalog", "", "cluster mode: resolve the serving members from this catalog address instead of -servers")
	qstr := flag.String("query", "", "query text, e.g. \"Energy > 2.0 and x < 200\"")
	dataObj := flag.String("data", "", "also fetch the matching values of this object")
	limit := flag.Int("limit", 10, "print at most this many matches")
	countOnly := flag.Bool("count", false, "only report the number of hits")
	explain := flag.Bool("explain", false, "print the evaluation plan (condition order + selectivity estimates) and exit")
	forceStr := flag.String("force", "", "pin the evaluation strategy: full, scan, bitmap, sorted or a paper label (PDC-F, PDC-H, PDC-HI, PDC-SH); auto is cost-based. Default: auto for run/explain statements, scan (PDC-H) for -query")
	flag.CommandLine.Parse(args)
	queryless := mode == "stats" || mode == "top" || mode == "events" ||
		mode == "run" || mode == "explain"
	if *qstr == "" && !queryless {
		fmt.Fprintln(os.Stderr, "pdc-query: -query is required")
		os.Exit(2)
	}

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
	meta := cli.Meta()
	force, err := plan.ParseForce(*forceStr)
	if err != nil {
		fatal(err)
	}

	if mode == "run" || mode == "explain" {
		text := strings.TrimSpace(strings.Join(flag.CommandLine.Args(), " "))
		if text == "" {
			text = *qstr
		}
		if text == "" {
			fatal(fmt.Errorf("%s mode needs a statement, e.g. pdc-query %s 'select count where Energy > 2'", mode, mode))
		}
		if mode == "explain" && !strings.HasPrefix(strings.ToLower(strings.TrimSpace(text)), "explain") {
			text = "explain " + text
		}
		res, err := cli.RunText(text, force)
		if err != nil {
			fatal(err)
		}
		printTextResult(res, *limit)
		return
	}

	root, err := query.Parse(*qstr, func(name string) (object.ID, bool) {
		o, ok := meta.GetByName(name)
		if !ok {
			return 0, false
		}
		return o.ID, true
	})
	if err != nil {
		fatal(err)
	}
	q := &query.Query{Root: root}
	if *forceStr != "" {
		cli.SetForce(force)
	}

	if mode == "trace" {
		a, err := cli.ExplainAnalyze(q)
		if err != nil {
			fatal(err)
		}
		fmt.Print(a.Explain)
		fmt.Println()
		fmt.Print(a.Res.Trace().Render(true))
		return
	}

	if *explain {
		pl, err := cli.Explain(q)
		if err != nil {
			fatal(err)
		}
		fmt.Print(pl.Format(*qstr))
		return
	}

	if *countOnly {
		res, err := cli.RunCount(q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("hits: %d\nmodeled query time: %v (server max %v)\n",
			res.Sel.NHits, res.Info.Elapsed.Total(), res.Info.ServerMax.Total())
		return
	}

	res, err := cli.Run(q)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("hits: %d\nmodeled query time: %v (server max %v)\n",
		res.Sel.NHits, res.Info.Elapsed.Total(), res.Info.ServerMax.Total())
	fmt.Printf("regions: %d evaluated, %d pruned, %d sorted; %d elements scanned\n",
		res.Info.Stats.RegionsEvaluated, res.Info.Stats.RegionsPruned,
		res.Info.Stats.SortedRegions, res.Info.Stats.ElementsScanned)

	show := int(res.Sel.NHits)
	if show > *limit {
		show = *limit
	}
	if *dataObj == "" {
		for i := 0; i < show; i++ {
			fmt.Printf("  match[%d] at index %d\n", i, res.Sel.Coords[i])
		}
		return
	}
	o, ok := meta.GetByName(*dataObj)
	if !ok {
		fatal(fmt.Errorf("unknown object %q", *dataObj))
	}
	data, info, err := res.GetData(o.ID)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("modeled get-data time: %v (%d bytes)\n", info.Elapsed.Total(), len(data))
	for i := 0; i < show; i++ {
		fmt.Printf("  %s[%d] = %g\n", *dataObj, res.Sel.Coords[i], dtype.At(o.Type, data, i))
	}
}

// printTextResult renders a text-query outcome: the EXPLAIN text when
// the statement asked for it, then the projection's answer.
func printTextResult(res *client.TextResult, limit int) {
	if res.Explain != "" {
		fmt.Print(res.Explain)
		if res.Sel == nil {
			// Plain EXPLAIN does not execute.
			return
		}
		fmt.Println()
	}
	fmt.Printf("hits: %d\nmodeled query time: %v (server max %v)\n",
		res.Sel.NHits, res.Info.Elapsed.Total(), res.Info.ServerMax.Total())
	switch res.Statement.Projection.Kind {
	case qlang.ProjIDs:
		show := int(res.Sel.NHits)
		if show > limit {
			show = limit
		}
		for i := 0; i < show; i++ {
			fmt.Printf("  match[%d] at index %d\n", i, res.Sel.Coords[i])
		}
	case qlang.ProjHist:
		h := res.Hist
		fmt.Printf("hist(%s): %d values, min %g max %g\n",
			res.Statement.Projection.Col, h.Total, h.Min, h.Max)
		for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
			fmt.Printf("  p%02.0f = %g\n", 100*q, h.Quantile(q))
		}
	}
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
