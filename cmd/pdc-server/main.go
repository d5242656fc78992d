// pdc-server runs one PDC query server as a standalone TCP daemon.
//
// A deployment of N daemons (ranks 0..N-1) serves the same deterministic
// synthetic dataset — each daemon generates and imports it locally with
// the shared seed, mirroring a parallel file system every server can
// reach — and answers the client protocol on its port. Point cmd/pdc-query
// at all N addresses.
//
//	pdc-server -addr 127.0.0.1:7100 -id 0 -n 2 &
//	pdc-server -addr 127.0.0.1:7101 -id 1 -n 2 &
//	pdc-query run -servers 127.0.0.1:7100,127.0.0.1:7101 "select count where Energy > 2.0"
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"pdcquery/internal/core"
	"pdcquery/internal/server"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7100", "listen address")
	id := flag.Int("id", 0, "this server's rank in [0, n)")
	n := flag.Int("n", 1, "total number of servers in the deployment")
	logn := flag.Int("logn", 18, "VPIC scale: 2^logn particles")
	load := flag.String("load", "", "load a deployment checkpoint written by pdc-import -out instead of generating data")
	seed := flag.Uint64("seed", 42, "dataset seed (must match across the deployment)")
	regionKB := flag.Int64("region-kb", 64, "region size in KiB")
	index := flag.Bool("index", true, "build bitmap indexes at import")
	sorted := flag.Bool("sorted", true, "build the Energy sorted replica at import")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics on this address at /metrics, plus /debug/events and /debug/pprof (empty disables)")
	queryLog := flag.Bool("querylog", false, "emit a structured JSON record per handled query on stderr")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this wall-clock threshold with their trace span and surrounding flight-recorder events (0 disables)")
	recorderEvents := flag.Int("recorder-events", telemetry.DefaultRecorderEvents, "flight-recorder ring capacity (events)")
	// The worker default is a fixed constant, not NumCPU: results and
	// costs are identical at any worker count (the determinism contract),
	// so the default only changes latency, and a fixed value keeps daemon
	// behavior reproducible across machines.
	workers := flag.Int("workers", 4, "region-task workers shared by all sessions (0 or 1 = serial evaluation)")
	queueDepth := flag.Int("queue-depth", server.DefaultQueueDepth, "admitted requests per session before the server answers busy")
	checkpoint := flag.String("checkpoint", "", "write a deployment checkpoint here after startup (the persistence a crashed rank is restarted from via -load)")
	crashAfter := flag.Uint64("crash-after", 0, "fault injection: exit(3) abruptly after serving this many queries (0 disables)")
	catalogMode := flag.Bool("catalog", false, "run the cluster catalog service instead of a data server")
	join := flag.String("join", "", "join the cluster at this catalog address as a data member (starts empty; import through the catalog)")
	clusterR := flag.Int("cluster-r", 2, "catalog mode: replication factor for placements")
	heartbeat := flag.Duration("heartbeat", 250*time.Millisecond, "member mode: heartbeat interval (0 disables)")
	heartbeatTimeout := flag.Duration("heartbeat-timeout", 2*time.Second, "catalog mode: declare a member down after this long without a beat (0 disables)")
	flag.Parse()

	if *catalogMode && *join != "" {
		fmt.Fprintln(os.Stderr, "pdc-server: -catalog and -join are mutually exclusive")
		os.Exit(2)
	}
	if *catalogMode {
		runCatalog(*addr, *seed, *clusterR, *heartbeatTimeout, *metricsAddr, *recorderEvents)
		return
	}
	if *join != "" {
		runMember(*join, *addr, *workers, *queueDepth, *heartbeat, *metricsAddr, *recorderEvents, *queryLog)
		return
	}
	if *id < 0 || *id >= *n {
		fmt.Fprintln(os.Stderr, "pdc-server: id must be in [0, n)")
		os.Exit(2)
	}

	var d *core.Deployment
	if *load != "" {
		log.Printf("pdc-server rank %d/%d: loading checkpoint %s...", *id, *n, *load)
		f, err := os.Open(*load)
		if err != nil {
			log.Fatalf("pdc-server: %v", err)
		}
		d, err = core.LoadCheckpoint(f, core.Options{Servers: 1})
		f.Close()
		if err != nil {
			log.Fatalf("pdc-server: load: %v", err)
		}
	} else {
		log.Printf("pdc-server rank %d/%d: importing 2^%d particles...", *id, *n, *logn)
		var err error
		d, err = importVPIC(*logn, *seed, *regionKB<<10, *index, *sorted)
		if err != nil {
			log.Fatalf("pdc-server: import: %v", err)
		}
	}
	if *checkpoint != "" {
		// The paper's PDC persists metadata periodically for fault
		// tolerance; here the full import is written once at startup, so a
		// crashed rank restarts with -load and recovers identical state.
		f, err := os.Create(*checkpoint)
		if err != nil {
			log.Fatalf("pdc-server: checkpoint: %v", err)
		}
		if err := d.SaveCheckpoint(f); err != nil {
			log.Fatalf("pdc-server: checkpoint: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("pdc-server: checkpoint: %v", err)
		}
		log.Printf("pdc-server rank %d: checkpoint written to %s", *id, *checkpoint)
	}
	cfg := server.Config{
		ID: *id, N: *n,
		Store:      d.Store(),
		Meta:       d.Meta(),
		Replicas:   d.Replicas(),
		Assign:     server.ModNAssign(*id, *n),
		Workers:    *workers,
		QueueDepth: *queueDepth,
		// The daemon is a real deployment: traced queries may carry
		// wall-clock span times (they never enter deterministic encodings).
		Clock:          telemetry.Wall,
		RecorderEvents: *recorderEvents,
		SlowQueryNs:    slowQuery.Nanoseconds(),
	}
	if *queryLog || *slowQuery > 0 {
		// The slow-query log rides on the structured logger: -slow-query
		// alone installs it (at warn level only the slow records appear
		// unless -querylog also asked for the per-query info records).
		opts := &slog.HandlerOptions{Level: slog.LevelWarn}
		if *queryLog {
			opts.Level = slog.LevelInfo
		}
		cfg.Log = slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	if *crashAfter > 0 {
		rank := *id
		limit := *crashAfter
		cfg.OnQuery = func(served uint64) {
			if served >= limit {
				// A crash, not a shutdown: no teardown, no reply flush —
				// clients see the connection drop mid-conversation and must
				// recover via redial against the restarted rank.
				log.Printf("pdc-server rank %d: injected crash after %d queries", rank, served)
				os.Exit(3)
			}
		}
	}
	srv := server.New(cfg)

	l, err := transport.Listen(*addr)
	if err != nil {
		log.Fatalf("pdc-server: listen: %v", err)
	}
	if *metricsAddr != "" {
		serveMetrics(*metricsAddr, fmt.Sprintf("rank %d", *id), srv.Metrics, srv.Recorder)
	}
	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, let in-flight
	// connections finish their current request loop.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("pdc-server rank %d: %v, shutting down", *id, s)
		l.Close()
	}()

	log.Printf("pdc-server rank %d/%d serving on %s", *id, *n, l.Addr())
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			break // listener closed
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(conn); err != nil {
				log.Printf("pdc-server: connection: %v", err)
			}
			conn.Close()
		}()
	}
	wg.Wait()
	srv.Shutdown()
	log.Printf("pdc-server rank %d: bye", *id)
}
