// pdc-debugsmoke is an end-to-end smoke test of the observability
// surface: it boots a real pdc-server daemon, runs a query against it,
// then scrapes /metrics, /debug/events, and /debug/pprof and validates
// what comes back — the metrics exposition parses strictly (every line,
// no duplicate series), the expected query/cache/phase/runtime series
// are present, and the flight recorder shows the query it just served.
//
// CI runs it via `make debug-smoke`. Exit status 0 means the whole
// observability path — record, aggregate, expose, scrape — works
// against a live daemon, not just in unit tests.
//
//	pdc-debugsmoke -server bin/pdc-server [-logn 12]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/plan"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
)

func main() {
	serverBin := flag.String("server", "bin/pdc-server", "path to the pdc-server binary")
	logn := flag.Int("logn", 12, "VPIC scale for the smoke dataset: 2^logn particles")
	timeout := flag.Duration("timeout", 60*time.Second, "overall deadline for the smoke run")
	flag.Parse()

	// Wall time flows through the telemetry seam (the repo's one
	// sanctioned clock); the smoke harness measures a live daemon, so
	// real waiting is its job.
	deadline := telemetry.Wall.Now() + timeout.Nanoseconds()
	addr := fmt.Sprintf("127.0.0.1:%d", freePort())
	metricsAddr := fmt.Sprintf("127.0.0.1:%d", freePort())

	cmd := exec.Command(*serverBin,
		"-addr", addr, "-id", "0", "-n", "1",
		"-logn", fmt.Sprint(*logn),
		"-metrics-addr", metricsAddr,
		// A 1ns threshold makes every query a "slow query": the smoke run
		// exercises the slow-query log path on the daemon's stderr too.
		"-slow-query", "1ns")
	cmd.Stderr = os.Stderr
	cmd.Stdout = os.Stdout
	if err := cmd.Start(); err != nil {
		log.Fatalf("debug-smoke: start %s: %v", *serverBin, err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()

	conn := dialRetry(addr, deadline)
	cli := client.New([]transport.Conn{conn}, nil)
	defer cli.Close()
	if err := cli.SyncMeta(); err != nil {
		log.Fatalf("debug-smoke: sync meta: %v", err)
	}
	res, err := cli.RunText("select ids where Energy > 2.0", plan.ForceScan)
	if err != nil {
		log.Fatalf("debug-smoke: query: %v", err)
	}
	log.Printf("debug-smoke: query answered: %d hits", res.Sel.NHits)

	// The metrics exposition must parse strictly and carry the query,
	// cache, recorder, phase, and runtime series the daemon promises.
	metrics := httpGet("http://"+metricsAddr+"/metrics", deadline)
	if err := telemetry.CheckPrometheusText(metrics); err != nil {
		log.Fatalf("debug-smoke: /metrics failed strict parse: %v", err)
	}
	for _, want := range []string{
		"query_count", "cache_hits", "cache_misses",
		"plan_cache_hits", "plan_cache_misses", "plan_cache_evictions",
		"recorder_capacity", "recorder_events",
		"phase_region_exec_vns", "phase_merge_vns",
		"runtime_goroutines", "runtime_heap_bytes",
	} {
		if !strings.Contains(string(metrics), want) {
			log.Fatalf("debug-smoke: /metrics missing expected series %q", want)
		}
	}
	log.Printf("debug-smoke: /metrics OK (%d bytes, strict parse clean)", len(metrics))

	// The flight recorder must show the query this run just issued.
	events := string(httpGet("http://"+metricsAddr+"/debug/events", deadline))
	if !strings.HasPrefix(events, "flight recorder:") {
		log.Fatalf("debug-smoke: /debug/events missing header, got %q", firstLine(events))
	}
	for _, want := range []string{"kind=admit", "kind=dispatch", "kind=query-done"} {
		if !strings.Contains(events, want) {
			log.Fatalf("debug-smoke: /debug/events missing %q events", want)
		}
	}
	log.Printf("debug-smoke: /debug/events OK (%s)", firstLine(events))

	// The pprof surface must answer.
	if out := httpGet("http://"+metricsAddr+"/debug/pprof/cmdline", deadline); len(out) == 0 {
		log.Fatal("debug-smoke: /debug/pprof/cmdline returned nothing")
	}
	log.Print("debug-smoke: /debug/pprof OK")
	fmt.Println("debug-smoke: PASS")
}

// freePort asks the kernel for an unused TCP port. The tiny window
// between closing the probe listener and the daemon binding it is
// acceptable for a smoke harness.
func freePort() int {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("debug-smoke: probe port: %v", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// dialRetry dials the query port until the daemon finishes importing
// its dataset and starts listening.
func dialRetry(addr string, deadline int64) transport.Conn {
	for {
		conn, err := transport.Dial(addr)
		if err == nil {
			return conn
		}
		if telemetry.Wall.Now() > deadline {
			log.Fatalf("debug-smoke: server never came up on %s: %v", addr, err)
		}
		telemetry.WallSleep.Sleep(100 * time.Millisecond)
	}
}

// httpGet fetches a URL, retrying until the debug listener is up, and
// requires a 200.
func httpGet(url string, deadline int64) []byte {
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				log.Fatalf("debug-smoke: read %s: %v", url, rerr)
			}
			if resp.StatusCode != http.StatusOK {
				log.Fatalf("debug-smoke: GET %s: status %d", url, resp.StatusCode)
			}
			return body
		}
		if telemetry.Wall.Now() > deadline {
			log.Fatalf("debug-smoke: GET %s: %v", url, err)
		}
		telemetry.WallSleep.Sleep(100 * time.Millisecond)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
