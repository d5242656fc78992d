package core

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"pdcquery/internal/client"
	"pdcquery/internal/plan"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/workload"
)

// pdcServer is the pdc-server binary the process tests spawn, built on
// first use and removed when the tests end.
var pdcServer ServerBuild

func TestMain(m *testing.M) {
	code := m.Run()
	pdcServer.Remove()
	os.Exit(code)
}

// TestDaemonObservability boots the standalone pdc-server daemon through
// the process harness's own spawn and handshake and answers a statement
// over TCP exactly. It then scrapes the daemon's debug listener:
// /metrics parses strictly and carries the query, cache, plan-cache,
// recorder, phase and runtime series, plus query_slow, since a 1ns
// threshold makes every statement slow. /debug/events shows the
// statement's lifecycle, and /debug/pprof answers.
func TestDaemonObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("process tests skipped in -short")
	}
	bin, err := pdcServer.Path()
	if err != nil {
		t.Skipf("cannot build pdc-server: %v", err)
	}
	const logn = 12
	p := &ProcessDeployment{opts: ProcessOptions{BinPath: bin, Metrics: true}}
	daemon, err := p.spawn("-addr", "127.0.0.1:0", "-id", "0", "-n", "1", "-logn", strconv.Itoa(logn), "-slow-query", "1ns")
	if err != nil {
		t.Fatal(err)
	}
	p.members = []*child{daemon}
	defer p.Close()

	conn, err := transport.Dial(daemon.addr)
	if err != nil {
		t.Fatal(err)
	}
	cli := client.New([]transport.Conn{conn}, nil)
	defer cli.Close()
	if err := cli.SyncMeta(); err != nil {
		t.Fatalf("sync meta: %v", err)
	}
	res, err := cli.RunText("select ids where Energy > 2.0", plan.ForceScan)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	want := uint64(0)
	for _, e := range workload.GenerateVPIC(1<<logn, 42).Vars["Energy"] {
		if e > 2.0 {
			want++
		}
	}
	if res.Sel.NHits != want {
		t.Fatalf("daemon answered %d hits, brute force counts %d", res.Sel.NHits, want)
	}

	metrics := scrape(t, daemon.metricsAddr, "/metrics")
	if err := telemetry.CheckPrometheusText([]byte(metrics)); err != nil {
		t.Fatalf("/metrics failed strict parse: %v", err)
	}
	for _, want := range []string{
		"query_count", "cache_hits", "cache_misses",
		"plan_cache_hits", "plan_cache_misses", "plan_cache_evictions",
		"recorder_capacity", "recorder_events",
		"phase_region_exec_vns", "phase_merge_vns",
		"runtime_goroutines", "runtime_heap_bytes",
		"query_slow 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing series %q", want)
		}
	}
	events := scrape(t, daemon.metricsAddr, "/debug/events")
	if !strings.HasPrefix(events, "flight recorder:") {
		t.Errorf("/debug/events has no header: %.80q", events)
	}
	for _, want := range []string{"kind=admit", "kind=dispatch", "kind=query-done"} {
		if !strings.Contains(events, want) {
			t.Errorf("/debug/events has no %q event", want)
		}
	}
	if out := scrape(t, daemon.metricsAddr, "/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
}

func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	body, err := Scrape(addr, path)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
