// pdc-clustersmoke is the end-to-end smoke test of the multi-process
// cluster: it boots a real pdc-server catalog plus three pdc-server
// member processes over TCP, imports a dataset through the catalog with
// R=2 replication, and answers the chaos harness's seeded statements
// exactly as an in-process brute-force oracle does — including while one
// member is SIGKILLed mid-corpus and a replacement joins and pulls its
// regions.
// It finishes by scraping the catalog's and members' /metrics,
// validating the exposition strictly, and probing one member's
// /debug/pprof.
//
// CI runs it via `make cluster-smoke`. Exit status 0 means the whole
// distributed path — catalog placement, import replication, epoch-
// stamped routing, crash failover, join transfer — works against live
// processes, not just the in-proc harness.
//
//	pdc-clustersmoke -server bin/pdc-server [-particles 4096]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"pdcquery/internal/core"
	"pdcquery/internal/fault"
	"pdcquery/internal/telemetry"
)

func main() {
	serverBin := flag.String("server", "bin/pdc-server", "path to the pdc-server binary")
	particles := flag.Int("particles", 4096, "VPIC particles in the smoke dataset")
	timeout := flag.Duration("timeout", 120*time.Second, "overall deadline for the smoke run")
	flag.Parse()

	deadline := telemetry.Wall.Now() + timeout.Nanoseconds()

	// The oracle: an in-proc deployment holding the same dataset. Ground
	// truth comes from clean brute-force reads before the cluster exists.
	src, oracle, err := fault.Source(*particles, core.Options{Servers: 2})
	if err != nil {
		log.Fatalf("cluster-smoke: oracle: %v", err)
	}

	p, err := core.StartProcessDeployment(core.ProcessOptions{
		BinPath: *serverBin,
		Members: 3, R: 2, Seed: 42,
		Metrics: true,
		Stderr:  os.Stderr,
	})
	if err != nil {
		log.Fatalf("cluster-smoke: start cluster: %v", err)
	}
	defer p.Close()
	log.Printf("cluster-smoke: catalog %s, members %v", p.CatalogAddr(), p.MemberAddrs())

	s, err := p.Session()
	if err != nil {
		log.Fatalf("cluster-smoke: session: %v", err)
	}
	defer s.Close()
	if err := s.Import(src); err != nil {
		log.Fatalf("cluster-smoke: import: %v", err)
	}
	if err := s.Verify(src); err != nil {
		log.Fatalf("cluster-smoke: verify after import: %v", err)
	}
	log.Printf("cluster-smoke: imported %d objects with R=2", len(src.Meta().Objects()))

	// One pass over the paper's fifteen windows, drawn (forcing, spelling,
	// projection) and checked as the chaos harness does; no error allowed.
	corpus := func(stage string) {
		if _, err := oracle.Pass(s, 42, 15, true); err != nil {
			log.Fatalf("cluster-smoke: %s: %v", stage, err)
		}
		log.Printf("cluster-smoke: %s: 15 statements exact against the oracle", stage)
	}
	corpus("baseline")

	// SIGKILL one member so the kill races the corpus: queries that catch
	// the dying member fail over onto the replicas, and every answer must
	// still be exact.
	victim := p.MemberAddrs()[0]
	killDone := make(chan error, 1)
	go func() { killDone <- p.Kill(victim) }()
	corpus("during kill")
	if err := <-killDone; err != nil {
		log.Fatalf("cluster-smoke: kill: %v", err)
	}
	if err := p.WaitMembers(2, remaining(deadline)); err != nil {
		log.Fatalf("cluster-smoke: settle after kill: %v", err)
	}
	log.Printf("cluster-smoke: killed %s, failover clean", victim)

	// A replacement joins; the catalog rebalances and the joiner pulls
	// its regions from the survivors before the new view commits.
	replacement, err := p.Spawn()
	if err != nil {
		log.Fatalf("cluster-smoke: replacement: %v", err)
	}
	if err := p.WaitMembers(3, remaining(deadline)); err != nil {
		log.Fatalf("cluster-smoke: settle after join: %v", err)
	}
	s.Invalidate()
	if err := s.Verify(src); err != nil {
		log.Fatalf("cluster-smoke: verify after replacement: %v", err)
	}
	corpus("after replacement")
	log.Printf("cluster-smoke: replacement %s joined and holds its regions", replacement)

	// Strict metrics: every scrape must parse cleanly and carry the
	// series the cluster run just produced.
	checkMetrics("catalog", p.MetricsAddr("catalog"), deadline,
		"cluster_members 3", "cluster_member_join", "cluster_member_down", "cluster_rebalances", "cluster_imports 1")
	checkMetrics("survivor", p.MetricsAddr(p.MemberAddrs()[0]), deadline,
		"ingest_extents", "cluster_epoch", "query_count")
	checkMetrics("replacement", p.MetricsAddr(replacement), deadline,
		"cluster_transfers", "cluster_transfer_bytes", "cluster_epoch")

	// A member is profiled over the same listener, as the standalone
	// daemon is (pdc-debugsmoke): the pprof surface must answer.
	if out := httpGet("http://"+p.MetricsAddr(p.MemberAddrs()[0])+"/debug/pprof/cmdline", deadline); len(out) == 0 {
		log.Fatal("cluster-smoke: survivor /debug/pprof/cmdline returned nothing")
	}
	log.Print("cluster-smoke: survivor /debug/pprof OK")

	fmt.Println("cluster-smoke: PASS")
}

// checkMetrics scrapes one process's /metrics, insists the exposition
// parses strictly, and checks the expected series are present.
func checkMetrics(who, addr string, deadline int64, wants ...string) {
	if addr == "" {
		log.Fatalf("cluster-smoke: %s has no metrics address", who)
	}
	body := httpGet("http://"+addr+"/metrics", deadline)
	if err := telemetry.CheckPrometheusText(body); err != nil {
		log.Fatalf("cluster-smoke: %s /metrics failed strict parse: %v", who, err)
	}
	for _, want := range wants {
		if !strings.Contains(string(body), want) {
			log.Fatalf("cluster-smoke: %s /metrics missing expected series %q", who, want)
		}
	}
	log.Printf("cluster-smoke: %s /metrics OK (%d bytes, strict parse clean)", who, len(body))
}

// httpGet fetches a URL, retrying until the debug listener answers,
// and requires a 200.
func httpGet(url string, deadline int64) []byte {
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				log.Fatalf("cluster-smoke: read %s: %v", url, rerr)
			}
			if resp.StatusCode != http.StatusOK {
				log.Fatalf("cluster-smoke: GET %s: status %d", url, resp.StatusCode)
			}
			return body
		}
		if telemetry.Wall.Now() > deadline {
			log.Fatalf("cluster-smoke: GET %s: %v", url, err)
		}
		telemetry.WallSleep.Sleep(100 * time.Millisecond)
	}
}

// remaining converts the absolute deadline into a wait budget.
func remaining(deadline int64) time.Duration {
	d := time.Duration(deadline - telemetry.Wall.Now())
	if d < time.Second {
		d = time.Second
	}
	return d
}
