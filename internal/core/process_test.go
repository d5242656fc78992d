package core

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	osexec "os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/workload"
)

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// serverBinary builds cmd/pdc-server once per test run and returns the
// path. Tests that need the real multi-process cluster skip when the
// toolchain cannot build it (e.g. a stripped-down environment).
func serverBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "pdc-bin-")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = dir + "/pdc-server"
		cmd := osexec.Command("go", "build", "-o", buildBin, "pdcquery/cmd/pdc-server")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build pdc-server: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Skipf("cannot build pdc-server: %v", buildErr)
	}
	return buildBin
}

// processSource builds the import source and oracle for process tests.
func processSource(t *testing.T, particles int) (*Deployment, []*query.Query, []*selection.Selection) {
	t.Helper()
	d := NewDeployment(Options{Servers: 2, RegionBytes: 8 << 10})
	c := d.CreateContainer("process-e2e")
	v := workload.GenerateVPIC(particles, 42)
	ids := make(map[string]object.ID)
	for _, name := range workload.VPICNames {
		o, err := d.ImportObject(c.ID, object.Property{
			Name: name, Type: dtype.Float32, Dims: []uint64{uint64(particles)},
		}, dtype.Bytes(v.Vars[name]))
		if err != nil {
			t.Fatalf("import %s: %v", name, err)
		}
		ids[name] = o.ID
	}
	queries := workload.SingleObjectQueries(ids["Energy"])
	truths := make([]*selection.Selection, len(queries))
	for i, q := range queries {
		sel, err := d.GroundTruth(q)
		if err != nil {
			t.Fatalf("ground truth %d: %v", i, err)
		}
		truths[i] = sel
	}
	t.Cleanup(func() { _ = d.Close() })
	return d, queries, truths
}

// TestProcessDeployment is the full multi-process story: a real catalog
// process and three real pdc-server member processes over TCP; import,
// byte-identical corpus, SIGKILL failover, replacement join, and a
// strict /metrics parse.
func TestProcessDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster skipped in -short")
	}
	bin := serverBinary(t)
	src, queries, truths := processSource(t, 4000)

	p, err := StartProcessDeployment(ProcessOptions{
		BinPath: bin, Members: 3, R: 2, Seed: 42, Metrics: true,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer p.Close()

	s, err := p.Session()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.Close()
	if err := s.Import(src); err != nil {
		t.Fatalf("import: %v", err)
	}
	if err := s.Verify(src); err != nil {
		t.Fatalf("verify: %v", err)
	}
	corpus := func(stage string) {
		for i, q := range queries {
			out, err := s.Run(q, plan.ForceScan)
			if err != nil {
				t.Fatalf("%s: query %d: %v", stage, i, err)
			}
			if !bytes.Equal(out.Sel.Encode(), truths[i].Encode()) {
				t.Fatalf("%s: query %d: differs from oracle", stage, i)
			}
		}
	}
	corpus("baseline")

	// SIGKILL one member mid-query: the kill races the corpus below, so
	// some queries see the dying member's connection drop. Answers must
	// stay byte-identical while the catalog fails over to the replicas.
	victim := p.MemberAddrs()[0]
	killDone := make(chan error, 1)
	go func() { killDone <- p.Kill(victim) }()
	corpus("during kill")
	if err := <-killDone; err != nil {
		t.Fatalf("kill: %v", err)
	}
	corpus("after kill")
	if err := p.WaitMembers(2, 15*time.Second); err != nil {
		t.Fatalf("settle after kill: %v", err)
	}

	// A replacement joins and pulls its regions from the survivors.
	if _, err := p.Spawn(); err != nil {
		t.Fatalf("replacement: %v", err)
	}
	if err := p.WaitMembers(3, 15*time.Second); err != nil {
		t.Fatalf("settle after join: %v", err)
	}
	s.Invalidate()
	if err := s.Verify(src); err != nil {
		t.Fatalf("verify after replacement: %v", err)
	}
	corpus("after replacement")

	// Strict metrics check: the catalog scrape must expose the cluster
	// gauges and the membership counters this run produced.
	body := httpGet(t, "http://"+p.MetricsAddr("catalog")+"/metrics")
	for _, want := range []string{"cluster_members 3", "cluster_member_join", "cluster_member_down"} {
		if !strings.Contains(body, want) {
			t.Errorf("catalog /metrics missing %q:\n%s", want, body)
		}
	}
	// A member scrape carries the ingest/transfer counters.
	mAddr := p.MetricsAddr(p.MemberAddrs()[0])
	if mAddr == "" {
		t.Fatal("member has no metrics address")
	}
	mBody := httpGet(t, "http://"+mAddr+"/metrics")
	if !strings.Contains(mBody, "ingest_extents") {
		t.Errorf("member /metrics missing ingest_extents:\n%s", mBody)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(b)
}

// TestProcessDrain retires a member process gracefully: its regions
// migrate off, the process exits on its own, and the survivors answer
// the corpus byte-identically.
func TestProcessDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster skipped in -short")
	}
	bin := serverBinary(t)
	src, queries, truths := processSource(t, 3000)

	p, err := StartProcessDeployment(ProcessOptions{BinPath: bin, Members: 3, R: 2, Seed: 42})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer p.Close()
	s, err := p.Session()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.Close()
	if err := s.Import(src); err != nil {
		t.Fatalf("import: %v", err)
	}
	if err := p.Drain(p.MemberAddrs()[1], 15*time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s.Invalidate()
	if err := s.Verify(src); err != nil {
		t.Fatalf("verify after drain: %v", err)
	}
	for i, q := range queries {
		out, err := s.Run(q, plan.ForceScan)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !bytes.Equal(out.Sel.Encode(), truths[i].Encode()) {
			t.Fatalf("query %d: differs from oracle after drain", i)
		}
	}
}
