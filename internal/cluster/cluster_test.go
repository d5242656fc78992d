// End-to-end cluster tests: a real catalog and members over the
// in-process network, answering the pinned corpus byte-identically to
// the single-deployment brute-force oracle through imports, crashes,
// joins, and drains.
//
// External test package: internal/core imports internal/cluster (the
// process deployment), so these tests — which use core.Deployment as
// the import source and oracle — cannot live in package cluster.
package cluster_test

import (
	"bytes"
	"testing"
	"time"

	"pdcquery/internal/cluster"
	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/workload"
)

// newSource builds a small VPIC deployment that serves as both the
// import source and the brute-force oracle. Small regions so queries
// span several extents (and therefore several placement owners).
func newSource(t *testing.T, particles int) (*core.Deployment, []*query.Query, []*selection.Selection) {
	t.Helper()
	return newSourceWith(t, particles, core.Options{Servers: 2, RegionBytes: 8 << 10})
}

// newSourceWith is newSource on a deployment with the given options.
func newSourceWith(t *testing.T, particles int, opts core.Options) (*core.Deployment, []*query.Query, []*selection.Selection) {
	t.Helper()
	d := core.NewDeployment(opts)
	c := d.CreateContainer("cluster-e2e")
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

// startCluster boots an n-member local cluster and imports the source.
func startCluster(t *testing.T, src *core.Deployment, n, r int) (*cluster.Local, *cluster.Session) {
	t.Helper()
	l, err := cluster.StartLocal(cluster.LocalOptions{Members: n, R: r, Seed: 42})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(l.Close)
	s, err := l.Session()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	t.Cleanup(s.Close)
	if err := s.Import(src); err != nil {
		t.Fatalf("import: %v", err)
	}
	return l, s
}

// runCorpus answers every query through the session and insists on
// byte-identical agreement with the oracle.
func runCorpus(t *testing.T, s *cluster.Session, queries []*query.Query, truths []*selection.Selection) {
	t.Helper()
	runCorpusForced(t, s, plan.ForceScan, queries, truths)
}

// runCorpusForced is runCorpus on the given access path.
func runCorpusForced(t *testing.T, s *cluster.Session, f plan.Force, queries []*query.Query, truths []*selection.Selection) {
	t.Helper()
	for i, q := range queries {
		out, err := s.Run(q, f)
		if err != nil {
			t.Fatalf("%v query %d: %v", f, i, err)
		}
		if !bytes.Equal(out.Sel.Encode(), truths[i].Encode()) {
			t.Fatalf("%v query %d: cluster answer differs from oracle (%d vs %d hits)",
				f, i, out.Sel.NHits, truths[i].NHits)
		}
	}
}

func TestClusterImportAndQuery(t *testing.T) {
	src, queries, truths := newSource(t, 4000)
	l, s := startCluster(t, src, 3, 2)
	if err := s.Verify(src); err != nil {
		t.Fatalf("verify after import: %v", err)
	}
	runCorpus(t, s, queries, truths)

	reg := l.Catalog().Metrics()
	if got := reg.Counter("cluster.imports"); got != 1 {
		t.Errorf("cluster.imports = %d, want 1", got)
	}
	if got := reg.Counter("cluster.member.join"); got < 3 {
		t.Errorf("cluster.member.join = %d, want >= 3", got)
	}
	if got := reg.Gauge("cluster.members"); got != 3 {
		t.Errorf("cluster.members gauge = %v, want 3", got)
	}
}

func TestClusterReplicationPlacement(t *testing.T) {
	src, _, _ := newSource(t, 2000)
	l, s := startCluster(t, src, 3, 2)
	v, err := s.View()
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	place := cluster.NewPlacement(v)
	// Every region of every object must live on exactly R distinct members.
	for _, o := range src.Meta().Objects() {
		for i := range o.Regions {
			owners := place.OwnerIDs(o.ID, i)
			if len(owners) != 2 {
				t.Fatalf("object %d region %d: %d owners, want 2", o.ID, i, len(owners))
			}
			for _, id := range owners {
				m := l.Member(id)
				if m == nil {
					t.Fatalf("object %d region %d: owner %d not running", o.ID, i, id)
				}
				rm := &o.Regions[i]
				if rm.ExtentKey != "" && !m.Store().Exists(rm.ExtentKey) {
					t.Fatalf("member %d missing replica extent %s", id, rm.ExtentKey)
				}
			}
		}
	}
}

func TestClusterFailover(t *testing.T) {
	src, queries, truths := newSource(t, 4000)
	l, s := startCluster(t, src, 3, 2)
	runCorpus(t, s, queries, truths)

	// Kill one member without a goodbye. The catalog learns through the
	// broken control connection, promotes replicas, and the session
	// retries onto the two-member view — answers stay byte-identical.
	victim := l.MemberIDs()[0]
	if err := l.Crash(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if err := l.WaitMembers(2, 5*time.Second); err != nil {
		t.Fatalf("wait after crash: %v", err)
	}
	runCorpus(t, s, queries, truths)

	reg := l.Catalog().Metrics()
	if got := reg.Counter("cluster.member.down"); got != 1 {
		t.Errorf("cluster.member.down = %d, want 1", got)
	}
	v, err := s.View()
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	if len(v.Members) != 2 {
		t.Fatalf("view has %d members after failover, want 2", len(v.Members))
	}
	if _, ok := v.Member(victim); ok {
		t.Fatalf("crashed member %d still in view", victim)
	}
}

func TestClusterJoinTransfersAndEpochRetry(t *testing.T) {
	src, queries, truths := newSource(t, 4000)
	l, s := startCluster(t, src, 3, 2)
	// Warm the session at the three-member epoch so the post-join corpus
	// run exercises the epoch-mismatch refresh path.
	runCorpus(t, s, queries[:1], truths[:1])

	m, err := l.AddMember()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := l.WaitMembers(4, 5*time.Second); err != nil {
		t.Fatalf("wait after join: %v", err)
	}
	// The joiner must have pulled every extent the new placement assigns
	// it before the commit — Verify would report the first hole.
	s.Invalidate()
	if err := s.Verify(src); err != nil {
		t.Fatalf("verify after join: %v", err)
	}
	if m.View().Epoch < 2 {
		t.Fatalf("joiner at epoch %d, want >= 2", m.View().Epoch)
	}
	runCorpus(t, s, queries, truths)

	// The joiner's server must have recorded inbound transfers unless
	// placement assigned it nothing (practically impossible at 4 members).
	if got := m.Server().Metrics().Counter("cluster.transfers"); got == 0 {
		t.Errorf("joiner recorded no transfers")
	}
}

func TestClusterDrain(t *testing.T) {
	src, queries, truths := newSource(t, 4000)
	l, s := startCluster(t, src, 3, 2)
	runCorpus(t, s, queries[:1], truths[:1])

	victim := l.MemberIDs()[1]
	if err := l.Drain(victim, 5*time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := l.WaitMembers(2, 5*time.Second); err != nil {
		t.Fatalf("wait after drain: %v", err)
	}
	// Survivors must hold everything the two-member placement assigns
	// them (the drain's rebalance moved the victim's sole copies off).
	s.Invalidate()
	if err := s.Verify(src); err != nil {
		t.Fatalf("verify after drain: %v", err)
	}
	runCorpus(t, s, queries, truths)

	reg := l.Catalog().Metrics()
	if got := reg.Counter("cluster.drains"); got != 1 {
		t.Errorf("cluster.drains = %d, want 1", got)
	}
}

func TestClusterCrashThenJoin(t *testing.T) {
	src, queries, truths := newSource(t, 4000)
	l, s := startCluster(t, src, 3, 2)
	runCorpus(t, s, queries[:1], truths[:1])

	if err := l.Crash(l.MemberIDs()[0]); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if err := l.WaitMembers(2, 5*time.Second); err != nil {
		t.Fatalf("wait after crash: %v", err)
	}
	if _, err := l.AddMember(); err != nil {
		t.Fatalf("replacement join: %v", err)
	}
	if err := l.WaitMembers(3, 5*time.Second); err != nil {
		t.Fatalf("wait after replacement: %v", err)
	}
	s.Invalidate()
	if err := s.Verify(src); err != nil {
		t.Fatalf("verify after replacement: %v", err)
	}
	runCorpus(t, s, queries, truths)
}

func TestClusterTagQuery(t *testing.T) {
	src, _, _ := newSource(t, 2000)
	// Tag every object before the import so the tags travel in the
	// metadata snapshot to every member.
	all := src.Meta().Objects()
	if len(all) == 0 {
		t.Fatal("no objects")
	}
	for _, o := range all {
		if err := src.Meta().AddTag(o.ID, "kind", "vpic"); err != nil {
			t.Fatalf("tag %d: %v", o.ID, err)
		}
	}
	_, s := startCluster(t, src, 3, 2)
	// Every member holds the full metadata snapshot; the TagOwner seam
	// must keep the cluster-wide union exact — no duplicates from the
	// R-way replication, no holes.
	ids, err := s.QueryTag([]metadata.TagCond{{Key: "kind", Value: "vpic"}})
	if err != nil {
		t.Fatalf("tag query: %v", err)
	}
	seen := make(map[object.ID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate object %d in cluster tag query", id)
		}
		seen[id] = true
	}
	if len(ids) != len(all) {
		t.Fatalf("tag query returned %d objects, want %d", len(ids), len(all))
	}
}

// TestPreparedRebuiltAfterRebalance: a member's prepared entries are
// valid for one placement epoch. After an AddMember rebalance every
// original member prepares each statement again, once per distinct
// statement, and every answer is still the oracle's.
func TestPreparedRebuiltAfterRebalance(t *testing.T) {
	src, queries, truths := newSource(t, 4000)
	l, s := startCluster(t, src, 3, 2)
	distinct := map[string]bool{}
	for _, q := range queries {
		distinct[string(q.Encode())] = true
	}
	original := l.MemberIDs()
	misses := func() []int64 {
		out := make([]int64, len(original))
		for i, id := range original {
			out[i] = l.Member(id).Server().Metrics().Counter("plan.cache_misses")
		}
		return out
	}
	runCorpus(t, s, queries, truths)
	runCorpus(t, s, queries, truths)
	before := misses()
	if _, err := l.AddMember(); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := l.WaitMembers(4, 5*time.Second); err != nil {
		t.Fatalf("wait after join: %v", err)
	}
	runCorpus(t, s, queries, truths)
	runCorpus(t, s, queries, truths)
	for i, n := range misses() {
		if got := n - before[i]; got != int64(len(distinct)) {
			t.Errorf("member %d: %d plan-cache misses after the rebalance, want one per statement (%d)", original[i], got, len(distinct))
		}
	}
}
