package cluster_test

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"pdcquery/internal/cluster"
	"pdcquery/internal/core"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/server"
	"pdcquery/internal/simio"
	"pdcquery/internal/transport"
)

// newIndexedSource is newSource with a bitmap index per region, so an
// import ships two extents per region and the corpus can run on either
// access path.
func newIndexedSource(t *testing.T, particles int) (*core.Deployment, []*query.Query, []*selection.Selection) {
	t.Helper()
	return newSourceWith(t, particles, core.Options{Servers: 2, RegionBytes: 8 << 10, BuildIndex: true})
}

func TestClusterImportReplicatedIndexed(t *testing.T) {
	src, queries, truths := newIndexedSource(t, 20000)
	_, s := startCluster(t, src, 3, 2)
	if err := s.Verify(src); err != nil {
		t.Fatalf("verify after import: %v", err)
	}
	runCorpusForced(t, s, plan.ForceScan, queries, truths)
	runCorpusForced(t, s, plan.ForceBitmap, queries, truths)
}

// multiFrameParticles sizes the import tests that need a member to get
// several frames: 3.5 MiB of data over seven variables, of which each
// of three members owns two thirds.
const multiFrameParticles = 1 << 17

// TestClusterImportQueueDepthOne imports into members whose admission
// queue holds one request: the importer's window overruns it, the members
// answer MsgBusy, and the import still lands every extent.
func TestClusterImportQueueDepthOne(t *testing.T) {
	src, queries, truths := newIndexedSource(t, multiFrameParticles)
	l, err := cluster.StartLocal(cluster.LocalOptions{Members: 1, R: 2, Seed: 42})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(l.Close)
	var shallow []*cluster.Member
	for range 2 {
		m, err := cluster.StartMember(cluster.MemberOptions{
			Net: l.Net(), CatalogAddr: l.CatalogAddr(), Workers: 1, QueueDepth: 1,
		})
		if err != nil {
			t.Fatalf("start member: %v", err)
		}
		t.Cleanup(m.Crash)
		shallow = append(shallow, m)
	}
	waitInstalled(t, l, shallow, 3)
	s, err := l.Session()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	t.Cleanup(s.Close)
	if err := s.Import(src); err != nil {
		t.Fatalf("import: %v", err)
	}
	if err := s.Verify(src); err != nil {
		t.Fatalf("verify after import: %v", err)
	}
	var rejected int64
	for _, m := range shallow {
		rejected += m.Server().Metrics().Counter("sched.rejected")
	}
	if rejected == 0 {
		t.Error("no member answered MsgBusy: the test no longer exercises the resend path")
	}
	runCorpusForced(t, s, plan.ForceBitmap, queries, truths)
}

// waitInstalled waits until the committed view has n members and every
// member in ms serves at its epoch (Local.WaitMembers only knows the
// members Local started).
func waitInstalled(t *testing.T, l *cluster.Local, ms []*cluster.Member, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v := l.Catalog().CommittedView()
		ok := len(v.Members) == n
		for _, m := range ms {
			ok = ok && m.View().Epoch == v.Epoch
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d members in the committed view, want %d", len(v.Members), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// failingNet dials through to the local network, but the connections it
// opens to addr corrupt the k-th put-extents frame, which the member
// then rejects with MsgError.
type failingNet struct {
	cluster.Network
	addr string
	k    int64
	sent atomic.Int64
}

func (n *failingNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil || addr != n.addr {
		return c, err
	}
	return &failingConn{Conn: c, net: n}, nil
}

type failingConn struct {
	transport.Conn
	net *failingNet
}

func (c *failingConn) Send(m transport.Message) error {
	if m.Type == server.MsgPutExtents && c.net.sent.Add(1) == c.net.k {
		m.Payload = []byte{0xff} // shorter than its own extent count
	}
	return c.Conn.Send(m)
}

// TestClusterImportMemberError has one member reject its second frame:
// Import returns that member's error, and every goroutine the import
// started has exited by then or soon after (member-side session loops
// wind down when their connections close).
func TestClusterImportMemberError(t *testing.T) {
	src, _, _ := newIndexedSource(t, multiFrameParticles)
	l, err := cluster.StartLocal(cluster.LocalOptions{Members: 3, R: 2, Seed: 42})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(l.Close)
	victim := l.MemberIDs()[1]
	fnet := &failingNet{Network: l.Net(), addr: l.Member(victim).Addr(), k: 2}
	s, err := cluster.DialSession(cluster.SessionOptions{Net: fnet, CatalogAddr: l.CatalogAddr()})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	t.Cleanup(s.Close)

	// A member starts its dispatcher pool on its first connection, and
	// those goroutines live as long as the member: one stats round trip
	// per member first, so the baseline already counts them.
	for _, id := range l.MemberIDs() {
		c, err := l.Net().Dial(l.Member(id).Addr())
		if err != nil {
			t.Fatalf("dial member %d: %v", id, err)
		}
		if err := c.Send(transport.Message{Type: server.MsgStats, ReqID: 1}); err != nil {
			t.Fatalf("stats to member %d: %v", id, err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatalf("stats from member %d: %v", id, err)
		}
		_ = c.Close()
	}
	base := runtime.NumGoroutine()
	err = s.Import(src)
	if err == nil {
		t.Fatal("import succeeded although a member rejected an extent")
	}
	if !strings.Contains(err.Error(), "extents result: truncated") {
		t.Errorf("import error %q does not carry the member's rejection", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("%d goroutines after the failed import, %d before", g, base)
	}
}

// TestClusterStoredExtentsAligned checks that a member stores every
// extent 8-aligned although it keeps the received frame as the extent's
// storage: after an import, and on a joiner whose every extent came in
// the rebalance's transfer frames. Typed views (float64, uint64) over
// the stored bytes are then aligned.
func TestClusterStoredExtentsAligned(t *testing.T) {
	src, _, _ := newIndexedSource(t, 20000)
	l, _ := startCluster(t, src, 3, 2)
	for _, id := range l.MemberIDs() {
		requireAligned(t, "import", l.Member(id).Store())
	}
	m, err := l.AddMember()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := l.WaitMembers(4, 5*time.Second); err != nil {
		t.Fatalf("wait after join: %v", err)
	}
	if got := m.Server().Metrics().Counter("cluster.transfers"); got == 0 {
		t.Fatal("joiner recorded no transfers")
	}
	requireAligned(t, "rebalance", m.Store())
}

// requireAligned fails on any extent of store whose bytes do not start
// at an 8-aligned address.
func requireAligned(t *testing.T, when string, store *simio.Store) {
	t.Helper()
	keys := store.Keys()
	if len(keys) == 0 {
		t.Fatalf("after %s: member stores no extents", when)
	}
	for _, key := range keys {
		b, err := store.ReadAll(nil, key)
		if err != nil {
			t.Fatalf("after %s: read %s: %v", when, key, err)
		}
		if len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
			t.Errorf("after %s: extent %s starts at address %#x, not 8-aligned", when, key, uintptr(unsafe.Pointer(&b[0])))
		}
	}
}
