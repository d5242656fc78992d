package cluster

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"pdcquery/internal/simio"
	"pdcquery/internal/telemetry"
)

// LocalOptions configures an in-process cluster.
type LocalOptions struct {
	// Members is the initial member count (≥1).
	Members int
	// R is the replication factor (default 2).
	R int
	// Seed parameterizes placement.
	Seed uint64
	// Workers, CacheBytes configure each member's server.
	Workers    int
	CacheBytes int64
	// Model overrides the storage cost model for members.
	Model *simio.Model
}

// Local is a whole cluster in one process: a catalog and N members over
// pipe transport. It is the deterministic harness behind the cluster
// tests, the chaos mode, and the scale-out bench — same placement, same
// protocol, same failover paths as the process deployment, no sockets.
type Local struct {
	opts    LocalOptions
	net     *LocalNetwork
	catalog *Catalog
	catLis  Listener
	catAddr string

	wg sync.WaitGroup

	mu      sync.Mutex
	members map[MemberID]*Member
}

// StartLocal boots a catalog and the initial members, waiting until the
// committed view includes them all.
func StartLocal(opts LocalOptions) (*Local, error) {
	if opts.Members < 1 {
		opts.Members = 1
	}
	if opts.R <= 0 {
		opts.R = 2
	}
	l := &Local{
		opts:    opts,
		net:     NewLocalNetwork(),
		members: make(map[MemberID]*Member),
	}
	l.catalog = NewCatalog(CatalogConfig{Seed: opts.Seed, R: opts.R})
	lis, err := l.net.Listen("catalog")
	if err != nil {
		return nil, err
	}
	l.catLis = lis
	l.catAddr = lis.Addr()
	l.wg.Add(1)
	go l.acceptCatalog()
	for i := 0; i < opts.Members; i++ {
		if _, err := l.AddMember(); err != nil {
			l.Close()
			return nil, err
		}
	}
	if err := l.WaitMembers(opts.Members, 5*time.Second); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

func (l *Local) acceptCatalog() {
	defer l.wg.Done()
	for {
		conn, err := l.catLis.Accept()
		if err != nil {
			return
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.catalog.ServeConn(conn)
		}()
	}
}

// Catalog exposes the catalog (tests drive heartbeat expiry and inspect
// metrics through it).
func (l *Local) Catalog() *Catalog { return l.catalog }

// CatalogAddr returns the catalog endpoint on the local network.
func (l *Local) CatalogAddr() string { return l.catAddr }

// Net returns the in-process network fabric.
func (l *Local) Net() *LocalNetwork { return l.net }

// AddMember starts one more member (a join: the catalog rebalances and
// the joiner pulls its regions from current owners).
func (l *Local) AddMember() (*Member, error) {
	m, err := StartMember(MemberOptions{
		Net:         l.net,
		CatalogAddr: l.catAddr,
		Workers:     l.opts.Workers,
		CacheBytes:  l.opts.CacheBytes,
		Model:       l.opts.Model,
	})
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.members[m.ID()] = m
	l.mu.Unlock()
	return m, nil
}

// Member returns a running member by ID (nil if unknown or crashed).
func (l *Local) Member(id MemberID) *Member {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.members[id]
}

// MemberIDs lists the running members in ID order.
func (l *Local) MemberIDs() []MemberID {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]MemberID, 0, len(l.members))
	for id := range l.members {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Crash SIGKILLs a member, in-proc style: all its connections drop and
// the catalog finds out through broken pipes, not a goodbye.
func (l *Local) Crash(id MemberID) error {
	l.mu.Lock()
	m := l.members[id]
	delete(l.members, id)
	l.mu.Unlock()
	if m == nil {
		return fmt.Errorf("cluster: no member %d", id)
	}
	m.Crash()
	return nil
}

// Drain gracefully removes a member through the catalog and waits for
// it to exit.
func (l *Local) Drain(id MemberID, timeout time.Duration) error {
	l.mu.Lock()
	m := l.members[id]
	l.mu.Unlock()
	if m == nil {
		return fmt.Errorf("cluster: no member %d", id)
	}
	s, err := DialSession(SessionOptions{Net: l.net, CatalogAddr: l.catAddr})
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.Drain(id); err != nil {
		return err
	}
	if !waitDone(m.Done(), timeout) {
		return fmt.Errorf("cluster: member %d did not exit after drain", id)
	}
	l.mu.Lock()
	delete(l.members, id)
	l.mu.Unlock()
	return nil
}

// waitPoll is the polling interval of the Local harness's wait loops,
// paced through the telemetry sleep seam (the nondeterminism contract
// keeps raw timers out of production packages).
const waitPoll = 200 * time.Microsecond

func waitDone(done <-chan struct{}, timeout time.Duration) bool {
	for waited := time.Duration(0); ; waited += waitPoll {
		select {
		case <-done:
			return true
		default:
		}
		if waited >= timeout {
			return false
		}
		telemetry.WallSleep.Sleep(waitPoll)
	}
}

// WaitMembers blocks until the committed view has n members and every
// running member it lists has installed it (the rebalance protocol runs
// in member/catalog goroutines, so even the in-proc cluster has
// genuinely asynchronous commits — and a commit reaches each member on
// its own goroutine: a session that reads the committed view from the
// catalog a moment earlier is answered "not serving at epoch" until it
// does, and the harness's sessions retry without sleeping).
func (l *Local) WaitMembers(n int, timeout time.Duration) error {
	for waited := time.Duration(0); ; waited += waitPoll {
		v := l.catalog.CommittedView()
		if len(v.Members) == n && l.installed(v) {
			return nil
		}
		if waited >= timeout {
			return fmt.Errorf("cluster: %d members in view after %v, want %d", len(v.Members), timeout, n)
		}
		telemetry.WallSleep.Sleep(waitPoll)
	}
}

// installed reports whether every running member v lists serves at v's
// epoch.
func (l *Local) installed(v View) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, mi := range v.Members {
		if m := l.members[mi.ID]; m != nil && m.View().Epoch != v.Epoch {
			return false
		}
	}
	return true
}

// Session opens a catalog-aware client session on the local cluster.
func (l *Local) Session() (*Session, error) {
	return DialSession(SessionOptions{Net: l.net, CatalogAddr: l.catAddr})
}

// Close tears the whole cluster down.
func (l *Local) Close() {
	l.catalog.Close()
	_ = l.catLis.Close()
	l.mu.Lock()
	members := make([]*Member, 0, len(l.members))
	for _, m := range l.members {
		members = append(members, m)
	}
	l.members = make(map[MemberID]*Member)
	l.mu.Unlock()
	for _, m := range members {
		m.Crash()
	}
}
