package cluster

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pdcquery/internal/exec"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/server"
	"pdcquery/internal/simio"
	"pdcquery/internal/sortstore"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// MemberOptions configures one cluster member (a pdc-server process in
// cluster mode, or an in-proc member under the Local harness).
type MemberOptions struct {
	// Net is the transport fabric (TCPNetwork for processes,
	// LocalNetwork for in-proc tests). Required.
	Net Network
	// CatalogAddr is the catalog endpoint to join. Required.
	CatalogAddr string
	// ListenAddr is the member's serving endpoint ("" auto-assigns:
	// a free port under TCP, a generated name under LocalNetwork).
	ListenAddr string
	// Workers, QueueDepth configure the embedded query server exactly
	// as server.Config does.
	Workers    int
	QueueDepth int
	// Model overrides the storage cost model (nil = simio.DefaultModel).
	Model *simio.Model
	// Clock and Log thread into the embedded server (trace spans,
	// slow-query log). Nil Clock keeps everything virtual-time only.
	Clock telemetry.Clock
	Log   *slog.Logger
	// HeartbeatNs > 0 starts a heartbeat goroutine beating that often,
	// paced by Sleeper (daemons pass telemetry.WallSleep; deterministic
	// tests leave it zero and drive liveness through explicit inputs).
	HeartbeatNs int64
	Sleeper     telemetry.Sleeper
	// RecorderEvents sizes the member's flight recorder ring (0 = the
	// telemetry default).
	RecorderEvents int
}

// viewState is the atomically swapped placement snapshot: the assign
// path reads epoch check and region share from one pointer load, so a
// rebalance can never split a request across two views.
type viewState struct {
	view  View
	place *Placement

	// shares memoises each object's region share — the regions this
	// member is primary for — so a query costs one lookup instead of a
	// ring walk per region. view and place never change after install,
	// so neither does a share; the memo is dropped with the viewState on
	// the next install.
	mu     sync.Mutex
	shares map[object.ID]regionShare
}

// regionShare is one object's memoised share, valid for an object of
// nregions regions (a re-import may change the decomposition).
type regionShare struct {
	nregions int
	orig     []int
}

func newViewState(v View, place *Placement) *viewState {
	return &viewState{view: v.Clone(), place: place, shares: make(map[object.ID]regionShare)}
}

// share returns the regions of obj (decomposed into nregions regions)
// that member id is primary for, in ascending order. The result is the
// memo itself, shared by every concurrent query: exec.Assignment.Orig is
// read-only by contract.
func (vs *viewState) share(id MemberID, obj object.ID, nregions int) []int {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	sh, ok := vs.shares[obj]
	if !ok || sh.nregions != nregions {
		sh = regionShare{nregions: nregions}
		for r := 0; r < nregions; r++ {
			if vs.place.Primary(obj, r) == id {
				sh.orig = append(sh.orig, r)
			}
		}
		vs.shares[obj] = sh
	}
	return sh.orig
}

// Member is one cluster data server: an embedded query server over a
// private store, plus the catalog agent that keeps its placement view
// current (transfers on Prepare, installs on Commit, heartbeats).
type Member struct {
	opts MemberOptions
	net  Network

	store *simio.Store
	meta  *metadata.Service
	srv   *server.Server
	reg   *telemetry.Registry
	acct  *vclock.Account // transfer/ingest I/O account

	id      MemberID
	lis     Listener
	catConn transport.Conn

	vs atomic.Pointer[viewState]

	done chan struct{} // closed when the member leaves the cluster
	wg   sync.WaitGroup

	mu     sync.Mutex
	conns  map[transport.Conn]struct{}
	closed bool
}

// StartMember joins the catalog and starts serving. On return the
// member has its ID, the committed view at join time, and the metadata
// snapshot; it becomes queryable once the catalog commits a view that
// includes it.
func StartMember(opts MemberOptions) (*Member, error) {
	if opts.Net == nil {
		return nil, fmt.Errorf("cluster: MemberOptions.Net is required")
	}
	if opts.Sleeper == nil {
		opts.Sleeper = telemetry.NoSleep
	}
	model := simio.DefaultModel()
	if opts.Model != nil {
		model = *opts.Model
	}

	m := &Member{
		opts:  opts,
		net:   opts.Net,
		store: simio.New(model),
		meta:  metadata.NewService(),
		reg:   telemetry.NewRegistry(),
		acct:  vclock.NewAccount(),
		conns: make(map[transport.Conn]struct{}),
		done:  make(chan struct{}),
	}

	lis, err := opts.Net.Listen(opts.ListenAddr)
	if err != nil {
		return nil, err
	}
	m.lis = lis

	cat, err := opts.Net.Dial(opts.CatalogAddr)
	if err != nil {
		_ = lis.Close()
		return nil, err
	}
	m.catConn = cat
	if err := cat.Send(transport.Message{Type: MsgCatHello, Payload: EncodeHello(lis.Addr())}); err != nil {
		_ = lis.Close()
		_ = cat.Close()
		return nil, err
	}
	reply, err := cat.Recv()
	if err != nil {
		_ = lis.Close()
		_ = cat.Close()
		return nil, err
	}
	if reply.Type == MsgCatError {
		_ = lis.Close()
		_ = cat.Close()
		return nil, fmt.Errorf("cluster: join rejected: %s", reply.Payload)
	}
	if reply.Type != MsgCatHelloResult {
		_ = lis.Close()
		_ = cat.Close()
		return nil, fmt.Errorf("cluster: unexpected join reply %s", CatMsgName(reply.Type))
	}
	hr, err := DecodeHelloResult(reply.Payload)
	if err != nil {
		_ = lis.Close()
		_ = cat.Close()
		return nil, err
	}
	m.id = hr.ID
	if len(hr.Meta) > 0 {
		if err := m.meta.Restore(hr.Meta); err != nil {
			_ = lis.Close()
			_ = cat.Close()
			return nil, err
		}
	}
	m.installView(hr.View)

	m.srv = server.New(server.Config{
		ID:             int(hr.ID),
		N:              1,
		Store:          m.store,
		Meta:           m.meta,
		Workers:        opts.Workers,
		QueueDepth:     opts.QueueDepth,
		Clock:          opts.Clock,
		Log:            opts.Log,
		RecorderEvents: opts.RecorderEvents,
		Assign:         m.assign,
		Ingest:         true,
		ExtraMetrics:   m.reg,
		TagOwner:       m.ownsTag,
	})

	m.wg.Add(2)
	go m.acceptLoop()
	go m.catalogLoop()
	if opts.HeartbeatNs > 0 {
		m.wg.Add(1)
		go m.heartbeatLoop()
	}
	return m, nil
}

// ID returns the catalog-assigned member ID.
func (m *Member) ID() MemberID { return m.id }

// Addr returns the member's serving address.
func (m *Member) Addr() string { return m.lis.Addr() }

// Done is closed when the member leaves the cluster (drained out of the
// committed view, crashed, or closed).
func (m *Member) Done() <-chan struct{} { return m.done }

// View returns the member's installed placement view (zero View before
// the first install).
func (m *Member) View() View {
	if vs := m.vs.Load(); vs != nil {
		return vs.view.Clone()
	}
	return View{}
}

// Server exposes the embedded query server (metrics, recorder).
func (m *Member) Server() *server.Server { return m.srv }

// Store exposes the member's private storage substrate (tests assert
// transfer effects through it).
func (m *Member) Store() *simio.Store { return m.store }

// TransferAccount is the account the member charges the extents it
// installs from a rebalance transfer. What it serves — imports, fetches
// for other members, queries — is charged to its server's Account.
func (m *Member) TransferAccount() *vclock.Account { return m.acct }

// installView swaps the placement snapshot and refreshes the membership
// gauges the server's Metrics merges in.
func (m *Member) installView(v View) {
	m.vs.Store(newViewState(v, NewPlacement(v)))
	m.reg.SetGauge("cluster.epoch", float64(v.Epoch))
	m.reg.SetGauge("cluster.view.members", float64(len(v.Members)))
}

// assign is the server's Assign func: one atomic snapshot gives
// both the epoch check and the region share, so queries are evaluated
// under exactly one placement or rejected.
func (m *Member) assign(epoch uint64, anchor *object.Object, rep *sortstore.Replica) (exec.Assignment, error) {
	vs := m.vs.Load()
	if vs == nil {
		return exec.Assignment{}, fmt.Errorf("cluster: member %d has no installed view", m.id)
	}
	if _, serving := vs.view.Member(m.id); !serving {
		return exec.Assignment{}, fmt.Errorf("cluster: member %d not serving at epoch %d", m.id, vs.view.Epoch)
	}
	if epoch != vs.view.Epoch {
		return exec.Assignment{}, fmt.Errorf("cluster: epoch mismatch: request %d, member at %d", epoch, vs.view.Epoch)
	}
	// Sorted replicas are not replicated across the cluster; cluster
	// deployments evaluate from original regions (rep stays unused).
	_ = rep
	return exec.Assignment{Orig: vs.share(m.id, anchor.ID, len(anchor.Regions))}, nil
}

// ownsTag shards tag-query answers: the member answers for an object
// iff it is the placement primary of the object's first region, keeping
// the client-side union disjoint across members.
func (m *Member) ownsTag(id object.ID) bool {
	vs := m.vs.Load()
	if vs == nil {
		return false
	}
	if _, serving := vs.view.Member(m.id); !serving {
		return false
	}
	return vs.place.Primary(id, 0) == m.id
}

func (m *Member) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.lis.Accept()
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			_ = conn.Close()
			return
		}
		m.conns[conn] = struct{}{}
		m.mu.Unlock()
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			_ = m.srv.Serve(conn)
			_ = conn.Close()
			m.mu.Lock()
			delete(m.conns, conn)
			m.mu.Unlock()
		}()
	}
}

// catalogLoop consumes catalog pushes: Prepare (transfer + ack) and
// Commit (install, or exit when drained out of the view). A broken
// catalog connection is not fatal — the member keeps serving its last
// installed view; the catalog marks it down on its side.
func (m *Member) catalogLoop() {
	defer m.wg.Done()
	for {
		msg, err := m.catConn.Recv()
		if err != nil {
			return
		}
		switch msg.Type {
		case MsgCatPrepare:
			p, err := DecodePrepare(msg.Payload)
			if err != nil {
				continue
			}
			m.handlePrepare(p)
		case MsgCatCommit:
			v, err := DecodeView(msg.Payload)
			if err != nil {
				continue
			}
			m.handleCommit(v)
			if _, serving := v.Member(m.id); !serving {
				// Drained: the cluster no longer routes to this member.
				m.shutdown()
				return
			}
		}
	}
}

func (m *Member) heartbeatLoop() {
	defer m.wg.Done()
	period := time.Duration(m.opts.HeartbeatNs)
	for {
		select {
		case <-m.done:
			return
		default:
		}
		m.opts.Sleeper.Sleep(period)
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return
		}
		if err := m.catConn.Send(transport.Message{Type: MsgCatHeartbeat, Payload: EncodeMemberID(m.id)}); err != nil {
			return
		}
	}
}

// handlePrepare pulls the extents the pending view assigns to this
// member but its store lacks, then acks readiness for the epoch. The
// fetch plan is a pure diff of the two placements over local metadata.
func (m *Member) handlePrepare(p Prepare) {
	if _, ok := p.Pending.Member(m.id); ok {
		srcPlace := NewPlacement(p.Source)
		pendPlace := NewPlacement(p.Pending)
		needs := m.missingExtents(srcPlace, pendPlace, p.Pending)
		for _, src := range sortedSources(needs) {
			m.fetchFrom(p, src, needs[src])
		}
	}
	_ = m.catConn.Send(transport.Message{Type: MsgCatReady, Payload: EncodeReady(m.id, p.Pending.Epoch)})
}

// missingExtents groups the keys this member must fetch by source
// member: for each region the pending placement assigns here (primary
// or replica) whose extent is absent locally, the source is the first
// old owner that is still alive (present in the pending view) and is
// not this member.
func (m *Member) missingExtents(srcPlace, pendPlace *Placement, pending View) map[MemberID][]string {
	needs := make(map[MemberID][]string)
	for _, o := range m.meta.Objects() {
		for i := range o.Regions {
			if !pendPlace.Owns(m.id, o.ID, i) {
				continue
			}
			rm := &o.Regions[i]
			keys := make([]string, 0, 2)
			if rm.ExtentKey != "" && !m.store.Exists(rm.ExtentKey) {
				keys = append(keys, rm.ExtentKey)
			}
			if rm.IndexKey != "" && !m.store.Exists(rm.IndexKey) {
				keys = append(keys, rm.IndexKey)
			}
			if len(keys) == 0 {
				continue
			}
			src := MemberID(-1)
			for _, owner := range srcPlace.OwnerIDs(o.ID, i) {
				if owner == m.id {
					continue
				}
				if _, alive := pending.Member(owner); alive {
					src = owner
					break
				}
			}
			if src < 0 {
				// No live source holds the region (e.g. the whole owner
				// set died). Nothing to fetch from; queries over it will
				// surface storage errors rather than wrong answers.
				m.reg.Add("cluster.transfer.unsourced", 1)
				continue
			}
			needs[src] = append(needs[src], keys...)
		}
	}
	return needs
}

func sortedSources(needs map[MemberID][]string) []MemberID {
	out := make([]MemberID, 0, len(needs))
	for id := range needs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// transferBatch bounds the keys per MsgFetchExtents request so a
// rebalance streams in chunks instead of one giant frame.
const transferBatch = 64

// fetchFrom streams the given keys from one source member and writes
// them into local storage.
func (m *Member) fetchFrom(p Prepare, src MemberID, keys []string) {
	info, ok := p.Source.Member(src)
	if !ok {
		info, ok = p.Pending.Member(src)
	}
	if !ok {
		return
	}
	conn, err := m.net.Dial(info.Addr)
	if err != nil {
		m.reg.Add("cluster.transfer.errors", 1)
		return
	}
	defer func() { _ = conn.Close() }()
	var regions, bytes int64
	for start := 0; start < len(keys); start += transferBatch {
		end := start + transferBatch
		if end > len(keys) {
			end = len(keys)
		}
		batch := keys[start:end]
		if err := conn.Send(transport.Message{Type: server.MsgFetchExtents, Payload: server.EncodeFetchExtents(batch)}); err != nil {
			m.reg.Add("cluster.transfer.errors", 1)
			return
		}
		reply, err := conn.Recv()
		if err != nil || reply.Type != server.MsgExtentsResult {
			m.reg.Add("cluster.transfer.errors", 1)
			return
		}
		// No request token: a transfer runs on the member's own behalf,
		// and only its connection's end cuts it short.
		stored, missing, n, err := server.InstallExtents(nil, m.store, m.acct, reply.Payload)
		if err != nil {
			m.reg.Add("cluster.transfer.errors", 1)
			return
		}
		if missing > 0 {
			m.reg.Add("cluster.transfer.unsourced", missing)
		}
		regions += stored
		bytes += n
	}
	if regions > 0 {
		m.srv.Recorder().Record(telemetry.EvTransfer, 0, int32(src), 0, regions, bytes)
		m.reg.Add("cluster.transfers", regions)
		m.reg.Add("cluster.transfer.bytes", bytes)
	}
}

// handleCommit installs a committed view, recording promotions: regions
// whose previous primary left the view and whose new primary is this
// member are failover promotions (served from the local replica, no
// data movement).
func (m *Member) handleCommit(v View) {
	prev := m.vs.Load()
	if prev != nil && v.Epoch <= prev.view.Epoch {
		return // stale push
	}
	place := NewPlacement(v)
	if prev != nil {
		var promoted int64
		for _, o := range m.meta.Objects() {
			for i := range o.Regions {
				if place.Primary(o.ID, i) != m.id {
					continue
				}
				oldPrimary := prev.place.Primary(o.ID, i)
				if oldPrimary == m.id {
					continue
				}
				if _, alive := v.Member(oldPrimary); !alive {
					promoted++
				}
			}
		}
		if promoted > 0 {
			m.srv.Recorder().Record(telemetry.EvFailover, 0, int32(m.id), 0, int64(v.Epoch), promoted)
			m.reg.Add("cluster.failover.regions", promoted)
		}
	}
	m.vs.Store(newViewState(v, place))
	m.reg.SetGauge("cluster.epoch", float64(v.Epoch))
	m.reg.SetGauge("cluster.view.members", float64(len(v.Members)))
}

// shutdown tears the member down: stop accepting, end sessions, stop
// the embedded server. Idempotent.
func (m *Member) shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	conns := make([]transport.Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	m.mu.Unlock()
	_ = m.lis.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	_ = m.catConn.Close()
	m.srv.Shutdown()
	close(m.done)
}

// Crash kills the member abruptly — the in-proc stand-in for SIGKILL:
// every connection drops mid-whatever, no drain, no goodbye to the
// catalog.
func (m *Member) Crash() { m.shutdown() }

// Close shuts the member down gracefully from the caller's side (use
// the catalog's Drain for a data-safe exit that migrates regions off
// first).
func (m *Member) Close() {
	m.shutdown()
	m.wg.Wait()
}
