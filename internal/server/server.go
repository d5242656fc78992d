// Package server implements the PDC query server process (§III-C): it
// receives broadcast queries, derives its load-balanced region
// assignment, evaluates its share with the exec engine, and answers
// get-data requests from its region cache or stashed results.
//
// One Server instance corresponds to one PDC server process on a compute
// node; a deployment runs N of them (each with its own virtual-time
// account and region cache) over in-process pipes or TCP. After the
// metadata distribution at startup servers never talk to each other —
// only to the client — matching the paper's communication structure.
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdcquery/internal/exec"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/sched"
	"pdcquery/internal/selection"
	"pdcquery/internal/simio"
	"pdcquery/internal/sortstore"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// Config describes one server of an N-server deployment.
type Config struct {
	// ID is this server's rank in [0, N).
	ID int
	// N is the total number of servers.
	N int
	// Store is the shared storage substrate (the parallel file system).
	Store *simio.Store
	// Meta is the metadata service view (distributed at startup).
	Meta *metadata.Service
	// Replicas maps objects to their sorted-replica metadata.
	Replicas map[object.ID]*sortstore.Replica
	// Log, when set, receives a structured record per handled query
	// (cmd/pdc-server wires it; simulated deployments leave it nil).
	Log *slog.Logger
	// Clock supplies opt-in wall-clock readings for trace spans. Nil means
	// telemetry.NoClock: traces stay byte-identical across runs.
	Clock telemetry.Clock
	// Workers sets the region-task parallelism of the evaluation engine
	// and the number of concurrent request dispatchers. Zero or one keeps
	// the engine serial and a single dispatcher — byte-identical to the
	// pre-scheduler server (the determinism contract extends to any
	// worker count; see DESIGN.md's scheduler section).
	Workers int
	// QueueDepth bounds each session's admission-control backlog. A
	// session with QueueDepth requests already queued gets MsgBusy
	// replies (with a retry-after hint) until the backlog drains. Zero
	// means DefaultQueueDepth.
	QueueDepth int
	// RecorderEvents sizes the flight-recorder ring (0 means
	// telemetry.DefaultRecorderEvents). The recorder is always on; its
	// overhead is one locked slot write per event.
	RecorderEvents int
	// SlowQueryNs, when positive, enables the slow-query log: a handled
	// query whose latency exceeds the threshold is logged (Log must be
	// set to see it) together with its trace span summary and the
	// surrounding flight-recorder events. The latency basis is wall time
	// when a real Clock is installed, virtual cost otherwise — so the
	// threshold is testable deterministically.
	SlowQueryNs int64
	// Assign names the regions this server evaluates for a statement on
	// anchor (and its sorted replica, nil when absent), Orig ascending;
	// the engine never writes the assignment, so an assigner may return
	// a memoised one to every statement. Required. A
	// static deployment passes ModNAssign; a cluster member derives its
	// share from the placement view at the request's stamped epoch, and
	// an epoch mismatch returns an error, which the cluster session
	// turns into a view refresh + retry.
	Assign func(epoch uint64, anchor *object.Object, rep *sortstore.Replica) (exec.Assignment, error)
	// Ingest accepts the cluster ingest/transfer messages (MsgPutMeta,
	// MsgPutExtents, MsgFetchExtents). Plain deployments leave it off and
	// reject them: their store is shared, not per-server.
	Ingest bool
	// ExtraMetrics, when set, is merged into every Metrics snapshot
	// (cluster members expose their membership counters through the
	// server's /metrics and MsgStats endpoints this way).
	ExtraMetrics *telemetry.Registry
	// TagOwner, when set, replaces the static OwnerOf metadata sharding
	// for tag queries (cluster members answer only for objects whose
	// placement they own, keeping the client-side union disjoint).
	TagOwner func(id object.ID) bool
}

// DefaultQueueDepth is the per-session admission bound when Config
// leaves QueueDepth zero.
const DefaultQueueDepth = 16

// cacheBytes bounds each server's in-memory region cache. The paper
// limits each server to 64 GB; one fixed budget scaled to this
// reproduction's datasets stands in for it on every deployment.
const cacheBytes = 1 << 30

// busyRetryStep is the deterministic retry-after hint unit: a rejected
// request is told to wait one step per request queued ahead of it.
const busyRetryStep = 100 * time.Microsecond

// Server is one PDC query server. It may serve several client
// connections concurrently; per-query result stashes are scoped to the
// connection that issued the query.
type Server struct {
	cfg    Config
	acct   *vclock.Account
	engine *exec.Engine

	// telem holds server-global counters (per-message-type counts,
	// errors). Per-connection activity lands in each session's registry;
	// Metrics merges everything into the server-wide view.
	telem *telemetry.Registry

	// planCache is the prepared-statement LRU: forcing + encoded query →
	// the statement decoded, validated, planned and compiled, invalidated
	// by placement epoch or metadata generation change.
	planCache *plan.Cache[*planEntry]

	// rec is the always-on flight recorder: admission, dispatch,
	// per-region execution, cache traffic, and failures all land in its
	// ring. Exposed over MsgEvents and /debug/events.
	rec *telemetry.Recorder

	// Scheduler state: the region-task pool shared by every request (nil
	// when Workers < 2), the cross-session fair queue, and the dispatcher
	// goroutines that drain it. Dispatchers start lazily with the first
	// Serve call and stop in Shutdown. These are immutable after New or
	// internally synchronized, so they sit above smu: only the session
	// set below needs the server mutex.
	pool         *sched.Pool
	queue        *sched.FairQueue[*request]
	queueDepth   int
	sessKey      atomic.Uint64
	dispatchOnce sync.Once
	dwg          sync.WaitGroup
	shutdownOnce sync.Once
	baseCtx      context.Context
	baseCancel   context.CancelFunc

	smu      sync.Mutex
	sessions map[*session]struct{}
	// retired accumulates the registries of disconnected sessions so their
	// history survives in Metrics.
	retired *telemetry.Registry
}

// stashEntry keeps one query's partial result for subsequent get-data
// requests (the server-side caching behind §VI-A's get-data numbers).
// The selection stays packed; a get-data request unpacks it.
type stashEntry struct {
	sel    *selection.Packed
	values map[object.ID][]byte
}

// New constructs a server.
func New(cfg Config) *Server {
	if cfg.Assign == nil {
		//lint:ignore nopanic a missing Assign is a wiring bug caught at construction, before any request exists
		panic("server: Config.Assign is required")
	}
	if cfg.N <= 0 {
		cfg.N = 1
	}
	s := &Server{
		cfg:       cfg,
		acct:      vclock.NewAccount(),
		telem:     telemetry.NewRegistry(),
		sessions:  make(map[*session]struct{}),
		retired:   telemetry.NewRegistry(),
		planCache: plan.NewCache[*planEntry](DefaultPlanCacheSize),
	}
	s.queueDepth = cfg.QueueDepth
	if s.queueDepth <= 0 {
		s.queueDepth = DefaultQueueDepth
	}
	s.pool = sched.NewPool(cfg.Workers)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.rec = telemetry.NewRecorder(cfg.RecorderEvents, cfg.Clock)
	// EvAdmit is recorded inside the queue's critical section: recorded
	// after Push returned, a fast dispatcher could pop the request and
	// record its EvDispatch first, and the event stream of a fixed
	// workload would depend on goroutine scheduling.
	s.queue = sched.NewFairQueue(s.queueDepth, 1, func(r *request, queued int) {
		s.rec.Record(telemetry.EvAdmit, 0, int32(cfg.ID), 0, int64(r.m.ReqID), int64(queued))
	})
	s.engine = &exec.Engine{
		Store: cfg.Store,
		Acct:  s.acct,
		Lookup: func(id object.ID) (*object.Object, bool) {
			return cfg.Meta.Get(id)
		},
		Replica: func(id object.ID) *sortstore.Replica {
			return cfg.Replicas[id]
		},
		Cache: exec.NewCache(cacheBytes),
		Pool:  s.pool,
		Rec:   s.rec,
		Clock: s.clock(),
		SrvID: int32(cfg.ID),
	}
	return s
}

// Recorder exposes the server's flight recorder (tests, debug handlers,
// and the MsgEvents path read it; instrumented code writes to it).
func (s *Server) Recorder() *telemetry.Recorder { return s.rec }

// Account exposes the server's virtual-time account (used by deployments
// to compose parallel costs).
func (s *Server) Account() *vclock.Account { return s.acct }

// clock returns the configured wall clock, defaulting to the
// deterministic NoClock.
func (s *Server) clock() telemetry.Clock {
	if s.cfg.Clock != nil {
		return s.cfg.Clock
	}
	return telemetry.NoClock
}

// Metrics returns a snapshot of the server's telemetry: server-global
// counters, every live and retired session's registry merged in (so the
// query-cost distribution is the exact histogram merge of per-connection
// accounts), the storage account's counters under an "io." prefix, and
// cache gauges.
func (s *Server) Metrics() *telemetry.Registry {
	out := s.telem.Clone()
	s.smu.Lock()
	out.Merge(s.retired)
	live := 0
	for ss := range s.sessions {
		out.Merge(ss.reg)
		live++
	}
	s.smu.Unlock()
	out.AddCounters("io.", s.acct.CounterSnapshot())
	out.SetGauge("sessions.live", float64(live))
	if s.cfg.ExtraMetrics != nil {
		out.Merge(s.cfg.ExtraMetrics)
	}
	cs := s.engine.Cache.Stats()
	out.SetGauge("cache.bytes", float64(cs.UsedBytes))
	out.SetGauge("cache.entries", float64(cs.Entries))
	// The cache's own operational counters (every Get/eviction, across
	// all request paths) — distinct from the io.cache.* account counters,
	// which count only charged evaluation reads.
	out.Add("cache.hits", cs.Hits)
	out.Add("cache.misses", cs.Misses)
	out.Add("cache.evictions", cs.Evictions)
	// The decoded index bins' share: their own lookups (hits OR cached
	// words, misses decode), and the bytes of cache.bytes they hold.
	out.Add("cache.bin_hits", cs.BinHits)
	out.Add("cache.bin_misses", cs.BinMisses)
	out.SetGauge("cache.bin_bytes", float64(cs.BinBytes))
	// The prepared-plan LRU's counters, the same way.
	ps := s.planCache.Stats()
	out.Add("plan.cache_hits", ps.Hits)
	out.Add("plan.cache_misses", ps.Misses)
	out.Add("plan.cache_evictions", ps.Evictions)
	// Flight-recorder occupancy: how much history the ring holds and how
	// much it has ever seen (the difference is dropped history).
	out.SetGauge("recorder.capacity", float64(s.rec.Cap()))
	out.Add("recorder.events", int64(s.rec.Total()))
	// Scheduler gauges appear only when the scheduler is on, keeping the
	// single-worker metric set (and its golden test) unchanged.
	if s.cfg.Workers > 0 {
		out.SetGauge("sched.workers", float64(s.pool.Workers()))
		out.SetGauge("sched.queue.depth", float64(s.queue.Len()))
		out.SetGauge("sched.queue.hiwater", float64(s.queue.HighWater()))
	}
	return out
}

// Cache exposes the region cache (inspected by experiments).
func (s *Server) Cache() *exec.Cache { return s.engine.Cache }

// ModNOwner is the static deployment's owner rule: region r of the
// object (or sorted replica) keyed key belongs to server (r + key) mod n
// of n — "assigned to the servers in a load-balanced fashion" (§III-C).
// The key offset spreads single-region objects (e.g. the millions of
// small BOSS fibers) across servers instead of landing all of them on
// server 0. The servers' ModNAssign and the client's get-data routing
// both read it.
func ModNOwner(key uint64, r, n int) int {
	return int((key%uint64(n) + uint64(r)) % uint64(n))
}

// ModNAssign is the static deployment's assignment for server id of n:
// the regions, and the sorted replica regions, that ModNOwner gives it.
// Static placement has no epochs. A share depends only on the object
// (or replica) key and its region count, so each is built once and every
// later statement gets the memoised one (exec.Assignment is read-only).
func ModNAssign(id, n int) func(epoch uint64, anchor *object.Object, rep *sortstore.Replica) (exec.Assignment, error) {
	m := &modNShares{id: id, n: n, memo: map[modNKey][]int{}}
	return func(_ uint64, anchor *object.Object, rep *sortstore.Replica) (exec.Assignment, error) {
		a := exec.Assignment{Orig: m.share(uint64(anchor.ID), len(anchor.Regions))}
		if rep != nil {
			a.Sorted = m.share(uint64(rep.Key), len(rep.Regions))
		}
		return a, nil
	}
}

// modNShares memoises one server's ModNAssign shares.
type modNShares struct {
	id, n int
	mu    sync.Mutex
	memo  map[modNKey][]int
}

type modNKey struct {
	key      uint64
	nregions int
}

// share returns the regions of the nregions keyed key that ModNOwner
// gives the server, building them on first use.
func (m *modNShares) share(key uint64, nregions int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := modNKey{key, nregions}
	if out, ok := m.memo[k]; ok {
		return out
	}
	// ModNOwner gives server id every region r ≡ id − key (mod n): every
	// n-th region from the first of them, in one allocation.
	var out []int
	if first := (m.id - int(key%uint64(m.n)) + m.n) % m.n; first < nregions {
		out = make([]int, 0, (nregions-first+m.n-1)/m.n)
		for r := first; r < nregions; r += m.n {
			out = append(out, r)
		}
	}
	m.memo[k] = out
	return out
}

// maxStash bounds the per-connection stash of recent query results.
const maxStash = 16

// session is one client connection's state: the stash of recent query
// results served to its later get-data requests (the server-side caching
// behind §VI-A's get-data numbers), plus the connection's telemetry
// registry.
type session struct {
	mu    sync.Mutex
	stash map[uint64]*stashEntry
	// order lists stashed request IDs oldest-first, so eviction is
	// deterministic (the map-iteration eviction this replaces dropped an
	// arbitrary entry).
	order []uint64
	reg   *telemetry.Registry

	// key identifies the session in the fair queue; replyCh feeds the
	// connection's writer goroutine; inflight counts admitted requests
	// not yet answered; ctx is cancelled on disconnect or shutdown and
	// threads into every request's sched.Token.
	key      uint64
	replyCh  chan transport.Message
	inflight sync.WaitGroup
	ctx      context.Context
	cancel   context.CancelFunc
}

func (s *Server) newSession() *session {
	ctx, cancel := context.WithCancel(s.baseCtx)
	return &session{
		stash:   make(map[uint64]*stashEntry),
		reg:     telemetry.NewRegistry(),
		key:     s.sessKey.Add(1),
		replyCh: make(chan transport.Message, s.queueDepth+4),
		ctx:     ctx,
		cancel:  cancel,
	}
}

func (ss *session) put(req uint64, e *stashEntry) {
	ss.mu.Lock()
	if _, ok := ss.stash[req]; !ok {
		ss.order = append(ss.order, req)
	}
	ss.stash[req] = e
	// Bound the stash: evict the oldest entries first.
	for len(ss.stash) > maxStash {
		oldest := ss.order[0]
		ss.order = ss.order[1:]
		delete(ss.stash, oldest)
	}
	ss.mu.Unlock()
}

func (ss *session) get(req uint64) *stashEntry {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.stash[req]
}

// startDispatchers launches the server's dispatcher goroutines on first
// use. Dispatcher count follows Workers (minimum one), so a scheduler-
// enabled server also pipelines across sessions; the region-task pool's
// global semaphore keeps total evaluation parallelism at Workers.
func (s *Server) startDispatchers() {
	s.dispatchOnce.Do(func() {
		n := s.cfg.Workers
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			s.dwg.Add(1)
			go s.dispatcher()
		}
	})
}

func (s *Server) dispatcher() {
	defer s.dwg.Done()
	for {
		qr, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.serveOne(qr)
	}
}

// serveOne executes one admitted request: a private account and a
// cancellation token scoped to the request, the handler, the account
// fold into the server's cumulative account, and the correlated reply.
// The request goes back to its pool once the reply is handed on.
func (s *Server) serveOne(r *request) {
	ss, m := r.ss, r.m
	defer ss.inflight.Done()
	var queueWait int64
	if t0 := s.clock().Now(); t0 != 0 || r.enq != 0 {
		queueWait = t0 - r.enq
		if s.cfg.Workers > 0 {
			ss.reg.Observe("sched.queue_wait_ns", float64(queueWait))
		}
		// Queue wait is pure wall time: requests accrue no virtual cost
		// while queued, so the phase has no _vns twin.
		ss.reg.Observe(telemetry.PhaseWallMetric(telemetry.PhaseQueueWait), float64(queueWait))
	}
	s.rec.Record(telemetry.EvDispatch, 0, int32(s.cfg.ID), 0, int64(m.ReqID), queueWait)
	acct := &r.acctV
	r.tokV = *sched.NewToken(ss.ctx, acct, time.Duration(m.Deadline))
	r.acct, r.tok = acct, &r.tokV
	reply := s.handle(r)
	s.acct.Absorb(acct)
	reply.ReqID = m.ReqID
	reply.Trace = m.Trace
	if reply.Type == MsgError {
		s.rec.Record(telemetry.EvError, 0, int32(s.cfg.ID), acct.Cost().Total().Nanoseconds(), int64(m.ReqID), 0)
	}
	ss.replyCh <- reply
	r.release()
}

// Serve processes messages on one client connection until EOF or
// shutdown. It is the paper's server event loop — now pipelined: this
// goroutine only reads and admits frames, dispatchers execute them, and
// a writer goroutine sends the correlated replies. Call it once per
// accepted connection.
func (s *Server) Serve(conn transport.Conn) error {
	s.startDispatchers()
	ss := s.newSession()
	s.smu.Lock()
	s.sessions[ss] = struct{}{}
	s.smu.Unlock()

	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for m := range ss.replyCh {
			// Send errors mean the connection is going away; keep
			// draining so dispatchers never block on a dead session.
			_ = conn.Send(m)
		}
	}()

	// teardown unwinds in dependency order: cancel running requests,
	// release queued ones, wait for in-flight replies to land in the
	// reply channel, then close it so the writer drains and exits. Every
	// admitted request gets a reply before its inflight count drops, so
	// none are dropped.
	teardown := func() {
		ss.cancel()
		for _, r := range s.queue.Drop(ss.key) {
			ss.inflight.Done()
			r.release()
		}
		ss.inflight.Wait()
		close(ss.replyCh)
		wwg.Wait()
		// Fold the disconnected session's registry into the retired pool
		// so Metrics keeps counting it.
		s.smu.Lock()
		delete(s.sessions, ss)
		s.retired.Merge(ss.reg)
		s.smu.Unlock()
	}

	for {
		m, err := conn.Recv()
		if err == io.EOF {
			teardown()
			return nil
		}
		if err != nil {
			var fe *transport.FrameError
			if !errors.As(err, &fe) {
				teardown()
				return err
			}
			// Fail-soft framing: the frame was malformed but the stream
			// is still delimited, so answer this request with an error
			// frame and keep the session alive.
			reply := s.errMsg(fmt.Errorf("bad frame: %s", fe.Reason))
			reply.ReqID = fe.ReqID
			reply.Trace = fe.Trace
			ss.replyCh <- reply
			continue
		}
		if m.Type == MsgShutdown {
			s.telem.Add("msg."+MsgName(m.Type), 1)
			teardown()
			return nil
		}
		ss.inflight.Add(1)
		r := newRequest(ss, m, s.clock().Now())
		// The queue reports the session backlog from inside its critical
		// section: re-reading SessionLen here would race with dispatchers
		// popping the request we just pushed.
		queued, err := s.queue.Push(ss.key, 1, r)
		if err != nil {
			ss.inflight.Done()
			r.release()
			if errors.Is(err, sched.ErrBusy) {
				// Admission control: the session's backlog is full.
				// Reply MsgBusy with a deterministic retry-after hint
				// instead of buffering without bound.
				s.telem.Add("sched.rejected", 1)
				s.rec.Record(telemetry.EvReject, 0, int32(s.cfg.ID), 0, int64(m.ReqID), int64(queued))
				busy := &BusyResponse{
					RetryAfterNs: uint64(queued) * uint64(busyRetryStep),
					Queued:       uint32(queued),
				}
				ss.replyCh <- transport.Message{
					Type: MsgBusy, ReqID: m.ReqID, Trace: m.Trace, Payload: busy.Encode(),
				}
				continue
			}
			// Queue closed: the server is shutting down.
			reply := s.errMsg(fmt.Errorf("shutting down"))
			reply.ReqID = m.ReqID
			reply.Trace = m.Trace
			ss.replyCh <- reply
		}
	}
}

// Shutdown stops the dispatcher pool: running evaluations are cancelled,
// the fair queue closes (already-admitted requests still drain and get
// replies), and the method returns once every dispatcher has exited and
// the region-task pool's helpers have stopped. It is idempotent and
// composes with connection teardown in any order; Serve loops answer
// requests arriving afterwards with error frames.
func (s *Server) Shutdown() {
	s.shutdownOnce.Do(func() {
		s.baseCancel()
		s.queue.Close()
		// No dispatcher starts after this, and a Serve starting them now
		// finishes its dwg.Add calls first: an Add racing the Wait below
		// is a WaitGroup misuse.
		s.dispatchOnce.Do(func() {})
		s.dwg.Wait()
		s.pool.Close()
	})
}

// errMsg builds a MsgError reply. Every server-side error is prefixed
// with the server ID so multi-server error reports are attributable.
func (s *Server) errMsg(err error) transport.Message {
	s.telem.Add("errors", 1)
	return transport.Message{Type: MsgError, Payload: []byte(fmt.Sprintf("server %d: %v", s.cfg.ID, err))}
}

// request is one admitted message with the state scoped to it: the
// issuing session, the admission time, the cancellation token, and the
// private account its charges land in. Requests are pooled: the token,
// the account, the engine copy and a statement's decoded header live in
// the request itself and are reused by a later one once serveOne has
// handed the reply on, so nothing a handler keeps past its reply may
// point into them.
type request struct {
	ss   *session
	tok  *sched.Token
	acct *vclock.Account
	m    transport.Message
	// enq is the clock reading at admission (0 under NoClock), used for
	// the queue-wait latency distribution.
	enq int64

	// Storage behind the fields above and the statement path's
	// per-request state.
	tokV   sched.Token
	acctV  vclock.Account
	eng    exec.Engine
	phases telemetry.PhaseTimes
	st     statement
	req    QueryRequest
	low    qlang.Lowered
	key    []byte
}

var requests = sync.Pool{New: func() any { return new(request) }}

func newRequest(ss *session, m transport.Message, enq int64) *request {
	r := requests.Get().(*request)
	r.ss, r.m, r.enq = ss, m, enq
	return r
}

// release clears the request and returns it to the pool; key keeps its
// storage.
func (r *request) release() {
	r.ss, r.tok, r.acct, r.m, r.enq = nil, nil, nil, transport.Message{}, 0
	r.tokV, r.eng, r.phases = sched.Token{}, exec.Engine{}, telemetry.PhaseTimes{}
	r.st, r.req, r.low, r.key = statement{}, QueryRequest{}, qlang.Lowered{}, r.key[:0]
	r.acctV.Reset()
	requests.Put(r)
}

// engine clones the server's evaluation engine into the request with
// its private account: concurrent requests charge in isolation and
// serveOne folds each request's account into the server's cumulative
// one afterwards. Sums commute, so the totals are byte-identical to the
// serial single-account accounting. With phases set the request's
// per-phase latency accounting lands in r.phases.
func (r *request) engine(base *exec.Engine, phases bool) *exec.Engine {
	r.eng = *base
	r.eng.Acct = r.acct
	r.eng.Phases = nil
	if phases {
		r.eng.Phases = &r.phases
	}
	return &r.eng
}

// handlers is the dispatch table: one entry per client -> server message
// kind (MsgShutdown ends the session in Serve and never gets here).
var handlers = map[byte]func(*Server, *request) transport.Message{
	MsgQuery:        (*Server).handleStatement,
	MsgGetData:      (*Server).handleGetData,
	MsgHistogram:    (*Server).handleHistogram,
	MsgTagQuery:     (*Server).handleTagQuery,
	MsgStats:        (*Server).handleStats,
	MsgEvents:       (*Server).handleEvents,
	MsgMetaSnapshot: (*Server).handleMetaSnapshot,
	MsgPutMeta:      (*Server).handlePutMeta,
	MsgPutExtents:   (*Server).handlePutExtents,
	MsgFetchExtents: (*Server).handleFetchExtents,
}

// msgCounters are the per-type counter names, "msg." + MsgName(t).
var msgCounters = func() (out [256]string) {
	for t := range out {
		out[t] = "msg." + MsgName(byte(t))
	}
	return out
}()

func (s *Server) handle(r *request) transport.Message {
	s.telem.Add(msgCounters[r.m.Type], 1)
	h, ok := handlers[r.m.Type]
	if !ok {
		return s.errMsg(fmt.Errorf("unknown message type %d", r.m.Type))
	}
	return h(s, r)
}

// handleStats answers a MsgStats request with the merged telemetry
// registry. Serving stats is metadata work; its cost is the request
// account's charge (zero under the current model).
func (s *Server) handleStats(r *request) transport.Message {
	resp := &StatsResponse{Cost: r.acct.Cost(), Reg: s.Metrics()}
	return transport.Message{Type: MsgStatsResult, Payload: resp.Encode()}
}

func (s *Server) handleEvents(*request) transport.Message {
	events, total := s.rec.SnapshotTotal()
	return transport.Message{Type: MsgEventsResult, Payload: telemetry.EncodeEvents(events, total)}
}

func (s *Server) handleMetaSnapshot(*request) transport.Message {
	snap, err := s.cfg.Meta.Snapshot()
	if err != nil {
		return s.errMsg(err)
	}
	return transport.Message{Type: MsgMetaResult, Payload: snap}
}

// observePhases folds one request's phase accounting into the session
// registry: virtual-time distributions for the phases that carry
// modeled cost (always on — they are deterministic and merge exactly
// across sessions and servers) and wall-time distributions only when a
// real clock is installed, so goldens stay byte-identical.
func (s *Server) observePhases(ss *session, p *telemetry.PhaseTimes) {
	for _, ph := range [...]int{telemetry.PhasePrune, telemetry.PhaseRegionExec, telemetry.PhaseMerge} {
		ss.reg.Observe(telemetry.PhaseVNanosMetric(ph), float64(p.VNanos[ph]))
	}
	if s.clock().Now() == 0 {
		return
	}
	for _, ph := range [...]int{telemetry.PhasePrune, telemetry.PhaseRegionExec, telemetry.PhaseMerge, telemetry.PhaseEncode} {
		ss.reg.Observe(telemetry.PhaseWallMetric(ph), float64(p.WallNanos[ph]))
	}
}

// slowQueryTail bounds how many ring events a slow-query record quotes.
const slowQueryTail = 32

// maybeLogSlowQuery emits the slow-query record when the query's
// latency crossed Config.SlowQueryNs. Latency is wall time when a real
// clock is installed (the daemon case), virtual cost otherwise (the
// deterministic case, which is what the tests pin). The record carries
// the query's full trace span and the most recent flight-recorder
// events — the "what was the server doing just now" context that makes
// a slow query debuggable after the fact.
func (s *Server) maybeLogSlowQuery(ss *session, m transport.Message, span *telemetry.Span, cost vclock.Cost, wallStart int64, res *exec.Result) {
	thr := s.cfg.SlowQueryNs
	if thr <= 0 {
		return
	}
	lat := cost.Total().Nanoseconds()
	basis := "virtual"
	if now := s.clock().Now(); now != 0 || wallStart != 0 {
		lat = now - wallStart
		basis = "wall"
	}
	if lat < thr {
		return
	}
	ss.reg.Add("query.slow", 1)
	if s.cfg.Log == nil {
		return
	}
	events, total := s.rec.SnapshotTotal()
	if len(events) > slowQueryTail {
		events = events[len(events)-slowQueryTail:]
	}
	var ring strings.Builder
	_ = telemetry.WriteEvents(&ring, events, total)
	var trace string
	if span != nil {
		trace = span.Render(basis == "wall")
	}
	s.cfg.Log.Warn("slow query",
		"server", s.cfg.ID,
		"req", m.ReqID,
		"trace_id", m.Trace,
		"latency_ns", lat,
		"basis", basis,
		"threshold_ns", thr,
		"cost", cost.Total().String(),
		"hits", res.Sel.NHits,
		"span", trace,
		"events", ring.String(),
	)
}

func (s *Server) handleGetData(r *request) transport.Message {
	ss, tok, acct := r.ss, r.tok, r.acct
	req, err := DecodeDataRequest(r.m.Payload)
	if err != nil {
		return s.errMsg(err)
	}
	engine := r.engine(s.engine, false)
	var coords []uint64
	var data []byte
	if req.Coords == nil && req.QueryReq != 0 {
		entry := ss.get(req.QueryReq)
		if entry == nil {
			return s.errMsg(fmt.Errorf("no stashed result for request %d", req.QueryReq))
		}
		if coords, err = entry.sel.Coords(nil); err != nil {
			return s.errMsg(err)
		}
		if v, ok := entry.values[req.Obj]; ok {
			// Values were captured during evaluation: a pure memory send.
			data = v
			model := s.cfg.Store.Model()
			acct.ChargeCost(model.ReadCost(simio.Memory, int64(len(v))))
		} else {
			data, err = engine.ExtractValues(tok, req.Obj, coords)
			if err != nil {
				return s.errMsg(err)
			}
		}
	} else {
		coords = req.Coords
		data, err = engine.ExtractValues(tok, req.Obj, coords)
		if err != nil {
			return s.errMsg(err)
		}
	}
	if err := tok.Err(); err != nil {
		return s.errMsg(err)
	}
	resp := &DataResponse{Cost: acct.Cost(), Coords: coords, Data: data}
	return transport.Message{Type: MsgDataResult, Payload: resp.Encode()}
}

func (s *Server) handleHistogram(r *request) transport.Message {
	m := r.m
	if len(m.Payload) != 8 {
		return s.errMsg(fmt.Errorf("bad histogram request"))
	}
	id := object.ID(binary.LittleEndian.Uint64(m.Payload))
	o, ok := s.cfg.Meta.Get(id)
	if !ok {
		return s.errMsg(fmt.Errorf("object %d not found", id))
	}
	return transport.Message{Type: MsgHistResult, Payload: EncodeHistResult(o.Global)}
}

func (s *Server) handleTagQuery(r *request) transport.Message {
	acct := r.acct
	conds, err := DecodeTagQuery(r.m.Payload)
	if err != nil {
		return s.errMsg(err)
	}
	all := s.cfg.Meta.TagQuery(acct, conds)
	// Each server answers only for the metadata objects it owns (§II:
	// one owner per metadata object); the client unions the shards.
	var owned []object.ID
	for _, id := range all {
		if s.cfg.TagOwner != nil {
			if s.cfg.TagOwner(id) {
				owned = append(owned, id)
			}
		} else if metadata.OwnerOf(id, s.cfg.N) == s.cfg.ID {
			owned = append(owned, id)
		}
	}
	return transport.Message{Type: MsgTagResult, Payload: EncodeTagResult(acct.Cost(), owned)}
}
