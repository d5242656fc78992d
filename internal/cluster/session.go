package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
)

// SessionOptions configures a cluster client session.
type SessionOptions struct {
	// Net and CatalogAddr locate the cluster. Required.
	Net         Network
	CatalogAddr string
	// CallTimeout bounds each broadcast in wall time (0 = none; process
	// deployments set it so a SIGKILLed server cannot hang a query).
	CallTimeout time.Duration
	// MaxAttempts bounds the refresh-and-retry loop per call (default 8).
	MaxAttempts int
	// RetryWait paces retries via Sleeper (default 25ms under a real
	// sleeper; telemetry.NoSleep makes retries immediate).
	RetryWait time.Duration
	Sleeper   telemetry.Sleeper
	// Clock supplies the wall readings the retry loop uses to enforce
	// CallTimeout across attempts: once the budget is spent the loop
	// returns the typed timeout instead of sleeping past the caller's
	// deadline. Default telemetry.NoClock reads zero, which keeps
	// deterministic harnesses budget-free; daemons install
	// telemetry.Wall alongside a real sleeper.
	Clock telemetry.Clock
	// Recorder, when set, receives client-side recovery events.
	Recorder *telemetry.Recorder
}

// Session is the catalog-aware query client: it fetches the committed
// view, builds a client over the serving members, stamps queries with
// the placement epoch, and on failure (epoch mismatch after a
// rebalance, a member dying mid-call, a timeout) reports, refreshes,
// and retries — returning either the one true answer or a typed error,
// never a wrong or partial result.
type Session struct {
	opts SessionOptions
	net  Network

	mu    sync.Mutex
	view  View
	place *Placement
	cli   *client.Client
	meta  *metadata.Service
	ranks map[MemberID]int // member → conn index in cli
	stale bool
}

// DialSession connects to a cluster through its catalog.
func DialSession(opts SessionOptions) (*Session, error) {
	if opts.Net == nil {
		return nil, fmt.Errorf("cluster: SessionOptions.Net is required")
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 8
	}
	if opts.Sleeper == nil {
		opts.Sleeper = telemetry.NoSleep
	}
	if opts.Clock == nil {
		opts.Clock = telemetry.NoClock
	}
	if opts.RetryWait <= 0 {
		opts.RetryWait = 25 * time.Millisecond
	}
	s := &Session{opts: opts, net: opts.Net, stale: true}
	return s, nil
}

// catCall performs one request/reply exchange with the catalog on a
// fresh connection.
func (s *Session) catCall(msgType byte, payload []byte) (transport.Message, error) {
	conn, err := s.net.Dial(s.opts.CatalogAddr)
	if err != nil {
		return transport.Message{}, fmt.Errorf("cluster: catalog dial: %w", err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.Send(transport.Message{Type: msgType, ReqID: 1, Payload: payload}); err != nil {
		return transport.Message{}, fmt.Errorf("cluster: catalog send: %w", err)
	}
	reply, err := conn.Recv()
	if err != nil {
		return transport.Message{}, fmt.Errorf("cluster: catalog recv: %w", err)
	}
	if reply.Type == MsgCatError {
		return transport.Message{}, fmt.Errorf("catalog: %s", reply.Payload)
	}
	return reply, nil
}

// FetchView asks the catalog for the committed view.
func (s *Session) FetchView() (View, error) {
	reply, err := s.catCall(MsgCatView, nil)
	if err != nil {
		return View{}, err
	}
	if reply.Type != MsgCatCommit {
		return View{}, fmt.Errorf("cluster: unexpected view reply %s", CatMsgName(reply.Type))
	}
	v, err := DecodeView(reply.Payload)
	return v, err
}

// Report tells the catalog a member looks dead (the client-initiated
// fast path to failover; the heartbeat timeout is the backstop).
func (s *Session) Report(id MemberID) {
	_, _ = s.catCall(MsgCatReport, EncodeMemberID(id))
}

// Drain asks the catalog to migrate a member's regions off and retire
// it.
func (s *Session) Drain(id MemberID) error {
	_, err := s.catCall(MsgCatDrain, EncodeMemberID(id))
	return err
}

// Invalidate marks the session's view stale; the next call refreshes.
func (s *Session) Invalidate() {
	s.mu.Lock()
	s.stale = true
	s.mu.Unlock()
}

// refresh rebuilds the member client from a fresh committed view. All
// the network work — view fetch, meta fetch, member dials — happens
// off the session lock (lockset: no transport I/O under a mutex); the
// finished state is installed atomically at the end. Two racing
// refreshes are safe: the loser's client is closed on install and any
// caller still using it sees a retryable ErrClosed.
func (s *Session) refresh() error {
	v, err := s.FetchView()
	if err != nil {
		return err
	}
	if len(v.Members) == 0 {
		return fmt.Errorf("cluster: no serving members")
	}
	s.mu.Lock()
	meta := s.meta
	s.mu.Unlock()
	if meta == nil {
		reply, err := s.catCall(MsgCatMeta, nil)
		if err != nil {
			return err
		}
		if len(reply.Payload) == 0 {
			return fmt.Errorf("cluster: catalog has no metadata (import first)")
		}
		meta = metadata.NewService()
		if err := meta.Restore(reply.Payload); err != nil {
			return err
		}
	}
	conns := make([]transport.Conn, 0, len(v.Members))
	ranks := make(map[MemberID]int, len(v.Members))
	for _, mi := range v.Members {
		conn, err := s.net.Dial(mi.Addr)
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			// A member the committed view lists but nobody can reach is
			// dead news the catalog hasn't heard yet — report it so the
			// next refresh sees a view without it.
			s.Report(mi.ID)
			return fmt.Errorf("cluster: dial member %d (%s): %w", mi.ID, mi.Addr, err)
		}
		ranks[mi.ID] = len(conns)
		conns = append(conns, conn)
	}
	place := NewPlacement(v)
	cli := client.New(conns, meta)
	cli.SetEpoch(v.Epoch)
	cli.SetCallTimeout(s.opts.CallTimeout)
	cli.SetSleeper(s.opts.Sleeper)
	if s.opts.Recorder != nil {
		cli.SetRecorder(s.opts.Recorder)
	}
	cli.SetRouter(func(o *object.Object, region int) int {
		if rank, ok := ranks[place.Primary(o.ID, region)]; ok {
			return rank
		}
		return 0
	})
	s.mu.Lock()
	old := s.cli
	s.view, s.place, s.cli, s.meta, s.ranks, s.stale = v, place, cli, meta, ranks, false
	s.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	return nil
}

// client returns a current client, refreshing if stale.
func (s *Session) client() (*client.Client, error) {
	s.mu.Lock()
	cli, stale := s.cli, s.stale
	s.mu.Unlock()
	if cli != nil && !stale {
		return cli, nil
	}
	if err := s.refresh(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	cli = s.cli
	s.mu.Unlock()
	return cli, nil
}

// View returns the session's current view (refreshing if stale).
func (s *Session) View() (View, error) {
	if _, err := s.client(); err != nil {
		return View{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view.Clone(), nil
}

// retryable classifies failures the refresh-and-retry loop can mask:
// placement moved under the call (epoch mismatch, member not serving),
// a member died (typed down errors, timeouts), or the fabric refused a
// connection mid-rebalance. Anything else — validation errors, decode
// errors, storage faults — surfaces to the caller unchanged.
func retryable(err error) bool {
	var down *client.ServerDownError
	if errors.As(err, &down) {
		return true
	}
	if errors.Is(err, client.ErrTimeout) || errors.Is(err, client.ErrClosed) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "epoch mismatch") ||
		strings.Contains(msg, "not serving at epoch") ||
		strings.Contains(msg, "has no installed view") ||
		strings.Contains(msg, "connection refused") ||
		strings.Contains(msg, "connection:") ||
		strings.Contains(msg, "no serving members")
}

// reportFailure turns a typed down error into a catalog report, so
// failover starts now rather than at the next heartbeat sweep.
func (s *Session) reportFailure(err error) {
	var down *client.ServerDownError
	if !errors.As(err, &down) {
		return
	}
	s.mu.Lock()
	var id MemberID = -1
	for mid, rank := range s.ranks {
		if rank == down.Srv {
			id = mid
			break
		}
	}
	s.mu.Unlock()
	if id >= 0 {
		s.Report(id)
	}
}

// call runs one client operation under the refresh-and-retry loop.
// The loop is bounded two ways: MaxAttempts caps the retry count, and
// CallTimeout (when a real Clock is installed) caps the wall budget —
// before each retry sleep the loop checks whether sleeping would
// outlive the budget and, if so, returns the typed timeout instead of
// burning RetryWait on a deadline that has already passed.
func (s *Session) call(fn func(cli *client.Client) error) error {
	start := s.opts.Clock.Now()
	var deadline int64
	if s.opts.CallTimeout > 0 {
		deadline = start + int64(s.opts.CallTimeout)
	}
	var lastErr error
	for attempt := 0; attempt < s.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			if deadline != 0 && s.opts.Clock.Now()+int64(s.opts.RetryWait) > deadline {
				return fmt.Errorf("cluster: retry budget exhausted after %d attempts: %w (last error: %v)",
					attempt, client.ErrTimeout, lastErr)
			}
			s.opts.Sleeper.Sleep(s.opts.RetryWait)
		}
		cli, err := s.client()
		if err != nil {
			lastErr = err
			if !retryable(err) {
				return err
			}
			continue
		}
		err = fn(cli)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) {
			return err
		}
		s.reportFailure(err)
		s.Invalidate()
	}
	return fmt.Errorf("cluster: giving up after %d attempts: %w", s.opts.MaxAttempts, lastErr)
}

// Do runs one statement against the cluster under the refresh-and-retry
// loop: a rebalance under the call invalidates the view, and the retry
// runs against the new epoch's members.
func (s *Session) Do(ctx context.Context, st client.Statement, o client.Options) (*client.Result, error) {
	var res *client.Result
	err := s.call(func(cli *client.Client) (err error) {
		res, err = cli.Do(ctx, st, o)
		return err
	})
	return res, err
}

// Run executes a prepared query with selection transfer
// (PDCquery_get_sel_obj against the cluster).
func (s *Session) Run(q *query.Query, f plan.Force) (*client.Result, error) {
	return s.Do(context.Background(), client.Prepared(q, qlang.ProjIDs), client.Options{Force: f})
}

// RunCount executes a prepared query for the hit count only.
func (s *Session) RunCount(q *query.Query, f plan.Force) (*client.Result, error) {
	return s.Do(context.Background(), client.Prepared(q, qlang.ProjCount), client.Options{Force: f})
}

// RunText parses and executes a declarative statement.
func (s *Session) RunText(text string, f plan.Force) (*client.Result, error) {
	return s.Do(context.Background(), client.Text(text), client.Options{Force: f})
}

// QueryTag runs a metadata tag query across the cluster.
func (s *Session) QueryTag(conds []metadata.TagCond) ([]object.ID, error) {
	var ids []object.ID
	err := s.call(func(cli *client.Client) error {
		var err error
		ids, _, err = cli.QueryTag(conds)
		return err
	})
	return ids, err
}

// Client returns the session's current member client (refreshing if
// stale) for direct use — e.g. result GetData fetches. The client is
// valid until the next refresh.
func (s *Session) Client() (*client.Client, error) {
	return s.client()
}

// Close tears down the member client. The session can be reused; the
// next call refreshes.
func (s *Session) Close() {
	s.mu.Lock()
	cli := s.cli
	s.cli = nil
	s.stale = true
	s.mu.Unlock()
	if cli != nil {
		_ = cli.Close()
	}
}
