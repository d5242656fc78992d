// Package client is the PDC client library: the application-facing side
// of the Fig. 1 API. It serializes query conditions, broadcasts them to
// every server, and aggregates partial results in a background goroutine
// per connection — the paper's asynchronous client/server communication
// (§III-C).
//
// Virtual-time accounting composes the end-to-end elapsed model the
// experiments report: broadcast wire cost, the slowest server's
// evaluation cost (servers run in parallel), the serialized response
// transfers into the client, and the client-side merge.
package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"pdcquery/internal/exec"
	"pdcquery/internal/histogram"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/sched"
	"pdcquery/internal/selection"
	"pdcquery/internal/server"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// Info reports the modeled execution profile of one client call.
type Info struct {
	// Elapsed is the modeled end-to-end time of the call.
	Elapsed vclock.Cost
	// ServerMax is the slowest server's evaluation cost (the parallel
	// phase of Elapsed).
	ServerMax vclock.Cost
	// Stats aggregates evaluation counters over all servers.
	Stats exec.Stats
	// NHits is the total number of matching elements.
	NHits uint64
}

// mergeCostPerHit models the client-side aggregation of results.
const mergeCostPerHit = 2 * time.Nanosecond

// Busy-retry policy: when a server's admission control rejects a request
// (MsgBusy), the client backs off and resends the same request ID to
// that server only — capped exponential backoff, never below the
// server's own retry-after hint. Waits are modeled in virtual time (they
// add to Info.Elapsed); real sleeping is opt-in via SetSleeper.
const (
	busyMaxRetries = 8
	busyBaseWait   = 50 * time.Microsecond
	busyMaxWait    = 10 * time.Millisecond
	// maxRedials caps reconnection attempts per server within one call:
	// a connection that dies repeatedly during a single request is
	// surfaced as ServerDownError rather than retried forever.
	maxRedials = 2
)

// Client talks to an N-server PDC deployment.
type Client struct {
	conns []transport.Conn
	// sharedBW models the aggregate backend bandwidth (bytes/s) of the
	// shared file system: when a query's fleet-wide storage traffic
	// exceeds what the slowest server alone accounts for, the backend is
	// the bottleneck. Zero disables the floor.
	sharedBW float64
	// wireLatency is the modeled interconnect latency (zero falls back
	// to transport.DefaultLatency); the bandwidth is always
	// transport.DefaultBW.
	wireLatency time.Duration

	// sleeper paces busy-retry backoff in real time. The default NoSleep
	// returns immediately (the wait still counts in virtual time), so
	// tests and the simulation never block; daemons may install
	// telemetry.WallSleep.
	sleeper telemetry.Sleeper

	// rec, when set, records client-side recovery events (EvRedial,
	// EvBusy) into a flight recorder. Install before issuing calls
	// (SetRecorder); nil is fine — Record is nil-safe.
	rec *telemetry.Recorder

	// closeCtx ends at Close and unblocks every in-flight call and
	// async statement, so background aggregators cannot outlive the client.
	closeCtx    context.Context
	closeCancel context.CancelFunc

	// exchanges pools the calls' bookkeeping and texts holds the
	// prepared text statements; both are internally synchronized.
	exchanges sync.Pool
	texts     *plan.Cache[*textEntry]

	mu sync.Mutex
	// meta is the client's metadata view; SyncMeta replaces it.
	meta    *metadata.Service
	nextReq uint64
	pending map[uint64]chan reply
	// downErr[i] records why server i's connection died (nil = healthy).
	// Cleared by a successful redial.
	downErr []error
	// redial, when set, re-establishes the connection to one server after
	// its reader died (SetRedial). Without it a lost connection is
	// terminal for every call that needs that server. redialMu serializes
	// recovery so concurrent calls share one reconnection attempt — it is
	// held across the blocking dial, so it cannot be mu itself.
	redial   func(srv int) (transport.Conn, error)
	redialMu sync.Mutex
	// callTimeout bounds each call in wall-clock time (0 = none).
	// It is the client's defense against a server that is reachable but
	// silent: the call fails with ErrTimeout instead of hanging.
	callTimeout time.Duration
	// epoch, when useEpoch is set, stamps every query request with the
	// placement epoch (cluster mode): servers reject mismatches so a
	// query never spans two placements.
	epoch    uint64
	useEpoch bool
	// router, when set, overrides the static region→server mapping for
	// get-data requests (cluster mode routes each region to its
	// placement primary instead of server.ModNOwner).
	router func(o *object.Object, region int) int
	budget time.Duration // virtual-time deadline stamped on requests; 0 = none
	wg     sync.WaitGroup
	closed bool
}

type reply struct {
	srv int
	// req is the call the reply belongs to: a reader may route a late
	// reply into a channel the next call already reuses.
	req uint64
	msg transport.Message
	// down marks a connection-lost notification rather than a server
	// reply: the reader for srv died and pending calls must recover
	// (redial + resend) or fail with a typed error.
	down bool
}

// New connects a client to the given server connections. meta may be nil
// for remote deployments; call SyncMeta to fetch a snapshot.
func New(conns []transport.Conn, meta *metadata.Service) *Client {
	c := &Client{
		conns:   conns,
		meta:    meta,
		sleeper: telemetry.NoSleep,
		nextReq: 1,
		pending: make(map[uint64]chan reply),
		downErr: make([]error, len(conns)),
		texts:   plan.NewCache[*textEntry](server.DefaultPlanCacheSize),
	}
	c.closeCtx, c.closeCancel = context.WithCancel(context.Background())
	// The background aggregator threads (§III-C): one reader per server
	// connection routing responses to the issuing call.
	for i, conn := range conns {
		c.wg.Add(1)
		go c.reader(i, conn)
	}
	return c
}

func (c *Client) reader(srv int, conn transport.Conn) {
	defer c.wg.Done()
	for {
		m, err := conn.Recv()
		if err != nil {
			c.mu.Lock()
			if c.conns[srv] != conn {
				// A redial already replaced this connection; this reader is
				// stale and its death is old news.
				c.mu.Unlock()
				return
			}
			if c.closed {
				// Record the closure so callers racing with Close get a
				// real error instead of a nil error with no replies.
				c.downErr[srv] = ErrClosed
			} else {
				c.downErr[srv] = fmt.Errorf("client: server %d connection: %w", srv, err)
			}
			for req, ch := range c.pending {
				select {
				case ch <- reply{srv: srv, req: req, down: true}:
				default:
				}
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch := c.pending[m.ReqID]
		stale := c.conns[srv] != conn
		c.mu.Unlock()
		if stale {
			// Drop replies raced in on a superseded connection: the call
			// has already resent the request on the replacement.
			return
		}
		if ch != nil {
			ch <- reply{srv: srv, req: m.ReqID, msg: m}
		}
	}
}

// SetSharedBW installs the shared storage backend bandwidth used for the
// saturation floor (deployments pass their cost model's PFS SharedBW).
func (c *Client) SetSharedBW(bw float64) { c.sharedBW = bw }

// SetWireModel overrides the modeled interconnect latency (scaled
// deployments shrink it together with storage latencies).
func (c *Client) SetWireModel(latency time.Duration) { c.wireLatency = latency }

// SetSleeper installs the real-time pacing used between busy retries.
// The default never sleeps (waits are modeled in virtual time only);
// daemons talking to remote servers may install telemetry.WallSleep.
func (c *Client) SetSleeper(s telemetry.Sleeper) { c.sleeper = s }

// SetRecorder installs a flight recorder for client-side recovery
// events: every successful redial records EvRedial and every busy
// pushback records EvBusy. Install before issuing calls.
func (c *Client) SetRecorder(rec *telemetry.Recorder) { c.rec = rec }

// SetRedial installs a reconnection function: when server srv's
// connection dies mid-call, the client asks redial for a replacement,
// resends the in-flight request, and the fault is masked. Without it a
// dead connection terminates affected calls with ServerDownError.
// Install before issuing calls; deployments wire this to re-dial (or
// re-pipe) the same server rank.
func (c *Client) SetRedial(redial func(srv int) (transport.Conn, error)) {
	c.mu.Lock()
	c.redial = redial
	c.mu.Unlock()
}

// SetCallTimeout bounds every subsequent call in wall-clock time:
// a call that outlives d fails with an error matching ErrTimeout (and
// context.DeadlineExceeded). Zero disables the bound. This is the
// client's guarantee that a dead-but-undetected server cannot hang a
// query forever.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	c.callTimeout = d
	c.mu.Unlock()
}

// SetEpoch stamps every subsequent query request with a placement epoch
// (cluster mode). Servers compare it against their installed view and
// answer an epoch mismatch error when a rebalance moved placement under
// the client — the cluster session refreshes its view and retries.
func (c *Client) SetEpoch(epoch uint64) {
	c.mu.Lock()
	c.epoch = epoch
	c.useEpoch = true
	c.mu.Unlock()
}

// SetRouter overrides the static region→server mapping used to group
// get-data coordinates (cluster mode: each region is asked from its
// placement primary). The function maps (object, region index) to a
// connection rank.
func (c *Client) SetRouter(router func(o *object.Object, region int) int) {
	c.mu.Lock()
	c.router = router
	c.mu.Unlock()
}

// ensureConn re-establishes server srv's connection if it is down,
// serializing concurrent recovery attempts: the first caller redials,
// the rest find the connection healthy and return immediately. Terminal
// outcomes are typed — ErrClosed when the client is closing, otherwise
// ServerDownError wrapping the cause.
func (c *Client) ensureConn(srv int) error {
	c.redialMu.Lock()
	defer c.redialMu.Unlock()
	c.mu.Lock()
	down := c.downErr[srv]
	closed := c.closed
	redial := c.redial
	old := c.conns[srv]
	c.mu.Unlock()
	if closed || errors.Is(down, ErrClosed) {
		return ErrClosed
	}
	if down == nil {
		return nil
	}
	if redial == nil {
		return &ServerDownError{Srv: srv, Cause: down}
	}
	nc, err := redial(srv)
	if err != nil {
		return &ServerDownError{Srv: srv, Cause: err}
	}
	// Unblock the stale reader (it sees conns[srv] != its conn and exits
	// silently) and swap in the replacement before its reader starts.
	// The old conn is already dead; its close error carries no news.
	_ = old.Close()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		// The replacement never carried traffic; ErrClosed is the error
		// the caller needs.
		_ = nc.Close()
		return ErrClosed
	}
	c.conns[srv] = nc
	c.downErr[srv] = nil
	c.wg.Add(1)
	c.mu.Unlock()
	go c.reader(srv, nc)
	c.rec.Record(telemetry.EvRedial, 0, int32(srv), 0, 0, 0)
	return nil
}

// SetQueryBudget sets the virtual-time deadline stamped on every
// subsequent request (zero clears it). Servers abort evaluation once a
// request's accounted virtual cost exceeds its budget and reply with an
// error frame — the client-visible end of the scheduler's end-to-end
// cancellation path.
func (c *Client) SetQueryBudget(d time.Duration) {
	c.mu.Lock()
	c.budget = d
	c.mu.Unlock()
}

// wire returns the modeled cost of moving n payload bytes.
func (c *Client) wire(n int) time.Duration {
	lat := c.wireLatency
	if lat == 0 {
		lat = transport.DefaultLatency
	}
	return transport.WireCostWith(lat, transport.DefaultBW, n)
}

// NumServers returns the deployment size.
func (c *Client) NumServers() int { return len(c.conns) }

// Meta returns the client's metadata view.
func (c *Client) Meta() *metadata.Service {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta
}

// Close sends shutdown to every server and closes the connections.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	// Snapshot under the lock: redial swaps slice elements in place.
	conns := append([]transport.Conn(nil), c.conns...)
	c.mu.Unlock()
	c.closeCancel()
	var errs []error
	for _, conn := range conns {
		// Shutdown is best-effort — a downed server cannot hear it —
		// but a failed close means leaked resources and must surface.
		_ = conn.Send(transport.Message{Type: server.MsgShutdown})
		if err := conn.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	c.wg.Wait()
	return errors.Join(errs...)
}

// allServers addresses a call to every server.
const allServers = -1

// exchange is one call's bookkeeping: the channel the readers route its
// replies into, the replies and per-server tallies, and the timer of
// the SetCallTimeout bound. Calls take one from the client's pool and
// put it back, so a warm call allocates none of it.
type exchange struct {
	req      uint64
	ch       chan reply
	out      []transport.Message
	got      []bool
	attempts []int
	redials  []int
	busyWait time.Duration
	timer    telemetry.WallTimer
}

func (c *Client) getExchange() *exchange {
	x, _ := c.exchanges.Get().(*exchange)
	if x == nil {
		n := len(c.conns)
		// A server can answer the same request several times (busy,
		// busy, result), every dead reader posts one down notification
		// per pending call, and each reader may still route one late
		// reply of the channel's previous call; size the buffer for the
		// worst case so a reader never blocks on a call that already
		// gave up.
		return &exchange{
			ch:  make(chan reply, n*(busyMaxRetries+5+maxRedials)),
			out: make([]transport.Message, n), got: make([]bool, n),
			attempts: make([]int, n), redials: make([]int, n),
		}
	}
	for {
		select {
		case <-x.ch: // a late reply of an earlier call
		default:
			return x
		}
	}
}

func (c *Client) putExchange(x *exchange) {
	clear(x.out)
	clear(x.got)
	clear(x.attempts)
	clear(x.redials)
	x.req, x.busyWait = 0, 0
	c.exchanges.Put(x)
}

// call is the one request lifecycle every client operation runs: it
// sends one message (perServer gives each server's payload) to every
// server — or, when only >= 0, to that server alone — and collects the
// replies, indexed by server. If ctx or the SetCallTimeout bound
// ends first the call returns that error and late replies are dropped;
// a lost connection is redialled and the request resent (SetRedial) or
// surfaces as ServerDownError; busy replies are retried with capped
// exponential backoff against the rejecting server only, and the
// accumulated backoff is returned so callers can fold it into the
// modeled elapsed time.
func (c *Client) call(ctx context.Context, t byte, only int, perServer func(i int) []byte) (uint64, []transport.Message, time.Duration, error) {
	x := c.getExchange()
	defer c.putExchange(x)
	if err := c.roundTrip(ctx, x, t, only, perServer); err != nil {
		return 0, nil, x.busyWait, err
	}
	return x.req, slices.Clone(x.out), x.busyWait, nil
}

// roundTrip is call on an exchange the caller owns: the replies are in
// x.out until the caller puts x back.
func (c *Client) roundTrip(ctx context.Context, x *exchange, t byte, only int, perServer func(i int) []byte) error {
	lo, hi := 0, len(c.conns)
	if only >= 0 {
		lo, hi = only, only+1
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	deadline := uint64(c.budget)
	timeout := c.callTimeout
	req := c.nextReq
	c.nextReq++
	x.req = req
	c.pending[req] = x.ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, req)
		c.mu.Unlock()
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		expired = x.timer.Start(timeout)
		defer x.timer.Stop()
	}

	send := func(i int) error {
		c.mu.Lock()
		conn := c.conns[i]
		c.mu.Unlock()
		// The request ID doubles as the telemetry trace ID: it is unique per
		// client call and deterministic across runs.
		return conn.Send(transport.Message{Type: t, ReqID: req, Trace: req, Deadline: deadline, Payload: perServer(i)})
	}
	// sendRecover sends to server i, recovering once through the redial
	// seam when the connection is already known dead (a previous call hit
	// the fault) or dies at send time. Failure is a typed terminal error.
	sendRecover := func(i int) error {
		c.mu.Lock()
		down := c.downErr[i]
		c.mu.Unlock()
		if down == nil {
			err := send(i)
			if err == nil {
				return nil
			}
			c.mu.Lock()
			if c.downErr[i] == nil {
				c.downErr[i] = fmt.Errorf("client: server %d send: %w", i, err)
			}
			c.mu.Unlock()
		}
		if err := c.ensureConn(i); err != nil {
			return err
		}
		if err := send(i); err != nil {
			return &ServerDownError{Srv: i, Cause: err}
		}
		return nil
	}
	for i := lo; i < hi; i++ {
		if err := sendRecover(i); err != nil {
			return err
		}
	}
	got, redials := x.got, x.redials
	for n := lo; n < hi; {
		var r reply
		select {
		case r = <-x.ch:
		case <-ctx.Done():
			err := ctx.Err()
			if errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("%w after %v: %w", ErrTimeout, timeout, err)
			}
			return err
		case <-expired:
			return fmt.Errorf("%w after %v: %w", ErrTimeout, timeout, context.DeadlineExceeded)
		case <-c.closeCtx.Done():
			return ErrClosed
		}
		if r.req != req {
			continue // routed to this channel for an earlier call
		}
		if r.down {
			if got[r.srv] || r.srv < lo || r.srv >= hi {
				// That server already answered (or was never asked); its
				// connection dying is the next call's problem.
				continue
			}
			if redials[r.srv] >= maxRedials {
				c.mu.Lock()
				cause := c.downErr[r.srv]
				c.mu.Unlock()
				if errors.Is(cause, ErrClosed) {
					return ErrClosed
				}
				if cause == nil {
					cause = errors.New("connection lost repeatedly")
				}
				return &ServerDownError{Srv: r.srv, Cause: cause}
			}
			redials[r.srv]++
			// Recover and resend: the in-flight request (and any reply it
			// produced) died with the connection.
			if err := sendRecover(r.srv); err != nil {
				return err
			}
			continue
		}
		if r.msg.Type == server.MsgBusy {
			wait, err := c.busyBackoff(r, x.attempts)
			if err != nil {
				return err
			}
			x.busyWait += wait
			if err := sendRecover(r.srv); err != nil {
				return err
			}
			continue
		}
		if r.msg.Type == server.MsgError {
			return fmt.Errorf("client: server %d: %s", r.srv, r.msg.Payload)
		}
		if got[r.srv] {
			// Duplicate answer (a resend raced with the original reply);
			// keep the first.
			continue
		}
		x.out[r.srv] = r.msg
		got[r.srv] = true
		n++
	}
	return nil
}

// busyBackoff handles one MsgBusy reply: it bumps the per-server attempt
// count, sleeps (via the Sleeper seam) for the backoff interval, and
// returns the modeled wait. Exhausting the busyMaxRetries budget yields
// an error wrapping sched.ErrBusy. A server that goes away mid-backoff interrupts
// the cycle immediately with a typed terminal error — the client must
// not sleep through the remaining budget against a dead peer.
func (c *Client) busyBackoff(r reply, attempts []int) (time.Duration, error) {
	br, derr := server.DecodeBusyResponse(r.msg.Payload)
	if derr != nil {
		return 0, fmt.Errorf("client: server %d: %w", r.srv, derr)
	}
	attempts[r.srv]++
	if attempts[r.srv] > busyMaxRetries {
		return 0, fmt.Errorf("client: server %d (%d queued): %w after %d attempts",
			r.srv, br.Queued, sched.ErrBusy, attempts[r.srv]-1)
	}
	// The budget bounds the shift at busyMaxRetries-1, far below where
	// a Duration would wrap.
	wait := busyBaseWait << uint(attempts[r.srv]-1)
	if hint := time.Duration(br.RetryAfterNs); hint > wait {
		wait = hint
	}
	if wait > busyMaxWait {
		wait = busyMaxWait
	}
	c.rec.Record(telemetry.EvBusy, 0, int32(r.srv), 0, int64(attempts[r.srv]), int64(wait))
	if err := c.busyInterrupt(r.srv); err != nil {
		return 0, err
	}
	c.sleeper.Sleep(wait)
	if err := c.busyInterrupt(r.srv); err != nil {
		return 0, err
	}
	return wait, nil
}

// busyInterrupt reports the typed terminal condition that should preempt
// a busy-retry backoff: the client closed, or the rejecting server's
// connection died with no redial installed. Checked on both sides of the
// backoff sleep so a server that Shutdown()s or crashes between busy
// replies fails the call immediately instead of burning the retry
// budget. With a redial function the connection is recoverable, so the
// retry proceeds (sendRecover masks the fault).
func (c *Client) busyInterrupt(srv int) error {
	select {
	case <-c.closeCtx.Done():
		return ErrClosed
	default:
	}
	c.mu.Lock()
	down := c.downErr[srv]
	redial := c.redial
	c.mu.Unlock()
	if down == nil {
		return nil
	}
	if errors.Is(down, ErrClosed) {
		return ErrClosed
	}
	if redial == nil {
		return &ServerDownError{Srv: srv, Cause: down}
	}
	return nil
}

// GetData retrieves the matching elements' values of obj into a buffer in
// selection order (PDCquery_get_data). The returned Info models the
// retrieval cost.
func (r *Result) GetData(obj object.ID) ([]byte, *Info, error) {
	if r.Sel == nil {
		return nil, nil, errNotExecuted
	}
	req := (&server.DataRequest{Obj: obj, QueryReq: r.reqID}).Encode()
	_, msgs, busyWait, err := r.client.call(context.Background(), server.MsgGetData, allServers, func(int) []byte { return req })
	if err != nil {
		return nil, nil, err
	}
	info := &Info{NHits: r.Sel.NHits}
	info.Elapsed = info.Elapsed.Add(vclock.CostOf(vclock.Network, r.client.wire(len(req))+busyWait))

	_, elemSize, err := r.client.objectInfo(obj)
	if err != nil {
		return nil, nil, err
	}
	type part struct {
		coords []uint64
		data   []byte
		pos    int
	}
	parts := make([]part, 0, len(msgs))
	var total int
	var respBytes int
	for _, m := range msgs {
		dr, err := server.DecodeDataResponse(m.Payload)
		if err != nil {
			return nil, nil, err
		}
		info.ServerMax = info.ServerMax.Max(dr.Cost)
		respBytes += len(m.Payload)
		if len(dr.Data) != len(dr.Coords)*elemSize {
			return nil, nil, fmt.Errorf("client: server returned %d bytes for %d coords", len(dr.Data), len(dr.Coords))
		}
		parts = append(parts, part{coords: dr.Coords, data: dr.Data})
		total += len(dr.Coords)
	}
	if uint64(total) != r.Sel.NHits {
		return nil, nil, fmt.Errorf("client: servers returned %d values for %d hits", total, r.Sel.NHits)
	}
	// K-way merge the per-server partials into global coordinate order.
	out := make([]byte, total*elemSize)
	for i := 0; i < total; i++ {
		best := -1
		for p := range parts {
			if parts[p].pos >= len(parts[p].coords) {
				continue
			}
			if best < 0 || parts[p].coords[parts[p].pos] < parts[best].coords[parts[best].pos] {
				best = p
			}
		}
		pp := &parts[best]
		copy(out[i*elemSize:], pp.data[pp.pos*elemSize:(pp.pos+1)*elemSize])
		pp.pos++
	}
	info.Elapsed = info.Elapsed.Add(info.ServerMax)
	info.Elapsed = info.Elapsed.Add(vclock.CostOf(vclock.Network, r.client.wire(respBytes)))
	info.Elapsed = info.Elapsed.Add(vclock.CostOf(vclock.Compute, time.Duration(total)*mergeCostPerHit))
	return out, info, nil
}

// GetDataBatch streams the matching values of obj in batches of at most
// batchSize hits (PDCquery_get_data_batch), for results too large to hold
// in memory at once. fn receives each batch's selection and values.
func (r *Result) GetDataBatch(obj object.ID, batchSize uint64, fn func(batch *selection.Selection, data []byte) error) (*Info, error) {
	if r.Sel == nil {
		return nil, errNotExecuted
	}
	if r.Sel.CountOnly {
		return nil, fmt.Errorf("client: GetDataBatch needs a selection; use Run, not RunCount")
	}
	o, elemSize, err := r.client.objectInfo(obj)
	if err != nil {
		return nil, err
	}
	info := &Info{NHits: r.Sel.NHits}
	n := r.client.NumServers()
	batches, err := r.Sel.Batches(batchSize)
	if err != nil {
		return nil, err
	}
	for _, batch := range batches {
		// Group the batch coords by owning server: the router's placement
		// on a cluster, the servers' own ModNOwner rule otherwise.
		groups := make([][]uint64, n)
		for _, coord := range batch.Coords {
			region := o.RegionOfLinear(coord)
			var srv int
			if r.client.router != nil {
				srv = r.client.router(o, region)
			} else {
				srv = server.ModNOwner(uint64(o.ID), region, n)
			}
			groups[srv] = append(groups[srv], coord)
		}
		_, msgs, busyWait, err := r.client.call(context.Background(), server.MsgGetData, allServers, func(i int) []byte {
			return (&server.DataRequest{Obj: obj, Coords: groups[i]}).Encode()
		})
		if err != nil {
			return nil, err
		}
		info.Elapsed = info.Elapsed.Add(vclock.CostOf(vclock.Network, busyWait))
		buf := make([]byte, len(batch.Coords)*elemSize)
		var respBytes int
		for _, m := range msgs {
			dr, err := server.DecodeDataResponse(m.Payload)
			if err != nil {
				return nil, err
			}
			info.ServerMax = info.ServerMax.Max(dr.Cost)
			respBytes += len(m.Payload)
			// Place each returned value at its coord's position in the
			// batch (coords within a batch are sorted and unique).
			for i, coord := range dr.Coords {
				pos := searchU64(batch.Coords, coord)
				copy(buf[pos*elemSize:], dr.Data[i*elemSize:(i+1)*elemSize])
			}
		}
		info.Elapsed = info.Elapsed.Add(vclock.CostOf(vclock.Network, r.client.wire(respBytes)))
		if err := fn(batch, buf); err != nil {
			return info, err
		}
	}
	info.Elapsed = info.Elapsed.Add(info.ServerMax)
	return info, nil
}

func searchU64(s []uint64, v uint64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (c *Client) objectInfo(id object.ID) (*object.Object, int, error) {
	meta := c.Meta()
	if meta == nil {
		return nil, 0, errNoMeta
	}
	o, ok := meta.Get(id)
	if !ok {
		return nil, 0, fmt.Errorf("client: object %d not found", id)
	}
	return o, o.Type.Size(), nil
}

// GetHistogram fetches an object's global histogram
// (PDCquery_get_histogram): the PDC system builds it automatically at
// import, so this is a metadata-only call.
func (c *Client) GetHistogram(obj object.ID) (*histogram.Histogram, *Info, error) {
	payload := binary.LittleEndian.AppendUint64(nil, uint64(obj))
	// The histogram lives on the owning server; ask just that one.
	owner := metadata.OwnerOf(obj, len(c.conns))
	_, msgs, busyWait, err := c.call(context.Background(), server.MsgHistogram, owner, func(int) []byte { return payload })
	if err != nil {
		return nil, nil, err
	}
	h, err := server.DecodeHistResult(msgs[owner].Payload)
	if err != nil {
		return nil, nil, err
	}
	info := &Info{}
	info.Elapsed = vclock.CostOf(vclock.Network, 2*c.wire(len(msgs[owner].Payload))+busyWait)
	return h, info, nil
}

// QueryTag runs a metadata query (PDCquery_tag): every server reports the
// matching objects it owns; the client unions the shards.
func (c *Client) QueryTag(conds []metadata.TagCond) ([]object.ID, *Info, error) {
	payload := server.EncodeTagQuery(conds)
	_, msgs, busyWait, err := c.call(context.Background(), server.MsgTagQuery, allServers, func(int) []byte { return payload })
	if err != nil {
		return nil, nil, err
	}
	info := &Info{}
	info.Elapsed = info.Elapsed.Add(vclock.CostOf(vclock.Network, c.wire(len(payload))+busyWait))
	var all []object.ID
	var respBytes int
	for _, m := range msgs {
		cost, ids, err := server.DecodeTagResult(m.Payload)
		if err != nil {
			return nil, nil, err
		}
		info.ServerMax = info.ServerMax.Max(cost)
		respBytes += len(m.Payload)
		all = append(all, ids...)
	}
	respWire := c.wire(respBytes)
	// Shards are disjoint; sort for a deterministic result.
	slices.Sort(all)
	info.NHits = uint64(len(all))
	info.Elapsed = info.Elapsed.Add(info.ServerMax)
	info.Elapsed = info.Elapsed.Add(vclock.CostOf(vclock.Network, respWire))
	return all, info, nil
}

// EstimateNHits bounds the number of hits of a query using only the
// global histograms (§III-D2's selectivity estimation, exposed to
// applications): no server evaluation, no storage access. The true count
// always lies in [lower, upper]. Region constraints and OR terms are
// handled conservatively (per-term sums for the upper bound, zero lower
// bound for multi-term or multi-object queries, since histograms carry no
// joint distribution).
func (c *Client) EstimateNHits(q *query.Query) (lower, upper uint64, err error) {
	meta := c.Meta()
	if meta == nil {
		return 0, 0, errNoMeta
	}
	if err := q.Validate(meta.Get); err != nil {
		return 0, 0, err
	}
	conjuncts, err := query.Normalize(q.Root)
	if err != nil {
		return 0, 0, err
	}
	for _, conj := range conjuncts {
		// Upper bound of an AND term: the smallest per-condition upper
		// bound. Lower bound: only usable for a single-condition term
		// (no joint information otherwise).
		termUpper := uint64(math.MaxUint64)
		termLower := uint64(0)
		single := len(conj) == 1
		for id, iv := range conj {
			o, _ := meta.Get(id)
			if o.Global == nil {
				return 0, 0, fmt.Errorf("client: object %d has no global histogram", id)
			}
			l, u := o.Global.Estimate(iv.Lo, iv.Hi, iv.LoIncl, iv.HiIncl)
			if u < termUpper {
				termUpper = u
			}
			if single {
				termLower = l
			}
		}
		upper += termUpper
		if len(conjuncts) == 1 {
			lower = termLower
		}
	}
	// The union of conjuncts cannot exceed the object size.
	ids := q.Root.Objects()
	if o, ok := meta.Get(ids[0]); ok {
		if n := o.NumElems(); upper > n {
			upper = n
		}
	}
	// A spatial constraint can only shrink the true count, and histograms
	// carry no spatial information: the lower bound degrades to zero.
	if q.Constraint != nil {
		lower = 0
	}
	return lower, upper, nil
}

// ServerStats fetches every server's telemetry registry. It returns the
// per-server registries (indexed by rank) plus a cluster-wide view that
// merges them all — an exact merge, since cost distributions are
// mergeable histograms.
func (c *Client) ServerStats() (perServer []*telemetry.Registry, merged *telemetry.Registry, err error) {
	_, msgs, _, err := c.call(context.Background(), server.MsgStats, allServers, func(int) []byte { return nil })
	if err != nil {
		return nil, nil, err
	}
	perServer = make([]*telemetry.Registry, len(msgs))
	merged = telemetry.NewRegistry()
	for i, m := range msgs {
		sr, err := server.DecodeStatsResponse(m.Payload)
		if err != nil {
			return nil, nil, err
		}
		perServer[i] = sr.Reg
		merged.Merge(sr.Reg)
	}
	return perServer, merged, nil
}

// ServerEvents fetches every server's flight-recorder ring. It returns
// the per-server event snapshots (oldest first, indexed by rank) and
// each server's lifetime count of recorded events (which exceeds the
// snapshot length once the ring has wrapped).
func (c *Client) ServerEvents() (events [][]telemetry.Event, totals []uint64, err error) {
	_, msgs, _, err := c.call(context.Background(), server.MsgEvents, allServers, func(int) []byte { return nil })
	if err != nil {
		return nil, nil, err
	}
	events = make([][]telemetry.Event, len(msgs))
	totals = make([]uint64, len(msgs))
	for i, m := range msgs {
		evs, total, err := telemetry.DecodeEvents(m.Payload)
		if err != nil {
			return nil, nil, err
		}
		events[i] = evs
		totals[i] = total
	}
	return events, totals, nil
}

// SyncMeta fetches a metadata snapshot from server 0 and installs it as
// the client's metadata view (for TCP deployments where the client does
// not share memory with the servers). Every server holds the same
// metadata, so one snapshot is asked for, not one per server.
func (c *Client) SyncMeta() error {
	_, msgs, _, err := c.call(context.Background(), server.MsgMetaSnapshot, 0, func(int) []byte { return nil })
	if err != nil {
		return err
	}
	svc := metadata.NewService()
	if err := svc.Restore(msgs[0].Payload); err != nil {
		return err
	}
	c.mu.Lock()
	c.meta = svc
	c.mu.Unlock()
	return nil
}
