package cluster

import (
	"fmt"
	"log/slog"
	"sync"

	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
)

// memberState tracks where a member is in its lifecycle.
type memberState int

const (
	// stateJoining: Hello received; the member is transferring its
	// assigned regions and is not yet in the committed view.
	stateJoining memberState = iota
	// stateUp: in the committed view and serving queries.
	stateUp
	// stateDraining: in the committed view but scheduled for removal;
	// leaves once the view without it commits.
	stateDraining
	// stateDown: removed (heartbeat timeout, report, or drain done).
	stateDown
)

func (s memberState) String() string {
	switch s {
	case stateJoining:
		return "joining"
	case stateUp:
		return "up"
	case stateDraining:
		return "draining"
	case stateDown:
		return "down"
	}
	return fmt.Sprintf("memberState(%d)", int(s))
}

// catMember is the catalog's book-keeping for one member.
type catMember struct {
	info       MemberInfo
	state      memberState
	conn       transport.Conn // control connection (Prepare/Commit pushes)
	lastBeat   int64          // Clock.Now() at the last heartbeat
	readyEpoch uint64         // highest pending epoch the member acked
}

// CatalogConfig configures a Catalog.
type CatalogConfig struct {
	// Seed parameterizes the placement ring (reproducible placements).
	Seed uint64
	// R is the replication factor (min 1; the ISSUE ships R=2).
	R int
	// Clock supplies heartbeat timestamps. telemetry.NoClock disables
	// heartbeat expiry entirely — deterministic tests drive membership
	// through Drain/Report/connection errors instead of wall time.
	Clock telemetry.Clock
	// HeartbeatTimeoutNs: a member whose last beat is older than this is
	// declared down on the next CheckExpiry sweep. 0 means never.
	HeartbeatTimeoutNs int64
	// Log receives membership transitions (nil = silent).
	Log *slog.Logger
	// Registry and Recorder receive cluster.* counters and membership
	// events; nil values allocate private instances.
	Registry *telemetry.Registry
	Recorder *telemetry.Recorder
}

// Catalog is the placement authority of a cluster: it assigns member
// IDs, owns the committed View, runs the prepare/commit rebalance
// protocol on every membership change, and hands out views and metadata
// snapshots to client sessions.
//
// Determinism contract: placement is a pure function of the view, and
// every membership decision is driven by explicit inputs (Hello, Drain,
// Report, connection errors, or CheckExpiry(now) calls). The only wall
// time in the subsystem is the heartbeat sweep, gated behind the Clock
// seam — under telemetry.NoClock the catalog is fully deterministic.
type Catalog struct {
	cfg CatalogConfig
	reg *telemetry.Registry
	rec *telemetry.Recorder

	mu      sync.Mutex
	nextID  MemberID
	members map[MemberID]*catMember
	view    View   // committed
	meta    []byte // metadata snapshot published at import
	// pendingEpoch > view.Epoch while a rebalance is in flight.
	pendingEpoch uint64
	pendingView  View
	closed       bool
}

// NewCatalog builds a catalog service. Serve it with ServeConn per
// accepted connection (see cmd/pdc-server -catalog).
func NewCatalog(cfg CatalogConfig) *Catalog {
	if cfg.R < 1 {
		cfg.R = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = telemetry.NoClock
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = telemetry.NewRecorder(256, cfg.Clock)
	}
	return &Catalog{
		cfg:     cfg,
		reg:     reg,
		rec:     rec,
		members: make(map[MemberID]*catMember),
		view:    View{Epoch: 1, Seed: cfg.Seed, R: cfg.R},
	}
}

// Metrics returns the catalog's telemetry registry (cluster.* counters
// plus membership gauges).
func (c *Catalog) Metrics() *telemetry.Registry {
	c.mu.Lock()
	out := c.reg.Clone()
	up, joining := 0, 0
	for _, m := range c.members {
		switch m.state {
		case stateUp, stateDraining:
			up++
		case stateJoining:
			joining++
		}
	}
	epoch := c.view.Epoch
	c.mu.Unlock()
	out.SetGauge("cluster.members", float64(up))
	out.SetGauge("cluster.members.joining", float64(joining))
	out.SetGauge("cluster.epoch", float64(epoch))
	return out
}

// Recorder returns the catalog's flight recorder.
func (c *Catalog) Recorder() *telemetry.Recorder { return c.rec }

// CommittedView returns the current committed view.
func (c *Catalog) CommittedView() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view.Clone()
}

// push is a deferred control-plane send, collected under c.mu and
// delivered after unlock (lockset: no transport sends under a mutex).
type push struct {
	conn transport.Conn
	msg  transport.Message
}

func sendPushes(pushes []push) {
	for _, p := range pushes {
		// Send errors surface on the member's control-reader side (its
		// conn breaks), which reports the member down on the next read.
		_ = p.conn.Send(p.msg)
	}
}

// ServeConn handles one catalog connection until it closes. Member
// control connections stay open for the catalog's lifetime (their
// closure is a death signal); session connections are short-lived.
func (c *Catalog) ServeConn(conn transport.Conn) {
	// The member ID bound to this connection once a Hello arrives; its
	// teardown marks the member down.
	bound := MemberID(-1)
	defer func() {
		_ = conn.Close()
		if bound >= 0 {
			c.markDown(bound, telemetry.DownReasonConn)
		}
	}()
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		switch m.Type {
		case MsgCatHello:
			id, err := c.handleHello(conn, m)
			if err != nil {
				_ = conn.Send(transport.Message{Type: MsgCatError, ReqID: m.ReqID, Payload: []byte(err.Error())})
				return
			}
			bound = id
		case MsgCatHeartbeat:
			if id, err := DecodeMemberID(m.Payload); err == nil {
				c.beat(id)
			}
		case MsgCatReady:
			if id, epoch, err := DecodeReady(m.Payload); err == nil {
				c.markReady(id, epoch)
			}
		case MsgCatView:
			_ = conn.Send(transport.Message{Type: MsgCatCommit, ReqID: m.ReqID, Payload: c.CommittedView().Encode()})
		case MsgCatMeta:
			c.mu.Lock()
			meta := append([]byte(nil), c.meta...)
			c.mu.Unlock()
			_ = conn.Send(transport.Message{Type: MsgCatMetaResult, ReqID: m.ReqID, Payload: meta})
		case MsgCatImport:
			if err := c.handleImport(m.Payload); err != nil {
				_ = conn.Send(transport.Message{Type: MsgCatError, ReqID: m.ReqID, Payload: []byte(err.Error())})
				break
			}
			_ = conn.Send(transport.Message{Type: MsgCatCommit, ReqID: m.ReqID, Payload: c.CommittedView().Encode()})
		case MsgCatReport:
			if id, err := DecodeMemberID(m.Payload); err == nil {
				c.reg.Add("cluster.reports", 1)
				c.markDown(id, telemetry.DownReasonReport)
			}
			_ = conn.Send(transport.Message{Type: MsgCatOK, ReqID: m.ReqID})
		case MsgCatDrain:
			if id, err := DecodeMemberID(m.Payload); err != nil {
				_ = conn.Send(transport.Message{Type: MsgCatError, ReqID: m.ReqID, Payload: []byte(err.Error())})
			} else if err := c.drain(id); err != nil {
				_ = conn.Send(transport.Message{Type: MsgCatError, ReqID: m.ReqID, Payload: []byte(err.Error())})
			} else {
				_ = conn.Send(transport.Message{Type: MsgCatOK, ReqID: m.ReqID})
			}
		default:
			_ = conn.Send(transport.Message{Type: MsgCatError, ReqID: m.ReqID,
				Payload: []byte(fmt.Sprintf("catalog: unexpected message %s", CatMsgName(m.Type)))})
		}
	}
}

// handleHello admits a joiner: assigns an ID, replies with the current
// committed view + meta snapshot, and kicks off a rebalance that will
// commit a view including it.
func (c *Catalog) handleHello(conn transport.Conn, m transport.Message) (MemberID, error) {
	addr, err := DecodeHello(m.Payload)
	if err != nil {
		return -1, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return -1, fmt.Errorf("catalog: closed")
	}
	id := c.nextID
	c.nextID++
	cm := &catMember{
		info:     MemberInfo{ID: id, Addr: addr},
		state:    stateJoining,
		conn:     conn,
		lastBeat: c.cfg.Clock.Now(),
	}
	c.members[id] = cm
	reply := HelloResult{ID: id, View: c.view.Clone(), Meta: append([]byte(nil), c.meta...)}
	pushes := c.rebalanceLocked()
	c.mu.Unlock()

	if c.cfg.Log != nil {
		c.cfg.Log.Info("cluster member joining", "member", id, "addr", addr)
	}
	if err := conn.Send(transport.Message{Type: MsgCatHelloResult, ReqID: m.ReqID, Payload: reply.Encode()}); err != nil {
		c.markDown(id, telemetry.DownReasonConn)
		return -1, err
	}
	sendPushes(pushes)
	return id, nil
}

// handleImport installs a metadata snapshot. Imports are rejected while
// a rebalance is pending: the importer would race the placement it is
// writing against.
func (c *Catalog) handleImport(meta []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pendingEpoch > c.view.Epoch {
		return fmt.Errorf("catalog: rebalance in progress (epoch %d -> %d), retry import", c.view.Epoch, c.pendingEpoch)
	}
	if len(c.view.Members) == 0 {
		return fmt.Errorf("catalog: no serving members")
	}
	c.meta = append([]byte(nil), meta...)
	c.reg.Add("cluster.imports", 1)
	return nil
}

// beat refreshes a member's heartbeat timestamp.
func (c *Catalog) beat(id MemberID) {
	c.mu.Lock()
	if m, ok := c.members[id]; ok && m.state != stateDown {
		m.lastBeat = c.cfg.Clock.Now()
	}
	c.reg.Add("cluster.heartbeats", 1)
	c.mu.Unlock()
}

// CheckExpiry sweeps heartbeats: members whose last beat is older than
// HeartbeatTimeoutNs at `now` are declared down. Exposed so tests (and
// the daemon loop) control when wall time enters the system.
func (c *Catalog) CheckExpiry(now int64) {
	if c.cfg.HeartbeatTimeoutNs <= 0 {
		return
	}
	c.mu.Lock()
	var expired []MemberID
	for id, m := range c.members {
		if m.state == stateDown {
			continue
		}
		if now-m.lastBeat > c.cfg.HeartbeatTimeoutNs {
			expired = append(expired, id)
		}
	}
	c.mu.Unlock()
	for _, id := range expired {
		c.reg.Add("cluster.heartbeat.misses", 1)
		c.markDown(id, telemetry.DownReasonHeartbeat)
	}
}

// markDown removes a member and rebalances the survivors. Idempotent.
func (c *Catalog) markDown(id MemberID, reason int64) {
	c.mu.Lock()
	m, ok := c.members[id]
	if !ok || m.state == stateDown {
		c.mu.Unlock()
		return
	}
	m.state = stateDown
	pushes := c.rebalanceLocked()
	epoch := c.pendingEpoch
	c.mu.Unlock()

	c.rec.Record(telemetry.EvMemberDown, uint8(reason), int32(id), 0, int64(epoch), reason)
	c.reg.Add("cluster.member.down", 1)
	if c.cfg.Log != nil {
		c.cfg.Log.Info("cluster member down", "member", id, "reason", reason)
	}
	sendPushes(pushes)
}

// drain schedules a member's graceful removal: it stays in the view
// (and keeps serving) until the pending view without it commits.
func (c *Catalog) drain(id MemberID) error {
	c.mu.Lock()
	m, ok := c.members[id]
	if !ok || m.state == stateDown {
		c.mu.Unlock()
		return fmt.Errorf("catalog: unknown member %d", id)
	}
	if m.state == stateDraining {
		c.mu.Unlock()
		return nil
	}
	m.state = stateDraining
	pushes := c.rebalanceLocked()
	c.mu.Unlock()

	c.rec.Record(telemetry.EvMemberDown, uint8(telemetry.DownReasonDrain), int32(id), 0, 0, telemetry.DownReasonDrain)
	c.reg.Add("cluster.drains", 1)
	if c.cfg.Log != nil {
		c.cfg.Log.Info("cluster member draining", "member", id)
	}
	sendPushes(pushes)
	return nil
}

// markReady records a member's transfer completion for a pending epoch
// and commits the view when every required member is ready.
func (c *Catalog) markReady(id MemberID, epoch uint64) {
	c.mu.Lock()
	m, ok := c.members[id]
	if !ok || m.state == stateDown {
		c.mu.Unlock()
		return
	}
	if epoch > m.readyEpoch {
		m.readyEpoch = epoch
	}
	pushes := c.maybeCommitLocked()
	c.mu.Unlock()
	sendPushes(pushes)
}

// rebalanceLocked starts (or restarts) a view change covering the
// current membership: pending view = Joining + Up + Draining-still-
// serving members minus drained/down ones. Called with c.mu held;
// returns the Prepare pushes to send after unlock.
func (c *Catalog) rebalanceLocked() []push {
	next := View{Epoch: c.maxEpochLocked() + 1, Seed: c.cfg.Seed, R: c.cfg.R}
	for id := MemberID(0); id < c.nextID; id++ {
		m, ok := c.members[id]
		if !ok {
			continue
		}
		switch m.state {
		case stateJoining, stateUp:
			next.Members = append(next.Members, m.info)
		}
	}
	c.pendingEpoch = next.Epoch
	c.pendingView = next
	c.reg.Add("cluster.rebalances", 1)

	prep := Prepare{Source: c.view.Clone(), Pending: next.Clone()}
	payload := prep.Encode()
	var pushes []push
	for _, m := range c.members {
		if m.state == stateDown || m.conn == nil {
			continue
		}
		pushes = append(pushes, push{conn: m.conn, msg: transport.Message{Type: MsgCatPrepare, Payload: payload}})
	}
	// A pending view may need nothing transferred (e.g. pure removal:
	// survivors already hold replicas of everything). Members still ack
	// with Ready; commit happens when the last ack arrives. If the
	// pending membership is empty, commit immediately.
	if len(next.Members) == 0 {
		return append(pushes, c.maybeCommitLocked()...)
	}
	return pushes
}

func (c *Catalog) maxEpochLocked() uint64 {
	if c.pendingEpoch > c.view.Epoch {
		return c.pendingEpoch
	}
	return c.view.Epoch
}

// maybeCommitLocked commits the pending view once every member of it
// has acked the pending epoch. Called with c.mu held; returns the
// Commit pushes to send after unlock.
func (c *Catalog) maybeCommitLocked() []push {
	if c.pendingEpoch <= c.view.Epoch {
		return nil
	}
	for _, mi := range c.pendingView.Members {
		m, ok := c.members[mi.ID]
		if !ok || m.state == stateDown {
			// A pending member died mid-rebalance; markDown will start a
			// fresh rebalance, so this epoch is obsolete.
			return nil
		}
		if m.readyEpoch < c.pendingEpoch {
			return nil
		}
	}
	c.view = c.pendingView.Clone()
	payload := c.view.Encode()
	var pushes []push
	for _, mi := range c.pendingView.Members {
		m := c.members[mi.ID]
		if m.state == stateJoining {
			m.state = stateUp
			c.rec.Record(telemetry.EvMemberJoin, 0, int32(mi.ID), 0, int64(c.view.Epoch), int64(len(c.view.Members)))
			c.reg.Add("cluster.member.join", 1)
			if c.cfg.Log != nil {
				c.cfg.Log.Info("cluster member up", "member", mi.ID, "epoch", c.view.Epoch)
			}
		}
	}
	c.reg.Add("cluster.commits", 1)
	// Push the commit to every live member — including draining ones,
	// which see themselves absent from the committed view and exit.
	for _, m := range c.members {
		if m.state == stateDown || m.conn == nil {
			continue
		}
		pushes = append(pushes, push{conn: m.conn, msg: transport.Message{Type: MsgCatCommit, Payload: payload}})
		if m.state == stateDraining {
			m.state = stateDown
		}
	}
	return pushes
}

// Close marks the catalog closed; new Hellos are rejected. Existing
// connections are owned by their ServeConn callers.
func (c *Catalog) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}
