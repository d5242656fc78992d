// White-box regression tests for the busy-retry backoff: the ramp and
// the budget, and the interaction between busy retries
// and a server that shut down or crashed mid-cycle.
package client

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pdcquery/internal/metadata"
	"pdcquery/internal/sched"
	"pdcquery/internal/server"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// countingSleeper records every backoff sleep without waiting.
type countingSleeper struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (s *countingSleeper) Sleep(d time.Duration) {
	s.mu.Lock()
	s.sleeps = append(s.sleeps, d)
	s.mu.Unlock()
}

func (s *countingSleeper) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sleeps)
}

func newBackoffClient(t *testing.T) (*Client, transport.Conn) {
	t.Helper()
	clientSide, serverSide := transport.Pipe()
	c := New([]transport.Conn{clientSide}, nil)
	t.Cleanup(func() { c.Close() })
	return c, serverSide
}

func busyReply(retryAfterNs uint64) reply {
	br := &server.BusyResponse{RetryAfterNs: retryAfterNs, Queued: 1}
	return reply{srv: 0, msg: transport.Message{Type: server.MsgBusy, Payload: br.Encode()}}
}

// TestBusyBackoffClampHighAttempts pins the whole ramp of the fixed
// budget: attempt n waits busyBaseWait<<(n-1), capped at busyMaxWait,
// for n = 1..busyMaxRetries, and the next attempt fails with
// sched.ErrBusy instead of waiting.
func TestBusyBackoffClampHighAttempts(t *testing.T) {
	c, _ := newBackoffClient(t)
	attempts := []int{0}
	for n := 1; n <= busyMaxRetries; n++ {
		wait, err := c.busyBackoff(busyReply(0), attempts)
		if err != nil {
			t.Fatalf("attempt %d: unexpected error %v", n, err)
		}
		if want := min(busyBaseWait<<uint(n-1), busyMaxWait); wait != want {
			t.Fatalf("attempt %d: wait %v, want %v", n, wait, want)
		}
	}
	if _, err := c.busyBackoff(busyReply(0), attempts); !errors.Is(err, sched.ErrBusy) {
		t.Fatalf("attempt %d: want sched.ErrBusy, got %v", busyMaxRetries+1, err)
	}
}

// TestBusyBackoffBudgetExhausted: an attempt count far past the budget
// still fails with sched.ErrBusy.
func TestBusyBackoffBudgetExhausted(t *testing.T) {
	c, _ := newBackoffClient(t)
	attempts := []int{100}
	if _, err := c.busyBackoff(busyReply(0), attempts); !errors.Is(err, sched.ErrBusy) {
		t.Fatalf("want sched.ErrBusy past the budget, got %v", err)
	}
}

// TestBusyRetryDeadServerTerminal pins the busy-retry vs. crash/shutdown
// interaction: a server that pushes back with MsgBusy and then goes away
// entirely (connection closed, e.g. crash or post-Shutdown teardown)
// must fail the call with a typed terminal connection error after at
// most one more backoff — not sleep through the remaining retry budget
// or hang waiting for a reply that cannot come.
func TestBusyRetryDeadServerTerminal(t *testing.T) {
	c, serverSide := newBackoffClient(t)
	sleeper := &countingSleeper{}
	c.SetSleeper(sleeper)

	done := make(chan struct{})
	go func() {
		defer close(done)
		m, err := serverSide.Recv()
		if err != nil {
			return
		}
		br := &server.BusyResponse{RetryAfterNs: 1000, Queued: 9}
		serverSide.Send(transport.Message{Type: server.MsgBusy, ReqID: m.ReqID, Payload: br.Encode()})
		serverSide.Close() // the server is gone; no further replies
	}()

	_, _, _, err := c.call(context.Background(), server.MsgTagQuery, allServers, func(int) []byte { return nil })
	<-done
	if !errors.Is(err, ErrServerDown) {
		t.Fatalf("want ErrServerDown, got %v", err)
	}
	var sde *ServerDownError
	if !errors.As(err, &sde) || sde.Srv != 0 {
		t.Fatalf("want ServerDownError for server 0, got %v", err)
	}
	if n := sleeper.count(); n > 1 {
		t.Fatalf("client slept %d times against a dead server, want <= 1", n)
	}
}

// TestBusyRetryShutdownServerImmediate runs the same interaction against
// a real server with a Frozen clock: the client's first request gets
// queued behind Shutdown, so the reply is a terminal "shutting down"
// error, never a busy-retry cycle.
func TestBusyRetryShutdownServerImmediate(t *testing.T) {
	meta := metadata.NewService()
	srv := server.New(server.Config{ID: 0, N: 1, Meta: meta, Assign: server.ModNAssign(0, 1), Clock: telemetry.Frozen(42)})
	clientSide, serverSide := transport.Pipe()
	go func() {
		srv.Serve(serverSide)
		serverSide.Close()
	}()
	c := New([]transport.Conn{clientSide}, meta)
	defer c.Close()
	sleeper := &countingSleeper{}
	c.SetSleeper(sleeper)

	srv.Shutdown()
	_, _, err := c.QueryTag(nil)
	if err == nil {
		t.Fatal("want terminal error from a shut-down server, got nil")
	}
	if n := sleeper.count(); n != 0 {
		t.Fatalf("client slept %d times against a shut-down server, want 0", n)
	}
}

// TestCallTimeoutWedgedServer: a server that accepts the request and
// never answers (socket open, process wedged) must not hang the client
// forever — SetCallTimeout bounds the call with a typed ErrTimeout.
func TestCallTimeoutWedgedServer(t *testing.T) {
	c, serverSide := newBackoffClient(t)
	defer serverSide.Close()
	c.SetCallTimeout(30 * time.Millisecond)

	_, _, _, err := c.call(context.Background(), server.MsgTagQuery, allServers, func(int) []byte { return nil })
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
	}
}

// TestGetHistogramCallTimeout: the unicast call runs the same lifecycle
// as a broadcast, so a wedged owner is bounded by SetCallTimeout too.
// GetHistogram used to carry its own copy of the loop, which selected on
// the reply channel and Close only and hung here.
func TestGetHistogramCallTimeout(t *testing.T) {
	c, serverSide := newBackoffClient(t)
	defer serverSide.Close()
	c.SetCallTimeout(30 * time.Millisecond)

	errc := make(chan error, 1)
	go func() {
		_, _, err := c.GetHistogram(1)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want ErrTimeout wrapping DeadlineExceeded, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("GetHistogram against a wedged server still blocked after 2s with a 30ms call timeout")
	}
}

// sendFailConn is a connection that looks healthy — its reader blocks in
// Recv — but refuses every Send: a peer that vanished between calls.
type sendFailConn struct{ transport.Conn }

func (sendFailConn) Send(transport.Message) error { return errors.New("write: broken pipe") }

// TestGetHistogramRedialOnSendError: a Send that fails on a connection
// not yet known dead is recorded, redialled and resent when SetRedial is
// installed, and is a typed ServerDownError when it is not — never the
// raw transport error the old private loop returned.
func TestGetHistogramRedialOnSendError(t *testing.T) {
	serve := func(conn transport.Conn) {
		for {
			m, err := conn.Recv()
			if err != nil || m.Type == server.MsgShutdown {
				return
			}
			conn.Send(transport.Message{Type: server.MsgHistResult, ReqID: m.ReqID, Payload: server.EncodeHistResult(nil)})
		}
	}
	for _, redial := range []bool{true, false} {
		clientSide, serverSide := transport.Pipe()
		c := New([]transport.Conn{sendFailConn{clientSide}}, nil)
		if redial {
			c.SetRedial(func(int) (transport.Conn, error) {
				cs, ss := transport.Pipe()
				go serve(ss)
				return cs, nil
			})
		}
		_, _, err := c.GetHistogram(1)
		var down *ServerDownError
		switch {
		case redial && err != nil:
			t.Errorf("with redial installed the send failure must be masked, got %v", err)
		case !redial && (!errors.As(err, &down) || down.Srv != 0):
			t.Errorf("without redial want ServerDownError for server 0, got %v", err)
		}
		serverSide.Close()
		c.Close()
	}
}

// TestRedialMasksDroppedConn: with a redial function installed, a
// connection dropped before a call is transparently re-established and
// the call succeeds — the fault is masked, not surfaced.
func TestRedialMasksDroppedConn(t *testing.T) {
	clientSide, serverSide := transport.Pipe()
	// A trivial tag-query responder we can re-spawn per connection.
	serve := func(conn transport.Conn) {
		for {
			m, err := conn.Recv()
			if err != nil || m.Type == server.MsgShutdown {
				return
			}
			conn.Send(transport.Message{Type: server.MsgTagResult, ReqID: m.ReqID, Payload: server.EncodeTagResult(vclock.Cost{}, nil)})
		}
	}
	go serve(serverSide)
	c := New([]transport.Conn{clientSide}, nil)
	defer c.Close()
	c.SetRedial(func(srv int) (transport.Conn, error) {
		cs, ss := transport.Pipe()
		go serve(ss)
		return cs, nil
	})

	if _, _, err := c.QueryTag(nil); err != nil {
		t.Fatalf("healthy query: %v", err)
	}
	serverSide.Close() // drop the connection out from under the client
	if _, _, err := c.QueryTag(nil); err != nil {
		t.Fatalf("query after drop with redial installed: %v", err)
	}
}

// TestDroppedConnNoRedialTyped: the same drop without a redial function
// is a deterministic typed error, not a hang.
func TestDroppedConnNoRedialTyped(t *testing.T) {
	c, serverSide := newBackoffClient(t)
	serverSide.Close()
	_, _, err := c.QueryTag(nil)
	if !errors.Is(err, ErrServerDown) {
		t.Fatalf("want ErrServerDown, got %v", err)
	}
}
