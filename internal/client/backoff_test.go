// White-box regression tests for the busy-retry backoff: the exponent
// clamp at high attempt counts, and the interaction between busy retries
// and a server that shut down or crashed mid-cycle.
package client

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pdcquery/internal/metadata"
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

// TestBusyBackoffClampHighAttempts pins the shift-overflow fix: before
// the exponent clamp, attempt counts past ~40 shifted busyBaseWait to
// zero or negative (50µs << 63 == 0), so a large retry budget turned the
// capped backoff into a hot loop of zero-length sleeps. Every attempt
// must wait in (0, busyMaxWait], and attempts past the ramp must wait
// exactly busyMaxWait.
func TestBusyBackoffClampHighAttempts(t *testing.T) {
	c, _ := newBackoffClient(t)
	c.SetBusyRetries(1000)
	for _, n := range []int{1, 2, 8, 39, 40, 62, 63, 64, 65, 100, 999} {
		attempts := []int{n - 1} // busyBackoff increments to n
		wait, err := c.busyBackoff(busyReply(0), attempts, 1000)
		if err != nil {
			t.Fatalf("attempt %d: unexpected error %v", n, err)
		}
		if wait <= 0 {
			t.Fatalf("attempt %d: wait %v, want positive (shift overflow)", n, wait)
		}
		if wait > busyMaxWait {
			t.Fatalf("attempt %d: wait %v exceeds cap %v", n, wait, busyMaxWait)
		}
		// The ramp reaches the cap at busyBaseWait<<8 > busyMaxWait.
		if n >= 9 && wait != busyMaxWait {
			t.Fatalf("attempt %d: wait %v, want cap %v", n, wait, busyMaxWait)
		}
	}
	// The ramp itself must still be exponential below the cap.
	for n := 1; n <= 7; n++ {
		attempts := []int{n - 1}
		wait, err := c.busyBackoff(busyReply(0), attempts, 1000)
		if err != nil {
			t.Fatalf("attempt %d: %v", n, err)
		}
		if want := busyBaseWait << uint(n-1); wait != want {
			t.Fatalf("attempt %d: wait %v, want %v", n, wait, want)
		}
	}
}

// TestBusyBackoffBudgetExhausted: exceeding the configured budget still
// fails with sched.ErrBusy, including budgets far past the old overflow
// boundary.
func TestBusyBackoffBudgetExhausted(t *testing.T) {
	c, _ := newBackoffClient(t)
	attempts := []int{100}
	if _, err := c.busyBackoff(busyReply(0), attempts, 100); err == nil {
		t.Fatal("want ErrBusy past the budget, got nil")
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
	c.SetBusyRetries(64) // large budget the buggy path would burn through

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

	_, _, _, err := c.broadcastCtx(context.Background(), server.MsgTagQuery, func(int) []byte { return nil })
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

	_, _, _, err := c.broadcastCtx(context.Background(), server.MsgTagQuery, func(int) []byte { return nil })
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
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
