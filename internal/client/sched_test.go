// Tests for the client side of the scheduler contract: busy-retry with
// backoff, deadline stamping, and async-query lifetime (no goroutine
// leaks past Close).
package client_test

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/plan"
	"pdcquery/internal/query"
	"pdcquery/internal/sched"
	"pdcquery/internal/server"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// busyServer services one pipe endpoint: it answers each request with
// busyCount MsgBusy pushbacks before the real (empty) tag result, and
// records every frame it saw.
type busyServer struct {
	conn      transport.Conn
	busyCount int

	mu   sync.Mutex
	seen []transport.Message
}

func (s *busyServer) run() {
	sent := make(map[uint64]int)
	for {
		m, err := s.conn.Recv()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.seen = append(s.seen, m)
		s.mu.Unlock()
		if m.Type == server.MsgShutdown {
			return
		}
		if sent[m.ReqID] < s.busyCount {
			sent[m.ReqID]++
			busy := &server.BusyResponse{RetryAfterNs: 12345, Queued: 2}
			s.conn.Send(transport.Message{Type: server.MsgBusy, ReqID: m.ReqID, Payload: busy.Encode()})
			continue
		}
		s.conn.Send(transport.Message{
			Type: server.MsgTagResult, ReqID: m.ReqID,
			Payload: server.EncodeTagResult(vclock.Cost{}, nil),
		})
	}
}

func (s *busyServer) frames() []transport.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]transport.Message(nil), s.seen...)
}

func startBusyServer(t *testing.T, busyCount int) (*client.Client, *busyServer) {
	t.Helper()
	clientSide, serverSide := transport.Pipe()
	bs := &busyServer{conn: serverSide, busyCount: busyCount}
	go bs.run()
	cl := client.New([]transport.Conn{clientSide}, nil)
	t.Cleanup(func() { cl.Close() })
	return cl, bs
}

// TestBusyRetrySucceeds: two pushbacks then an answer — the call must
// succeed transparently, resend the same request ID, stamp the query
// budget into the frame deadline, and fold the backoff into Elapsed.
func TestBusyRetrySucceeds(t *testing.T) {
	cl, bs := startBusyServer(t, 2)
	cl.SetQueryBudget(7 * time.Millisecond)
	_, info, err := cl.QueryTag(nil)
	if err != nil {
		t.Fatalf("QueryTag through busy pushback: %v", err)
	}
	frames := bs.frames()
	if len(frames) != 3 {
		t.Fatalf("server saw %d frames, want 3 (initial + 2 retries)", len(frames))
	}
	for i, m := range frames {
		if m.ReqID != frames[0].ReqID {
			t.Errorf("frame %d resent with request ID %d, want %d", i, m.ReqID, frames[0].ReqID)
		}
		if m.Deadline != uint64(7*time.Millisecond) {
			t.Errorf("frame %d deadline = %d, want the 7ms query budget", i, m.Deadline)
		}
	}
	// Two backoff rounds at 50µs and 100µs (both above the server's
	// 12.3µs hint) must appear in the modeled elapsed time.
	if got := info.Elapsed.Part(vclock.Network); got < 150*time.Microsecond {
		t.Errorf("modeled network time %v does not include the 150µs backoff", got)
	}
}

// TestBusyRetryExhaustion: a server that never admits must surface a
// typed sched.ErrBusy once the retry budget runs out.
func TestBusyRetryExhaustion(t *testing.T) {
	cl, bs := startBusyServer(t, 1<<30)
	_, _, err := cl.QueryTag(nil)
	if !errors.Is(err, sched.ErrBusy) {
		t.Fatalf("exhausted retries: err = %v, want sched.ErrBusy", err)
	}
	if n := len(bs.frames()); n < 3 {
		t.Errorf("server saw only %d frames before the client gave up", n)
	}
}

// TestQueryBudgetEndToEnd: a tiny virtual-time budget must be enforced
// server-side (the token aborts evaluation) and propagate back as an
// error naming the deadline; clearing the budget restores service.
func TestQueryBudgetEndToEnd(t *testing.T) {
	d, oid := deploy(t, 20000, 2)
	cl := d.Client()
	// OR query: two conjuncts, so the absorbed cost of the first trips
	// the budget check before the second starts.
	q := &query.Query{Root: query.Or(
		query.Between(oid, 10, 20, false, false),
		query.Between(oid, 30, 40, false, false),
	)}
	cl.SetQueryBudget(1 * time.Nanosecond)
	if _, err := cl.Run(q, plan.ForceScan); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("1ns budget: err = %v, want virtual-deadline error", err)
	}
	cl.SetQueryBudget(0)
	res, err := cl.Run(q, plan.ForceScan)
	if err != nil {
		t.Fatalf("after clearing budget: %v", err)
	}
	truth, err := d.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel.NHits != truth.NHits {
		t.Errorf("hits after budget cleared = %d, want %d", res.Sel.NHits, truth.NHits)
	}
}

// TestRunAsyncReapedOnClose: async queries against servers that never
// answer must not outlive the client — Close unblocks them, their
// futures complete with an error, and the goroutine count returns to
// its baseline (the regression test for the aggregator leak).
func TestRunAsyncReapedOnClose(t *testing.T) {
	base := runtime.NumGoroutine()
	clientSide, serverSide := transport.Pipe()
	_ = serverSide // nobody serves this end: requests would hang forever
	cl := client.New([]transport.Conn{clientSide}, nil)
	q := &query.Query{Root: query.Leaf(1, query.OpGT, 0)}
	futures := make([]*client.Future, 8)
	for i := range futures {
		futures[i] = cl.DoAsync(bg, prepared(q), client.Options{Force: plan.ForceScan})
	}
	cl.Close()
	for i, f := range futures {
		if _, err := f.Wait(); err == nil {
			t.Errorf("future %d completed without error after Close", i)
		}
	}
	// Starting after Close fails fast instead of spawning anything.
	if _, err := cl.DoAsync(bg, prepared(q), client.Options{Force: plan.ForceScan}).Wait(); err == nil {
		t.Error("DoAsync after Close returned a nil error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("%d goroutines alive after Close, want <= %d: async aggregators leaked", g, base)
	}
}

// TestClosedClientReturnsError: calls racing with or following Close
// must fail with a real error, never a nil error with no data.
func TestClosedClientReturnsError(t *testing.T) {
	clientSide, serverSide := transport.Pipe()
	_ = serverSide
	cl := client.New([]transport.Conn{clientSide}, nil)
	cl.Close()
	q := &query.Query{Root: query.Leaf(1, query.OpGT, 0)}
	if res, err := cl.Run(q, plan.ForceScan); err == nil {
		t.Fatalf("Run on closed client: res=%v with nil error", res)
	}
	if _, _, err := cl.QueryTag(nil); err == nil {
		t.Fatal("QueryTag on closed client returned nil error")
	}
	if _, _, err := cl.GetHistogram(1); err == nil {
		t.Fatal("GetHistogram on closed client returned nil error")
	}
}
