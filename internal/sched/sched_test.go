package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pdcquery/internal/vclock"
)

func TestPoolMapRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := NewPool(workers)
		const n = 200
		counts := make([]int, n)
		err := p.Map(nil, n, func(i int) error {
			counts[i]++
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: Map: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestPoolNilAndSmallAreSerial(t *testing.T) {
	if p := NewPool(1); p != nil {
		t.Fatalf("NewPool(1) = %v, want nil (serial marker)", p)
	}
	if p := NewPool(0); p != nil {
		t.Fatalf("NewPool(0) = %v, want nil", p)
	}
	var p *Pool
	if got := p.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", got)
	}
	// Serial execution preserves index order.
	var order []int
	if err := p.Map(nil, 5, func(i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial Map order = %v", order)
		}
	}
}

func TestPoolMapErrorIsLowestIndex(t *testing.T) {
	p := NewPool(8)
	wantErr := errors.New("boom-3")
	err := p.Map(nil, 64, func(i int) error {
		if i == 3 || i == 40 {
			return fmt.Errorf("boom-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("Map error = %v, want %v (lowest index)", err, wantErr)
	}
}

func TestPoolMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tok := NewToken(ctx, nil, 0)
	p := NewPool(2)
	var mu sync.Mutex
	ran := 0
	err := p.Map(tok, 1000, func(i int) error {
		mu.Lock()
		ran++
		if ran == 10 {
			cancel()
		}
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Map after cancel: err = %v, want ErrCanceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran >= 1000 {
		t.Fatalf("cancellation did not stop the fan-out: %d tasks ran", ran)
	}
}

func TestTokenVirtualDeadline(t *testing.T) {
	acct := vclock.NewAccount()
	tok := NewToken(nil, acct, 100*time.Nanosecond)
	if err := tok.Err(); err != nil {
		t.Fatalf("fresh token: %v", err)
	}
	acct.Charge(vclock.Compute, 101*time.Nanosecond)
	if err := tok.Err(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("over budget: err = %v, want ErrDeadline", err)
	}
	var nilTok *Token
	if err := nilTok.Err(); err != nil {
		t.Fatalf("nil token must never cancel: %v", err)
	}
	if nilTok.Context() == nil {
		t.Fatal("nil token Context() must not be nil")
	}
}

func TestFairQueueAdmissionControl(t *testing.T) {
	q := NewFairQueue[int](2, 1, nil)
	// Push reports the backlog from inside its critical section: the
	// post-push length on success, the full depth on rejection.
	if n, err := q.Push(7, 1, 10); err != nil || n != 1 {
		t.Fatalf("first push: n=%d err=%v, want 1, nil", n, err)
	}
	if n, err := q.Push(7, 1, 11); err != nil || n != 2 {
		t.Fatalf("second push: n=%d err=%v, want 2, nil", n, err)
	}
	if n, err := q.Push(7, 1, 12); !errors.Is(err, ErrBusy) || n != 2 {
		t.Fatalf("third push: n=%d err=%v, want 2, ErrBusy", n, err)
	}
	// A different session still gets in.
	if n, err := q.Push(8, 1, 20); err != nil || n != 1 {
		t.Fatalf("other session rejected: n=%d err=%v", n, err)
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := q.SessionLen(7); got != 2 {
		t.Fatalf("SessionLen(7) = %d, want 2", got)
	}
}

func TestFairQueueInterleavesSessions(t *testing.T) {
	q := NewFairQueue[string](16, 1, nil)
	// Session 1 floods first; session 2 arrives after.
	for i := 0; i < 4; i++ {
		if _, err := q.Push(1, 1, fmt.Sprintf("a%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := q.Push(2, 1, fmt.Sprintf("b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 8; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		got = append(got, v)
	}
	// DRR with unit costs alternates sessions instead of draining the
	// flooder first, and preserves FIFO order within each session.
	want := []string{"a0", "b0", "a1", "b1", "a2", "b2", "a3", "b3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DRR order = %v, want %v", got, want)
		}
	}
}

func TestFairQueueDeficitWeighting(t *testing.T) {
	q := NewFairQueue[string](16, 2, nil)
	// Session 1's requests cost 4 units each; session 2's cost 1. With a
	// quantum of 2, session 2 gets ~4 requests served per expensive one.
	for i := 0; i < 2; i++ {
		if _, err := q.Push(1, 4, fmt.Sprintf("big%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := q.Push(2, 1, fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 10; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		got = append(got, v)
	}
	// The first big item needs two visits (deficit 2, then 4) before it
	// is served; cheap requests flow meanwhile.
	bigFirst := -1
	for i, v := range got {
		if v == "big0" {
			bigFirst = i
			break
		}
	}
	if bigFirst < 2 {
		t.Fatalf("expensive item served at position %d (%v); DRR should interleave cheap items first", bigFirst, got)
	}
	// Everything is served eventually — no starvation either way.
	if len(got) != 10 {
		t.Fatalf("served %d items, want 10", len(got))
	}
}

func TestFairQueueDropAndClose(t *testing.T) {
	q := NewFairQueue[int](8, 1, nil)
	for i := 0; i < 3; i++ {
		if _, err := q.Push(1, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Push(2, 1, 99); err != nil {
		t.Fatal(err)
	}
	dropped := q.Drop(1)
	if len(dropped) != 3 {
		t.Fatalf("Drop(1) = %v, want 3 items", dropped)
	}
	if got := q.Len(); got != 1 {
		t.Fatalf("Len after drop = %d, want 1", got)
	}
	v, ok := q.Pop()
	if !ok || v != 99 {
		t.Fatalf("Pop = %d,%v, want 99,true", v, ok)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := q.Pop(); ok {
			t.Error("Pop on closed empty queue returned ok")
		}
	}()
	q.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the blocked Pop")
	}
	if _, err := q.Push(1, 1, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push after close: err = %v, want ErrClosed", err)
	}
}

// TestFairQueueAdmittedBeforePop: the admitted callback runs for every
// accepted item — never for a rejected one — with the session backlog
// after the push, and it has returned before any consumer can hold the
// item: a log the callback and the consumers both append to always
// shows an item's admission before its pop.
func TestFairQueueAdmittedBeforePop(t *testing.T) {
	var mu sync.Mutex
	var log []string
	record := func(s string) { mu.Lock(); log = append(log, s); mu.Unlock() }
	q := NewFairQueue[int](2, 1, func(v int, queued int) { record(fmt.Sprintf("admit %d q=%d", v, queued)) })
	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			v, ok := q.Pop()
			if !ok {
				t.Error("queue closed early")
				return
			}
			record(fmt.Sprintf("pop %d", v))
		}
	}()
	for i := 0; i < n; {
		if _, err := q.Push(1, 1, i); err == nil {
			i++
		} else if !errors.Is(err, ErrBusy) {
			t.Fatal(err)
		}
	}
	wg.Wait()
	admitted := make(map[string]bool)
	pops := 0
	for _, e := range log {
		var v, queued int
		if _, err := fmt.Sscanf(e, "pop %d", &v); err == nil {
			pops++
			if !admitted[fmt.Sprint(v)] {
				t.Fatalf("item %d popped before its admission was recorded", v)
			}
			continue
		}
		if _, err := fmt.Sscanf(e, "admit %d q=%d", &v, &queued); err != nil {
			t.Fatalf("bad log entry %q", e)
		}
		if queued < 1 || queued > 2 {
			t.Errorf("item %d admitted with backlog %d, want 1..2", v, queued)
		}
		admitted[fmt.Sprint(v)] = true
	}
	if pops != n || len(admitted) != n {
		t.Errorf("%d pops, %d admissions, want %d each (a rejected push must not be admitted)", pops, len(admitted), n)
	}
}

func TestFairQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewFairQueue[int](64, 1, nil)
	const sessions, perSession = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				for {
					if _, err := q.Push(uint64(s), 1, s*perSession+i); err == nil {
						break
					} else if errors.Is(err, ErrClosed) {
						return
					}
					// Busy: yield and retry.
					time.Sleep(time.Microsecond)
				}
			}
		}(s)
	}
	got := make(chan int, sessions*perSession)
	var cg sync.WaitGroup
	for w := 0; w < 4; w++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				got <- v
			}
		}()
	}
	wg.Wait()
	q.Close()
	cg.Wait()
	close(got)
	seen := make(map[int]bool)
	for v := range got {
		if seen[v] {
			t.Fatalf("item %d delivered twice", v)
		}
		seen[v] = true
	}
	if len(seen) != sessions*perSession {
		t.Fatalf("delivered %d items, want %d", len(seen), sessions*perSession)
	}
}
