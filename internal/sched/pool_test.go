package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid reads the calling goroutine's ID from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// Concurrent Maps share the pool's bound: eight callers fanning out at
// once on a 4-worker pool never have more than four tasks running, and
// every index of every call runs exactly once.
func TestPoolConcurrentMapsShareTheBound(t *testing.T) {
	const workers, callers, n = 4, 8, 64
	p := NewPool(workers)
	defer p.Close()
	var running, hiwater atomic.Int64
	counts := make([][n]atomic.Int32, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Map(nil, n, func(i int) error {
				now := running.Add(1)
				for {
					hw := hiwater.Load()
					if now <= hw || hiwater.CompareAndSwap(hw, now) {
						break
					}
				}
				runtime.Gosched()
				counts[c][i].Add(1)
				running.Add(-1)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if hw := hiwater.Load(); hw > workers {
		t.Errorf("%d tasks ran at once on a %d-worker pool", hw, workers)
	}
	for c := range counts {
		for i := range counts[c] {
			if got := counts[c][i].Load(); got != 1 {
				t.Fatalf("caller %d: index %d ran %d times", c, i, got)
			}
		}
	}
}

// The lowest-index error wins even when a higher index fails first.
func TestPoolMapLowestIndexErrorWins(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	failed := make(chan struct{})
	var once sync.Once
	err := p.Map(nil, 16, func(i int) error {
		if i == 0 {
			// Give a helper the time to fail a later index first.
			select {
			case <-failed:
			case <-time.After(50 * time.Millisecond):
			}
			return errors.New("boom-0")
		}
		once.Do(func() { close(failed) })
		return fmt.Errorf("boom-%d", i)
	})
	if err == nil || err.Error() != "boom-0" {
		t.Fatalf("Map error = %v, want boom-0 (lowest index)", err)
	}
}

// A token that has already failed starts no task at all.
func TestPoolMapCanceledTokenStartsNothing(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := p.Map(NewToken(ctx, nil, 0), 100, func(int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d tasks ran after the token was cancelled", n)
	}
}

// A single task runs on the calling goroutine; a larger fan-out has the
// caller work too, whether or not helpers join.
func TestPoolMapCallerRunsTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	caller := goid()
	for i := 0; i < 100; i++ {
		var ranOn uint64
		if err := p.Map(nil, 1, func(int) error { ranOn = goid(); return nil }); err != nil {
			t.Fatal(err)
		}
		if ranOn != caller {
			t.Fatalf("a one-task Map ran on goroutine %d, not the caller's %d", ranOn, caller)
		}
	}
	var onCaller atomic.Int32
	if err := p.Map(nil, 64, func(int) error {
		if goid() == caller {
			onCaller.Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if onCaller.Load() == 0 {
		t.Fatal("the calling goroutine ran none of the 64 tasks")
	}
}

// Close stops every helper: the goroutine count returns to what it was
// before the pool existed, and the closed pool still maps, serially.
func TestPoolCloseStopsHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(8)
	if err := p.Map(nil, 32, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines after Close, want <= %d", g, base)
	}
	var ran atomic.Int32
	if err := p.Map(nil, 8, func(int) error { ran.Add(1); return nil }); err != nil || ran.Load() != 8 {
		t.Fatalf("Map after Close: err=%v ran=%d, want nil and 8", err, ran.Load())
	}
	var nilPool *Pool
	nilPool.Close()
}
