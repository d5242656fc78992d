package sched

import (
	"context"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of evaluation tasks in flight. One Pool is
// shared by every query a server executes, so Workers caps the server's
// total region-task parallelism, not each query's: a fan-out of 200
// regions against a 4-worker pool runs 4 tasks at a time.
//
// The pool owns Workers-1 long-lived helper goroutines, started by
// NewPool and stopped by Close; a Map call runs tasks on its own
// goroutine and hands the rest of its fan-out to whichever helpers are
// idle, so no call starts a goroutine.
//
// Pool carries no per-query state; determinism is the caller's
// contract: tasks write only to their own index's slot and the caller
// merges slots in index order (see exec's region merge).
type Pool struct {
	workers int
	// sem is the global task-slot semaphore; every running task holds
	// one slot, so concurrent Maps from different queries share the
	// worker budget instead of multiplying it.
	sem chan struct{}
	// jobs offers a Map call to the helpers. It is unbuffered, so an
	// offer succeeds only when a helper is idle and waiting on it.
	jobs      chan *mapJob
	stop      context.CancelFunc
	helpers   sync.WaitGroup
	closeOnce sync.Once
}

// NewPool returns a pool with the given worker count and starts its
// helpers. Counts below 2 return nil: a nil *Pool is valid everywhere and
// means "run serially", which keeps the single-worker configuration
// byte-identical to the pre-scheduler code path by construction.
func NewPool(workers int) *Pool {
	if workers < 2 {
		return nil
	}
	ctx, stop := context.WithCancel(context.Background())
	p := &Pool{workers: workers, sem: make(chan struct{}, workers), jobs: make(chan *mapJob), stop: stop}
	p.startHelpers(ctx, workers-1)
	return p
}

// startHelpers launches n helpers that live until ctx, the pool's own
// context, ends (Close).
func (p *Pool) startHelpers(ctx context.Context, n int) {
	p.helpers.Add(n)
	for range n {
		go p.helper(ctx)
	}
}

// helper joins offered Map calls until the pool closes.
func (p *Pool) helper(ctx context.Context) {
	defer p.helpers.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-p.jobs:
			j.run()
			j.joined.Done()
		}
	}
}

// Close stops the helpers and waits for them to exit. A Map running
// concurrently finishes its tasks on its own goroutine; Maps after Close
// run serially under the same semaphore. Close is idempotent and safe on
// a nil pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() {
		p.stop()
		p.helpers.Wait()
	})
}

// Workers returns the parallelism bound (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// mapJob is one Map call's shared state: an atomic cursor over the
// indices, the helpers that joined it, and the lowest-index error so
// far. Jobs are recycled; a job is reused only after every helper that
// joined it is done with it.
type mapJob struct {
	sem    chan struct{}
	tok    *Token
	n      int
	fn     func(i int) error
	next   atomic.Int64
	joined sync.WaitGroup

	mu    sync.Mutex
	errAt int // index of err; n while no task failed
	err   error
}

var mapJobs = sync.Pool{New: func() any { return new(mapJob) }}

// run claims indices until they run out or the token errs.
func (j *mapJob) run() {
	for j.tok.Err() == nil {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.runOne(i)
	}
}

// runOne runs task i holding a semaphore slot and keeps its error if it
// is the lowest-index one so far.
func (j *mapJob) runOne(i int) {
	j.sem <- struct{}{}
	err := j.fn(i)
	<-j.sem
	if err != nil {
		j.mu.Lock()
		if i < j.errAt {
			j.errAt, j.err = i, err
		}
		j.mu.Unlock()
	}
}

// Map runs fn(0..n-1), each call at most once, and returns the
// lowest-index error (or the token's error when cancellation preempted
// remaining tasks). On a nil pool, a single-task fan-out, or a
// single-worker pool it runs serially in index order on the calling
// goroutine. Otherwise the calling goroutine claims index 0 before it
// offers the job to at most min(Workers, n)-1 idle helpers, so it always
// runs at least one task, then claims more from the same ordered cursor
// as they do; every running task holds a global semaphore slot — but
// which goroutine runs which index is deliberately unobservable: fn must
// confine its effects to per-index state.
//
// Cancellation: tok.Err() is polled before each task; once it reports
// an error, no new task starts (running tasks finish — fn should poll
// the token itself at finer granularity if its tasks are long).
func (p *Pool) Map(tok *Token, n int, fn func(i int) error) error {
	if n <= 0 {
		return tok.Err()
	}
	if p == nil || p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := tok.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return tok.Err()
	}

	j := mapJobs.Get().(*mapJob)
	j.sem, j.tok, j.n, j.fn = p.sem, tok, n, fn
	// Index 0 is the caller's before any helper can see the job.
	j.next.Store(1)
	j.mu.Lock()
	j.errAt, j.err = n, nil
	j.mu.Unlock()
offer:
	for range min(p.workers, n) - 1 {
		j.joined.Add(1)
		select {
		case p.jobs <- j:
		default:
			j.joined.Done()
			break offer
		}
	}
	if tok.Err() == nil {
		j.runOne(0)
		j.run()
	}
	j.joined.Wait()
	// Deterministic error selection: the lowest-index failure wins, so
	// the reported error does not depend on goroutine interleaving.
	j.mu.Lock()
	err := j.err
	j.err = nil
	j.mu.Unlock()
	j.tok, j.fn = nil, nil
	mapJobs.Put(j)
	if err != nil {
		return err
	}
	return tok.Err()
}
