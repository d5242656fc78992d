package sched

import "sync"

// fqSession is one session's slice of the fair queue: a FIFO backlog
// plus its deficit counter. A session is in the ring only while it has
// queued items (an emptied session leaves it and its deficit resets, per
// classic DRR), but its state outlives the busy period: a closed-loop
// session empties after every request, and its next Push reuses the
// backlog's storage instead of allocating it again. Drop frees it.
type fqSession[T any] struct {
	key uint64
	// items[head:] and costs[head:] are the backlog; the popped prefix
	// is reclaimed when the session empties or the storage is full.
	items []T
	costs []int64
	head  int
	// deficit is the session's accumulated service allowance; charged
	// marks that the current visit already received its quantum.
	deficit int64
	charged bool
	inRing  bool
}

func (s *fqSession[T]) len() int { return len(s.items) - s.head }

// FairQueue is a deficit-round-robin fair queue with per-session
// admission control. Producers Push under a session key; consumers Pop.
// Each session's backlog is bounded by depth — Push returns ErrBusy
// instead of growing it, which is the backpressure signal the server
// converts into a MsgBusy reply. Service order interleaves sessions by
// DRR: every ring visit grants the session `quantum` cost units, and a
// session is served while its deficit covers the head item's cost, so
// a session of expensive requests cannot starve one of cheap requests.
type FairQueue[T any] struct {
	mu    sync.Mutex
	cond  *sync.Cond
	depth int
	// quantum is the per-visit service allowance in the same units as
	// Push costs (1 and 1 gives plain round robin over requests).
	quantum  int64
	sessions map[uint64]*fqSession[T]
	ring     []*fqSession[T] // sessions with queued items, visit order
	cursor   int
	size     int
	hiwater  int // max total backlog ever observed (monotonic)
	closed   bool
	// admitted, when set, is called inside Push's critical section for
	// every item the queue accepts, with the session's backlog after the
	// push. A consumer cannot Pop the item until Push releases the lock,
	// so whatever the callback records about the admission is ordered
	// before anything a consumer records about the item. It must not
	// call back into the queue.
	admitted func(v T, queued int)
}

// NewFairQueue builds a queue with the given per-session depth bound
// and DRR quantum (both floored at 1). admitted may be nil; see the
// field for its contract.
func NewFairQueue[T any](depth int, quantum int64, admitted func(v T, queued int)) *FairQueue[T] {
	if depth < 1 {
		depth = 1
	}
	if quantum < 1 {
		quantum = 1
	}
	q := &FairQueue[T]{depth: depth, quantum: quantum, sessions: make(map[uint64]*fqSession[T]), admitted: admitted}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues v for the session, with a relative service cost (floored
// at 1; use 1 for uniform requests). It returns ErrBusy when the
// session's backlog is at depth, and ErrClosed after Close. The returned
// length is the session's backlog observed inside the critical section —
// after the push on success, the full depth on ErrBusy — so callers can
// report admission state without a racy re-read (a dispatcher may pop
// the item the instant the lock is released).
func (q *FairQueue[T]) Push(session uint64, cost int64, v T) (int, error) {
	if cost < 1 {
		cost = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	s := q.sessions[session]
	if s == nil {
		s = &fqSession[T]{key: session}
		q.sessions[session] = s
	}
	if s.len() >= q.depth {
		return s.len(), ErrBusy
	}
	if !s.inRing {
		s.inRing = true
		q.ring = append(q.ring, s)
	}
	if s.head > 0 && len(s.items) == cap(s.items) {
		// Slide the backlog to the front rather than grow past the
		// popped prefix.
		n := copy(s.items, s.items[s.head:])
		copy(s.costs, s.costs[s.head:])
		clear(s.items[n:])
		s.items, s.costs, s.head = s.items[:n], s.costs[:n], 0
	}
	s.items = append(s.items, v)
	s.costs = append(s.costs, cost)
	q.size++
	if q.size > q.hiwater {
		q.hiwater = q.size
	}
	if q.admitted != nil {
		q.admitted(v, s.len())
	}
	q.cond.Signal()
	return s.len(), nil
}

// Pop blocks until an item is available and returns the next item in
// DRR order. ok is false once the queue is closed and drained.
func (q *FairQueue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 {
		if q.closed {
			return v, false
		}
		q.cond.Wait()
	}
	for {
		s := q.ring[q.cursor]
		if !s.charged {
			s.deficit += q.quantum
			s.charged = true
		}
		if c := s.costs[s.head]; s.deficit >= c {
			v = s.items[s.head]
			var zero T
			s.items[s.head] = zero // the queue keeps no reference to a popped item
			s.deficit -= c
			s.head++
			q.size--
			if s.len() == 0 {
				s.items, s.costs, s.head = s.items[:0], s.costs[:0], 0
				q.removeLocked(s)
			}
			return v, true
		}
		// Allowance spent: the visit ends, the next session is charged.
		s.charged = false
		q.cursor = (q.cursor + 1) % len(q.ring)
	}
}

// removeLocked takes an emptied session out of the ring and resets its
// DRR state (q.mu held). The session keeps its storage for its next
// busy period.
func (q *FairQueue[T]) removeLocked(s *fqSession[T]) {
	s.deficit, s.charged = 0, false
	if !s.inRing {
		return
	}
	s.inRing = false
	for i, rs := range q.ring {
		if rs == s {
			q.ring = append(q.ring[:i], q.ring[i+1:]...)
			if q.cursor > i || q.cursor >= len(q.ring) {
				q.cursor--
			}
			if q.cursor < 0 {
				q.cursor = 0
			}
			break
		}
	}
}

// Drop discards a session's queued items (its connection went away),
// frees the session's state and returns the dropped items. The caller
// owns any per-item cleanup.
func (q *FairQueue[T]) Drop(session uint64) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.sessions[session]
	if s == nil {
		return nil
	}
	dropped := s.items[s.head:]
	q.size -= s.len()
	s.items, s.costs, s.head = nil, nil, 0
	q.removeLocked(s)
	delete(q.sessions, session)
	//lint:ignore aliasguard ownership transfer: s.items is nil'd above and the session deleted, the queue keeps no alias
	return dropped
}

// Len returns the total queued item count.
func (q *FairQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// HighWater returns the maximum total backlog the queue has ever held —
// the admission-control headroom gauge (sched.queue.hiwater).
func (q *FairQueue[T]) HighWater() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.hiwater
}

// SessionLen returns one session's backlog length.
func (q *FairQueue[T]) SessionLen(session uint64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if s := q.sessions[session]; s != nil {
		return s.len()
	}
	return 0
}

// Close wakes all blocked Pops; queued items may still be drained
// (Pop keeps returning items until empty, then reports !ok).
func (q *FairQueue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
