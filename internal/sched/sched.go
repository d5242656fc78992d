// Package sched is the concurrent query scheduler: the subsystem that
// converts the one-request-at-a-time assumption of the original server
// loop into region-parallel, multi-session execution while preserving
// the repo's determinism contract.
//
// Three pieces compose it:
//
//   - Token: an end-to-end cancellation handle carrying a Go context
//     (cancelled when the issuing session disconnects or the server
//     shuts down) and an optional virtual-time deadline — a budget in
//     virtual nanoseconds checked against a *vclock.Account, so
//     deadline enforcement is deterministic and never reads the wall
//     clock.
//   - Pool: a bounded worker pool for region-level evaluation tasks.
//     Map fans a task function out over n indices with at most
//     Workers tasks in flight across all concurrent queries; callers
//     merge per-index results in index order, so results are
//     byte-identical regardless of goroutine interleaving.
//   - FairQueue: a deficit-round-robin fair queue with per-session
//     admission control. Push rejects with ErrBusy when a session's
//     backlog is full (the server answers MsgBusy with a retry-after
//     hint instead of buffering without bound).
//
// The package deliberately has no time.Now, no rand, and no unbounded
// buffering: all waiting is channel/cond-based, all deadlines are
// virtual, and every queue is depth-bounded.
package sched

import (
	"context"
	"errors"
	"time"

	"pdcquery/internal/vclock"
)

// Sentinel errors of the scheduler.
var (
	// ErrBusy reports an admission rejection: the session's queue slice
	// is full. Clients back off and retry (MsgBusy carries the hint).
	ErrBusy = errors.New("sched: queue full")
	// ErrCanceled reports that the token's context ended (session
	// disconnect or server shutdown).
	ErrCanceled = errors.New("sched: canceled")
	// ErrDeadline reports that a request exceeded its virtual-time
	// budget (the wire-level deadline field).
	ErrDeadline = errors.New("sched: virtual deadline exceeded")
	// ErrClosed reports an operation on a closed queue.
	ErrClosed = errors.New("sched: queue closed")
)

// Token is the cancellation handle threaded from the server's session
// loop through the evaluation engine into region tasks. A nil *Token is
// valid and never cancels — untraced library callers (tests, offline
// tools) pass nil and pay nothing.
type Token struct {
	ctx    context.Context
	acct   *vclock.Account
	budget time.Duration
}

// NewToken builds a token. ctx may be nil (never context-cancelled);
// budget <= 0 disables the virtual deadline; acct is the account whose
// accumulated cost the budget is checked against (the per-request
// account, so concurrent requests cannot charge each other's budgets),
// required whenever budget > 0.
func NewToken(ctx context.Context, acct *vclock.Account, budget time.Duration) *Token {
	return &Token{ctx: ctx, acct: acct, budget: budget}
}

// Context returns the token's context (context.Background for nil
// tokens or tokens without one).
func (t *Token) Context() context.Context {
	if t == nil || t.ctx == nil {
		return context.Background()
	}
	return t.ctx
}

// Err reports why the work should stop: ErrCanceled once the context
// ends, ErrDeadline once the account's virtual cost exceeds the budget,
// nil while the work may continue. Checking is cheap enough for region
// granularity (one channel poll plus one mutex-guarded read).
func (t *Token) Err() error {
	if t == nil {
		return nil
	}
	if t.ctx != nil {
		select {
		case <-t.ctx.Done():
			return ErrCanceled
		default:
		}
	}
	if t.budget > 0 && t.acct.Cost().Total() > t.budget {
		return ErrDeadline
	}
	return nil
}

// Budget returns the virtual deadline (0 when none).
func (t *Token) Budget() time.Duration {
	if t == nil {
		return 0
	}
	return t.budget
}
