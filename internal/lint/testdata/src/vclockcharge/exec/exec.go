// Package exec exercises nilcharge's request-path rule from an Evaluate*
// request root.
package exec

import (
	"vclockcharge/simio"
	"vclockcharge/vclock"
)

// Engine mirrors the real engine: a store plus the request account.
type Engine struct {
	Store *simio.Store
	Acct  *vclock.Account
}

// Evaluate is a request-path root (name prefix Evaluate, package exec).
func (e *Engine) Evaluate(key uint64) []byte {
	b := e.Store.ReadAll(e.Acct, key) // charged: the account is passed through
	e.scan(key)
	e.preload([]uint64{key})
	e.scanSuppressed(key)
	return b
}

// scan does uncharged I/O on the request path: flagged.
func (e *Engine) scan(key uint64) {
	e.Store.ReadAll(nil, key) // want `uncharged simio I/O on a request path: Store\.ReadAll .*reachable from exec\.Engine\.Evaluate`
}

// preload reads uncharged but aggregate-charges in the same frame — the
// sanctioned batch pattern (cf. the real engine's full-scan preload).
func (e *Engine) preload(keys []uint64) {
	var n int64
	for _, k := range keys {
		n += int64(len(e.Store.ReadAll(nil, k)))
	}
	e.Acct.ChargeCost(vclock.Cost{Storage: n})
}

// scanSuppressed shows the escape hatch: the directive names the
// analyzer and gives a reason.
func (e *Engine) scanSuppressed(key uint64) {
	//lint:ignore nilcharge oracle comparison read, charged by the harness
	e.Store.ReadAll(nil, key)
}

// offline is NOT reachable from any request root: uncharged reads are
// fine here (ground-truth oracles, offline baselines).
func (e *Engine) offline(key uint64) []byte {
	return e.Store.ReadAll(nil, key)
}
