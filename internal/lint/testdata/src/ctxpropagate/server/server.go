// Package server exercises ctxpropagate from handle* request roots.
package server

import (
	"context"

	"ctxpropagate/exec"
	"ctxpropagate/simio"
)

// Server mirrors the real server: it owns the session context and the
// engine it dispatches requests into.
type Server struct {
	Engine *exec.Engine
	Store  *simio.Store
}

// handleQuery is a root; it holds the session context, so its watchdog
// goroutine is sanctioned.
func (s *Server) handleQuery(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
	exec.Evaluate(s.Engine)
}

// handlePrefetch is a root with an uncancellable warm-up loop of its
// own: roots are held to the same contract as their callees.
func (s *Server) handlePrefetch(keys []uint64) {
	for _, k := range keys { // want `storage-I/O loop on a request path in server\.Server\.handlePrefetch \(reachable from server\.Server\.handlePrefetch\)`
		s.Store.ReadAll(k)
	}
}

// request carries the per-request cancellation state the way the real
// server's handler table passes it: inside one struct parameter.
type request struct {
	ctx  context.Context
	keys []uint64
}

// handleFetch loops over storage but checks the context it selects from
// its request parameter: cancellation flows in, so it is sanctioned.
func (s *Server) handleFetch(r *request) {
	for _, k := range r.keys {
		if r.ctx.Err() != nil {
			return
		}
		s.Store.ReadAll(k)
	}
}

// handleFetchBlind takes the same request and never looks at its
// context: carrying cancellation state is not using it.
func (s *Server) handleFetchBlind(r *request) {
	for _, k := range r.keys { // want `storage-I/O loop on a request path in server\.Server\.handleFetchBlind \(reachable from server\.Server\.handleFetchBlind\)`
		s.Store.ReadAll(k)
	}
}
