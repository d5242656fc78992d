// Package server exercises nilcharge's request-path rule from a handle*
// request root, including multi-hop reachability through a helper.
package server

import "vclockcharge/simio"

// Server holds the store.
type Server struct{ store *simio.Store }

// handleGet is a request-path root (name prefix handle, package server).
func (s *Server) handleGet(key uint64) []byte {
	return fetch(s.store, key)
}

// fetch is two hops from the root and writes uncharged: flagged.
func fetch(st *simio.Store, key uint64) []byte {
	st.Write(nil, key, nil) // want `uncharged simio I/O on a request path: Store\.Write .*reachable from server\.Server\.handleGet`
	return st.ReadAll(nil, key) // want `uncharged simio I/O on a request path: Store\.ReadAll`
}
