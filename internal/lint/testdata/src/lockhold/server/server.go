// Package server exercises lockset's hold rule: storage I/O, transport
// sends, and blocking channel sends on CFG paths between Lock and Unlock.
package server

import (
	"sync"

	"lockhold/simio"
	"lockhold/transport"
)

// Server guards its stats with mu; the handles above it are set once at
// construction.
type Server struct {
	store *simio.Store
	conn  *transport.Conn
	ch    chan int
	mu    sync.Mutex
	stats map[string]int64
}

// flush is a helper that reaches storage; holding mu across it is the
// transitive form of the defect.
func (s *Server) flush(key uint64, b []byte) {
	s.store.Write(key, b)
}

// BadReadUnderLock performs storage I/O inside the critical section.
func (s *Server) BadReadUnderLock(key uint64) []byte {
	s.mu.Lock()
	b := s.store.Read(key) // want `storage Read while holding`
	s.mu.Unlock()
	return b
}

// GoodReadAfterUnlock releases before touching storage.
func (s *Server) GoodReadAfterUnlock(key uint64) []byte {
	s.mu.Lock()
	s.stats["reads"]++
	s.mu.Unlock()
	return s.store.Read(key)
}

// BadDeferredHold: a deferred Unlock keeps the lock held to exit, so
// the read happens inside the critical section.
func (s *Server) BadDeferredHold(key uint64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Read(key) // want `storage Read while holding`
}

// BadSendUnderLock serializes the wire behind the mutex.
func (s *Server) BadSendUnderLock(m transport.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn.Send(m) // want `transport Send while holding`
}

// BadChanSendUnderLock can deadlock: the receiver may need mu to drain.
func (s *Server) BadChanSendUnderLock(v int) {
	s.mu.Lock()
	s.ch <- v // want `channel send while holding`
	s.mu.Unlock()
}

// GoodNonBlockingSend cannot block: select with default.
func (s *Server) GoodNonBlockingSend(v int) {
	s.mu.Lock()
	select {
	case s.ch <- v:
	default:
	}
	s.mu.Unlock()
}

// BadTransitiveWrite reaches storage through a helper while locked.
func (s *Server) BadTransitiveWrite(key uint64, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush(key, b) // want `storage Write via .*flush while holding`
}

// BadConditionalLock: held on one in-path is held enough (may-analysis).
func (s *Server) BadConditionalLock(cond bool, key uint64) []byte {
	if cond {
		s.mu.Lock()
	}
	b := s.store.Read(key) // want `storage Read while holding`
	if cond {
		s.mu.Unlock()
	}
	return b
}

// GoodLitFreshHeldSet: a literal body runs at an unknown call site, so
// it is analyzed with an empty held set.
func (s *Server) GoodLitFreshHeldSet(key uint64) func() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() []byte { return s.store.Read(key) }
}

// IgnoredSend documents the suppression.
func (s *Server) IgnoredSend(m transport.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore lockset bounded peer buffer; the receiver never takes mu
	return s.conn.Send(m)
}
