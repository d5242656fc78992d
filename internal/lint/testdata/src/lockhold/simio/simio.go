// Package simio mirrors internal/simio's Store: the I/O methods are
// hold-rule sinks for its callers, and the package itself is exempt.
package simio

// Store is the storage backend.
type Store struct{ data map[uint64][]byte }

// Read reads one object.
func (s *Store) Read(key uint64) []byte { return s.data[key] }

// Write stores one object.
func (s *Store) Write(key uint64, b []byte) { s.data[key] = b }
