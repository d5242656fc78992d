// Package simio is the storage substrate under the PDC servers: a
// deterministic model of an HPC storage hierarchy that really stores the
// bytes and charges virtual time for every access.
//
// The paper's PDC runs against Lustre with data spread across storage
// devices and small reads aggregated into larger ones (§III-E); regions can
// live on any layer of the memory/storage hierarchy (§II). This package
// models three tiers (memory, burst buffer, parallel file system) with
// per-operation latency, per-stream bandwidth, and a shared backend
// bandwidth that caps what all servers together can stream at once.
// Costs are charged to a vclock.Account instead of sleeping, so experiments
// are deterministic and fast while preserving the two drivers behind every
// result in the paper: bytes touched and number of non-contiguous
// operations.
package simio

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"pdcquery/internal/dtype"
	"pdcquery/internal/vclock"
)

// Tier identifies a layer of the storage hierarchy.
type Tier int

const (
	// Memory is server DRAM (the region cache target).
	Memory Tier = iota
	// BurstBuffer is an NVRAM/SSD layer.
	BurstBuffer
	// PFS is the parallel file system (Lustre in the paper).
	PFS
	numTiers
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case Memory:
		return "memory"
	case BurstBuffer:
		return "burst-buffer"
	case PFS:
		return "pfs"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// TierParams is the cost model for one tier.
type TierParams struct {
	// ReadLatency is charged once per read operation.
	ReadLatency time.Duration
	// WriteLatency is charged once per write operation.
	WriteLatency time.Duration
	// ReadBW and WriteBW are per-stream bandwidths in bytes/second.
	ReadBW  float64
	WriteBW float64
	// SharedBW caps the aggregate backend bandwidth across all concurrent
	// streams (0 means uncapped). The store never applies it: per-read
	// costs are uncontended, and the client charges the aggregate
	// shared-backend floor per query instead (a static division by the
	// server count would penalize idle servers on selective queries).
	SharedBW float64
}

// Model is the full cost model for a Store.
type Model struct {
	Tiers [numTiers]TierParams
	// AggGap is the maximum gap in bytes between two requested ranges for
	// them to be merged into one operation by ReadRanges when aggregation
	// is on. Wasted gap bytes are still charged for transfer.
	AggGap int64
	// Aggregate enables small-read merging (the PDC read path). The
	// HDF5-F baseline runs with Aggregate=false.
	Aggregate bool
}

// DefaultModel returns a cost model loosely calibrated to a Cori-class
// system: DRAM, NVMe burst buffer, and a Lustre-like PFS.
func DefaultModel() Model {
	var m Model
	m.Tiers[Memory] = TierParams{
		ReadLatency: 100 * time.Nanosecond, WriteLatency: 100 * time.Nanosecond,
		ReadBW: 30e9, WriteBW: 20e9,
	}
	m.Tiers[BurstBuffer] = TierParams{
		ReadLatency: 30 * time.Microsecond, WriteLatency: 50 * time.Microsecond,
		ReadBW: 5e9, WriteBW: 3e9, SharedBW: 400e9,
	}
	m.Tiers[PFS] = TierParams{
		ReadLatency: 2 * time.Millisecond, WriteLatency: 3 * time.Millisecond,
		ReadBW: 1.5e9, WriteBW: 1.2e9, SharedBW: 96e9,
	}
	m.AggGap = 256 << 10
	m.Aggregate = true
	return m
}

// ReadCost returns the modeled cost of one read of n bytes from tier t:
// the tier's latency plus n bytes at its uncontended per-stream
// bandwidth.
func (m *Model) ReadCost(t Tier, n int64) vclock.Cost {
	d := m.Tiers[t].ReadLatency
	if bw := m.Tiers[t].ReadBW; bw > 0 && n > 0 {
		d += time.Duration(float64(n) / bw * 1e9)
	}
	return vclock.CostOf(vclock.Storage, d)
}

// WriteCost returns the modeled cost of one write of n bytes to tier t.
func (m *Model) WriteCost(t Tier, n int64) vclock.Cost {
	d := m.Tiers[t].WriteLatency
	if bw := m.Tiers[t].WriteBW; bw > 0 && n > 0 {
		d += time.Duration(float64(n) / bw * 1e9)
	}
	return vclock.CostOf(vclock.Storage, d)
}

// Range is a byte range [Off, Off+Len) within an extent.
type Range struct {
	Off int64
	Len int64
}

// extent is one named stored byte stream on a particular tier.
type extent struct {
	data []byte
	tier Tier
}

// AccessHook observes (and may perturb) every read the store performs.
// It returns an extra modeled delay charged on top of the tier cost
// (a fault-injected tier slowdown) and/or an error that fails the read
// (a fault-injected storage error). A nil return of both leaves the
// access untouched. Hooks must be deterministic: the store calls them
// synchronously under no lock, once per Read/ReadRanges call.
type AccessHook func(op, key string, tier Tier, bytes int64) (time.Duration, error)

// Store holds named extents and charges modeled costs for every access.
// It is safe for concurrent use.
//
// Store is the one place a nil account is allowed: every method that
// takes one skips its charge when it is nil. Uncharged access is for the
// work outside the modeled figures — brute-force oracles, baselines,
// snapshots, the full-scan preload (which charges its aggregate
// afterwards), test fixtures and the wall-clock benchmark's harness.
// Everything above the store takes a required account.
type Store struct {
	mu      sync.RWMutex
	extents map[string]*extent
	model   Model
	hook    AccessHook
}

// New returns an empty store with the given cost model.
func New(model Model) *Store {
	return &Store{extents: make(map[string]*extent), model: model}
}

// Model returns a copy of the store's cost model.
func (s *Store) Model() Model {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.model
}

// SetAggregate toggles read aggregation.
func (s *Store) SetAggregate(on bool) {
	s.mu.Lock()
	s.model.Aggregate = on
	s.mu.Unlock()
}

// SetAccessHook installs (or, with nil, removes) the read-path fault
// seam. Install before serving queries; the hook fires on every Read,
// ReadAll, and ReadRanges.
func (s *Store) SetAccessHook(h AccessHook) {
	s.mu.Lock()
	s.hook = h
	s.mu.Unlock()
}

// applyHook runs the access hook for one read of n bytes, charging any
// injected slowdown to a. It returns the hook's error, wrapped with the
// extent key so failures are attributable.
func (s *Store) applyHook(h AccessHook, a *vclock.Account, op, key string, tier Tier, n int64) error {
	if h == nil {
		return nil
	}
	extra, err := h(op, key, tier, n)
	if extra > 0 && a != nil {
		a.ChargeCost(vclock.CostOf(vclock.Storage, extra))
		a.CountID(faultSlowCounter, 1)
	}
	if err != nil {
		return fmt.Errorf("simio: %s %q: %w", op, key, err)
	}
	return nil
}

// Write stores data (copied) under key on the given tier, replacing any
// previous extent, and charges the write cost to a.
func (s *Store) Write(a *vclock.Account, key string, tier Tier, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.extents[key] = &extent{data: cp, tier: tier}
	model := s.model
	s.mu.Unlock()
	if a != nil {
		a.ChargeCost(model.WriteCost(tier, int64(len(data))))
		countRW(a, opWrite, tier, 1, int64(len(data)))
	}
}

// WriteOwned is like Write but takes ownership of data without copying.
// The caller must not modify data afterwards. It exists so bulk dataset
// imports do not double peak memory.
func (s *Store) WriteOwned(a *vclock.Account, key string, tier Tier, data []byte) {
	s.mu.Lock()
	s.extents[key] = &extent{data: data, tier: tier}
	model := s.model
	s.mu.Unlock()
	if a != nil {
		a.ChargeCost(model.WriteCost(tier, int64(len(data))))
		countRW(a, opWrite, tier, 1, int64(len(data)))
	}
}

// Access kinds of the counter table.
const (
	opRead = iota
	opWrite
	numOps
)

// rwCounter holds one access kind's counter IDs: the aggregate pair
// ("read.ops", "read.bytes") and the per-tier pairs ("read.ops.pfs", ...).
type rwCounter struct {
	ops, bytes         vclock.CounterID
	tierOps, tierBytes [numTiers]vclock.CounterID
}

// rwCounters is the [op][tier] counter table, interned once so an access
// builds no name.
var rwCounters = func() (t [numOps]rwCounter) {
	for op, name := range [numOps]string{opRead: "read", opWrite: "write"} {
		t[op].ops = vclock.Intern(name + ".ops")
		t[op].bytes = vclock.Intern(name + ".bytes")
		for tier := Tier(0); tier < numTiers; tier++ {
			t[op].tierOps[tier] = vclock.Intern(name + ".ops." + tier.String())
			t[op].tierBytes[tier] = vclock.Intern(name + ".bytes." + tier.String())
		}
	}
	return t
}()

// faultSlowCounter counts fault-injected slowdowns on the read path,
// interned once like the table.
var faultSlowCounter = vclock.Intern("fault.slow.ops")

// CountRead records a read of the given operations and bytes from tier t
// on a's aggregate and per-tier counters — what the store counts for its
// own reads, for a caller that charges a read it performed some other
// way.
func CountRead(a *vclock.Account, t Tier, ops, bytes int64) {
	countRW(a, opRead, t, ops, bytes)
}

// countRW records an access on both the aggregate counters ("read.ops",
// "read.bytes") and the per-tier ones ("read.ops.pfs", ...), so telemetry
// can break read traffic down by storage tier.
func countRW(a *vclock.Account, op int, t Tier, ops, bytes int64) {
	c := &rwCounters[op]
	a.CountID(c.ops, ops)
	a.CountID(c.bytes, bytes)
	a.CountID(c.tierOps[t], ops)
	a.CountID(c.tierBytes[t], bytes)
}

// Read returns the bytes [off, off+n) of extent key, charging the modeled
// cost to a. The returned view aliases the stored data — that is what
// makes reads zero-copy — and its dtype.ROBytes type declares it
// read-only; aliasguard rejects writes through it.
func (s *Store) Read(a *vclock.Account, key string, off, n int64) (dtype.ROBytes, error) {
	s.mu.RLock()
	e, ok := s.extents[key]
	model := s.model
	hook := s.hook
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("simio: extent %q not found", key)
	}
	if off < 0 || n < 0 || off+n > int64(len(e.data)) {
		return nil, fmt.Errorf("simio: read [%d,%d) out of bounds of %q (%d bytes)", off, off+n, key, len(e.data))
	}
	if err := s.applyHook(hook, a, "read", key, e.tier, n); err != nil {
		return nil, err
	}
	if a != nil {
		a.ChargeCost(model.ReadCost(e.tier, n))
		countRW(a, opRead, e.tier, 1, n)
	}
	return e.data[off : off+n], nil
}

// ReadAll reads the whole extent as a read-only view.
func (s *Store) ReadAll(a *vclock.Account, key string) (dtype.ROBytes, error) {
	sz, err := s.Size(key)
	if err != nil {
		return nil, err
	}
	return s.Read(a, key, 0, sz)
}

// ReadRanges reads multiple byte ranges from one extent. When aggregation
// is enabled, ranges whose gaps are at most AggGap are coalesced into a
// single operation (one latency charge; gap bytes are charged for transfer,
// modeling the over-read). Results are returned in the order requested, in
// dst's storage when it has the capacity (dst may be nil; a hot path hands
// back the slice of its previous call).
func (s *Store) ReadRanges(dst []dtype.ROBytes, a *vclock.Account, key string, ranges []Range) ([]dtype.ROBytes, error) {
	s.mu.RLock()
	e, ok := s.extents[key]
	model := s.model
	hook := s.hook
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("simio: extent %q not found", key)
	}
	out := slices.Grow(dst[:0], len(ranges))[:len(ranges)]
	var want int64
	for i, r := range ranges {
		if r.Off < 0 || r.Len < 0 || r.Off+r.Len > int64(len(e.data)) {
			return nil, fmt.Errorf("simio: range [%d,%d) out of bounds of %q", r.Off, r.Off+r.Len, key)
		}
		out[i] = e.data[r.Off : r.Off+r.Len]
		want += r.Len
	}
	if err := s.applyHook(hook, a, "readranges", key, e.tier, want); err != nil {
		return nil, err
	}
	if a == nil {
		return out, nil
	}
	// Cost accounting: sort a copy of the ranges and merge. The copy
	// lives on the stack up to 64 ranges, so the bin reads of a narrow
	// condition allocate nothing.
	var buf [64]Range
	sorted := append(buf[:0], ranges...)
	slices.SortFunc(sorted, func(x, y Range) int { return cmp.Compare(x.Off, y.Off) })
	gap := model.AggGap
	if !model.Aggregate {
		gap = -1
	}
	var ops int64
	var bytes int64
	for i := 0; i < len(sorted); {
		end := sorted[i].Off + sorted[i].Len
		j := i + 1
		for j < len(sorted) && gap >= 0 && sorted[j].Off-end <= gap {
			if e2 := sorted[j].Off + sorted[j].Len; e2 > end {
				end = e2
			}
			j++
		}
		ops++
		bytes += end - sorted[i].Off
		i = j
	}
	var d time.Duration
	d = time.Duration(ops) * model.Tiers[e.tier].ReadLatency
	if bw := model.Tiers[e.tier].ReadBW; bw > 0 {
		d += time.Duration(float64(bytes) / bw * 1e9)
	}
	a.ChargeCost(vclock.CostOf(vclock.Storage, d))
	countRW(a, opRead, e.tier, ops, bytes)
	return out, nil
}

// Size returns the length in bytes of extent key.
func (s *Store) Size(key string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.extents[key]
	if !ok {
		return 0, fmt.Errorf("simio: extent %q not found", key)
	}
	return int64(len(e.data)), nil
}

// TierOf returns the tier an extent currently resides on.
func (s *Store) TierOf(key string) (Tier, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.extents[key]
	if !ok {
		return 0, fmt.Errorf("simio: extent %q not found", key)
	}
	return e.tier, nil
}

// Migrate moves an extent to another tier, charging a read from the old
// tier and a write to the new one. This is the substrate for PDC's
// transparent data movement across the hierarchy.
func (s *Store) Migrate(a *vclock.Account, key string, to Tier) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.extents[key]
	if !ok {
		return fmt.Errorf("simio: extent %q not found", key)
	}
	if e.tier == to {
		return nil
	}
	if a != nil {
		n := int64(len(e.data))
		a.ChargeCost(s.model.ReadCost(e.tier, n))
		a.ChargeCost(s.model.WriteCost(to, n))
		a.Count("migrate.ops", 1)
		a.Count("migrate.bytes", n)
	}
	e.tier = to
	return nil
}

// Delete removes an extent. Deleting a missing extent is a no-op.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	delete(s.extents, key)
	s.mu.Unlock()
}

// Exists reports whether an extent is present.
func (s *Store) Exists(key string) bool {
	s.mu.RLock()
	_, ok := s.extents[key]
	s.mu.RUnlock()
	return ok
}

// Keys returns all extent keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	keys := make([]string, 0, len(s.extents))
	for k := range s.extents {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	slices.Sort(keys)
	return keys
}

// TotalBytes returns the sum of extent sizes, optionally filtered by tier
// (pass a negative tier for all tiers).
func (s *Store) TotalBytes(t Tier) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, e := range s.extents {
		if t < 0 || e.tier == t {
			n += int64(len(e.data))
		}
	}
	return n
}
