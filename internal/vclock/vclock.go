// Package vclock provides deterministic virtual-time cost accounting for
// the simulated storage and network substrate.
//
// The paper's evaluation ran on Cori against Lustre; elapsed time there is
// dominated by bytes moved and the number of non-contiguous operations.
// Instead of sleeping, every simulated component charges virtual
// nanoseconds to an Account. Accounts belonging to servers that work in
// parallel are combined with Max (the slowest server determines elapsed
// time); sequential phases are combined with Add. The result is a
// deterministic model of end-to-end elapsed time that preserves the cost
// drivers the paper's conclusions depend on.
package vclock

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"
)

// Category labels a cost component so experiment output can break down
// where modeled time is spent.
type Category int

const (
	// Storage is time spent in storage reads/writes (latency + transfer).
	Storage Category = iota
	// Compute is time spent scanning, probing, or decoding in memory.
	Compute
	// Network is time spent moving bytes between client and servers.
	Network
	// Meta is time spent in metadata operations.
	Meta
	numCategories
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case Storage:
		return "storage"
	case Compute:
		return "compute"
	case Network:
		return "network"
	case Meta:
		return "meta"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Cost is a virtual duration with a per-category breakdown. The zero value
// is a zero cost, ready to use.
type Cost struct {
	parts [numCategories]time.Duration
}

// CostOf returns a Cost with d charged to category c.
func CostOf(c Category, d time.Duration) Cost {
	var k Cost
	k.parts[c] = d
	return k
}

// Total returns the summed duration across categories.
func (k Cost) Total() time.Duration {
	var t time.Duration
	for _, p := range k.parts {
		t += p
	}
	return t
}

// Part returns the duration charged to category c.
func (k Cost) Part(c Category) time.Duration { return k.parts[c] }

// Add returns the sequential combination of two costs.
func (k Cost) Add(o Cost) Cost {
	for i := range k.parts {
		k.parts[i] += o.parts[i]
	}
	return k
}

// Sub returns the component-wise difference k - o (used to compute the
// incremental cost of one request from a running account).
func (k Cost) Sub(o Cost) Cost {
	for i := range k.parts {
		k.parts[i] -= o.parts[i]
	}
	return k
}

// Scale returns the cost multiplied by f (f must be >= 0).
func (k Cost) Scale(f float64) Cost {
	for i := range k.parts {
		k.parts[i] = time.Duration(float64(k.parts[i]) * f)
	}
	return k
}

// Max returns the parallel combination of two costs: the one with the
// larger total wins outright (its breakdown is kept), modeling two
// components running concurrently.
func (k Cost) Max(o Cost) Cost {
	if o.Total() > k.Total() {
		return o
	}
	return k
}

// String formats the cost as a total with a breakdown.
func (k Cost) String() string {
	s := fmt.Sprintf("%v", k.Total())
	for c := Category(0); c < numCategories; c++ {
		if k.parts[c] > 0 {
			s += fmt.Sprintf(" %s=%v", c, k.parts[c])
		}
	}
	return s
}

// CounterID is an interned operation-counter name: a small dense index
// shared by every account in the process, so an account keeps its
// counters in a slot array instead of a map.
type CounterID uint32

// counterNames is the process-wide intern table. Names are only ever
// added, so an ID stays valid for the life of the process.
var counterNames struct {
	mu    sync.RWMutex
	ids   map[string]CounterID
	names []string
}

// Intern returns name's counter ID, assigning the next free one on first
// use. Hot paths intern their names once, at package initialisation, and
// count through CountID.
func Intern(name string) CounterID {
	if id, ok := lookupCounter(name); ok {
		return id
	}
	counterNames.mu.Lock()
	defer counterNames.mu.Unlock()
	if id, ok := counterNames.ids[name]; ok {
		return id
	}
	if counterNames.ids == nil {
		counterNames.ids = make(map[string]CounterID)
	}
	id := CounterID(len(counterNames.names))
	counterNames.ids[name] = id
	counterNames.names = append(counterNames.names, name)
	return id
}

func lookupCounter(name string) (CounterID, bool) {
	counterNames.mu.RLock()
	id, ok := counterNames.ids[name]
	counterNames.mu.RUnlock()
	return id, ok
}

// name returns the interned name.
func (id CounterID) name() string {
	counterNames.mu.RLock()
	defer counterNames.mu.RUnlock()
	return counterNames.names[id]
}

// inlineCounters is how many counter IDs an account holds without a heap
// slot array: more than the storage and cache counters a server ever
// touches, so only a process that interns many more names spills.
const inlineCounters = 32

// counterSlot is one spilled counter; set marks a counter that was
// counted (a zero count included), as the inline set mask does.
type counterSlot struct {
	v   int64
	set bool
}

// counters is an account's operation counters, indexed by CounterID: the
// first inlineCounters in place, marked in set when counted (a zero
// count included, so snapshots list exactly the counted names), the rest
// in spill at ID-inlineCounters.
type counters struct {
	set   uint32
	vals  [inlineCounters]int64
	spill []counterSlot
}

func (c *counters) add(id CounterID, n int64) {
	if id < inlineCounters {
		c.set |= 1 << id
		c.vals[id] += n
		return
	}
	k := int(id - inlineCounters)
	if k >= len(c.spill) {
		c.spill = slices.Grow(c.spill, k+1-len(c.spill))[:k+1]
	}
	c.spill[k].v += n
	c.spill[k].set = true
}

func (c *counters) get(id CounterID) int64 {
	if id < inlineCounters {
		return c.vals[id]
	}
	if k := int(id - inlineCounters); k < len(c.spill) {
		return c.spill[k].v
	}
	return 0
}

// addAll adds o slot by slot.
func (c *counters) addAll(o *counters) {
	c.set |= o.set
	for m := o.set; m != 0; m &= m - 1 {
		id := bits.TrailingZeros32(m)
		c.vals[id] += o.vals[id]
	}
	for k, s := range o.spill {
		if s.set {
			c.add(CounterID(k+inlineCounters), s.v)
		}
	}
}

// Account accumulates virtual time for one simulated execution context
// (e.g. one PDC server). Accounts are safe for concurrent use. The zero
// value is an empty account, so an account can live inside the value
// that owns it.
type Account struct {
	mu   sync.Mutex
	cost Cost
	ops  counters
}

// NewAccount returns an empty account.
func NewAccount() *Account {
	return &Account{}
}

// Charge adds d to category c.
func (a *Account) Charge(c Category, d time.Duration) {
	a.mu.Lock()
	a.cost.parts[c] += d
	a.mu.Unlock()
}

// ChargeCost adds an entire cost breakdown.
func (a *Account) ChargeCost(k Cost) {
	a.mu.Lock()
	a.cost = a.cost.Add(k)
	a.mu.Unlock()
}

// Count increments a named operation counter by n (e.g. "read.ops",
// "read.bytes"). Counters are reported by Snapshot for diagnostics.
// Paths that count often intern their names once and call CountID.
func (a *Account) Count(name string, n int64) {
	a.CountID(Intern(name), n)
}

// CountID increments an interned counter by n.
func (a *Account) CountID(id CounterID, n int64) {
	a.mu.Lock()
	a.ops.add(id, n)
	a.mu.Unlock()
}

// Cost returns the accumulated cost so far.
func (a *Account) Cost() Cost {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cost
}

// Counter returns the current value of a named counter.
func (a *Account) Counter(name string) int64 {
	id, ok := lookupCounter(name)
	if !ok {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ops.get(id)
}

// Reset zeroes the account.
func (a *Account) Reset() {
	a.mu.Lock()
	a.cost = Cost{}
	a.ops = counters{}
	a.mu.Unlock()
}

// Snapshot returns a human-readable dump of counters in sorted order.
func (a *Account) Snapshot() string {
	ops := a.CounterSnapshot()
	names := make([]string, 0, len(ops))
	for n := range ops {
		names = append(names, n)
	}
	sort.Strings(names)
	s := a.Cost().String()
	for _, n := range names {
		s += fmt.Sprintf(" %s=%d", n, ops[n])
	}
	return s
}

// CounterSnapshot returns a copy of the named operation counters — the
// machine-readable companion of Snapshot, used to feed the telemetry
// registry without string parsing. Every counter counted since the last
// Reset is listed, a zero one included.
func (a *Account) CounterSnapshot() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := &a.ops
	out := make(map[string]int64, bits.OnesCount32(c.set)+len(c.spill))
	for m := c.set; m != 0; m &= m - 1 {
		id := CounterID(bits.TrailingZeros32(m))
		out[id.name()] = c.vals[id]
	}
	for k, s := range c.spill {
		if s.set {
			out[CounterID(k+inlineCounters).name()] = s.v
		}
	}
	return out
}

// Absorb folds another account's accumulated cost and counters into a.
// It is the merge step of shadow accounting: parallel region tasks (and
// per-request accounts) charge private accounts, which the owner absorbs
// in a deterministic order — sums commute, so totals are byte-identical
// to having charged a directly. The counters add slot by slot.
func (a *Account) Absorb(o *Account) {
	if o == nil {
		return
	}
	o.mu.Lock()
	cost, ops := o.cost, o.ops
	if len(ops.spill) > 0 {
		// o may count on after it is unlocked; the copy must not share
		// its spilled slots.
		ops.spill = slices.Clone(ops.spill)
	}
	o.mu.Unlock()
	a.mu.Lock()
	a.cost = a.cost.Add(cost)
	a.ops.addAll(&ops)
	a.mu.Unlock()
}

// MaxOf combines the costs of parallel accounts: the elapsed virtual time
// of a fan-out phase is the maximum total across participants.
func MaxOf(accounts ...*Account) Cost {
	var m Cost
	for _, a := range accounts {
		m = m.Max(a.Cost())
	}
	return m
}

// SumOf combines the costs of sequential accounts.
func SumOf(accounts ...*Account) Cost {
	var s Cost
	for _, a := range accounts {
		s = s.Add(a.Cost())
	}
	return s
}
