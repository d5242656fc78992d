package vclock

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCostZeroValue(t *testing.T) {
	var k Cost
	if k.Total() != 0 {
		t.Fatalf("zero Cost total = %v, want 0", k.Total())
	}
	for c := Category(0); c < numCategories; c++ {
		if k.Part(c) != 0 {
			t.Errorf("zero Cost part %v = %v", c, k.Part(c))
		}
	}
}

func TestCostAdd(t *testing.T) {
	a := CostOf(Storage, 100*time.Millisecond)
	b := CostOf(Compute, 50*time.Millisecond).Add(CostOf(Storage, 10*time.Millisecond))
	s := a.Add(b)
	if got := s.Part(Storage); got != 110*time.Millisecond {
		t.Errorf("storage part = %v, want 110ms", got)
	}
	if got := s.Part(Compute); got != 50*time.Millisecond {
		t.Errorf("compute part = %v, want 50ms", got)
	}
	if got := s.Total(); got != 160*time.Millisecond {
		t.Errorf("total = %v, want 160ms", got)
	}
}

func TestCostMaxPicksLargerTotal(t *testing.T) {
	a := CostOf(Storage, 100*time.Millisecond)
	b := CostOf(Compute, 70*time.Millisecond).Add(CostOf(Network, 50*time.Millisecond))
	m := a.Max(b)
	// b totals 120ms > a's 100ms, so b's breakdown must be kept whole.
	if m.Total() != 120*time.Millisecond {
		t.Errorf("max total = %v, want 120ms", m.Total())
	}
	if m.Part(Storage) != 0 {
		t.Errorf("max kept loser's storage part: %v", m.Part(Storage))
	}
}

func TestCostMaxCommutes(t *testing.T) {
	a := CostOf(Storage, 3*time.Second)
	b := CostOf(Network, time.Second)
	if a.Max(b) != b.Max(a) {
		t.Errorf("Max not commutative: %v vs %v", a.Max(b), b.Max(a))
	}
}

func TestCostScale(t *testing.T) {
	a := CostOf(Storage, 100*time.Millisecond).Scale(2.5)
	if a.Part(Storage) != 250*time.Millisecond {
		t.Errorf("scaled = %v, want 250ms", a.Part(Storage))
	}
	if z := a.Scale(0); z.Total() != 0 {
		t.Errorf("scale by 0 = %v, want 0", z.Total())
	}
}

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{Storage: "storage", Compute: "compute", Network: "network", Meta: "meta"}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	if !strings.Contains(Category(99).String(), "99") {
		t.Errorf("unknown category string = %q", Category(99).String())
	}
}

func TestAccountChargeAndReset(t *testing.T) {
	a := NewAccount()
	a.Charge(Storage, time.Second)
	a.ChargeCost(CostOf(Compute, time.Second))
	a.Count("read.ops", 3)
	a.Count("read.ops", 2)
	if got := a.Cost().Total(); got != 2*time.Second {
		t.Errorf("total = %v, want 2s", got)
	}
	if got := a.Counter("read.ops"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := a.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
	a.Reset()
	if a.Cost().Total() != 0 || a.Counter("read.ops") != 0 {
		t.Errorf("reset did not clear account: %v", a.Snapshot())
	}
}

func TestAccountConcurrent(t *testing.T) {
	a := NewAccount()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				a.Charge(Network, time.Microsecond)
				a.Count("msgs", 1)
			}
		}()
	}
	wg.Wait()
	if got := a.Cost().Part(Network); got != 3200*time.Microsecond {
		t.Errorf("concurrent charge total = %v, want 3.2ms", got)
	}
	if got := a.Counter("msgs"); got != 3200 {
		t.Errorf("concurrent counter = %d, want 3200", got)
	}
}

func TestMaxOfAndSumOf(t *testing.T) {
	a, b, c := NewAccount(), NewAccount(), NewAccount()
	a.Charge(Storage, 3*time.Second)
	b.Charge(Storage, 5*time.Second)
	c.Charge(Compute, time.Second)
	if got := MaxOf(a, b, c).Total(); got != 5*time.Second {
		t.Errorf("MaxOf = %v, want 5s", got)
	}
	if got := SumOf(a, b, c).Total(); got != 9*time.Second {
		t.Errorf("SumOf = %v, want 9s", got)
	}
	if got := MaxOf().Total(); got != 0 {
		t.Errorf("MaxOf() = %v, want 0", got)
	}
}

func TestSnapshotContainsCounters(t *testing.T) {
	a := NewAccount()
	a.Count("zeta", 1)
	a.Count("alpha", 2)
	snap := a.Snapshot()
	if !strings.Contains(snap, "alpha=2") || !strings.Contains(snap, "zeta=1") {
		t.Errorf("snapshot missing counters: %q", snap)
	}
	if strings.Index(snap, "alpha") > strings.Index(snap, "zeta") {
		t.Errorf("snapshot counters not sorted: %q", snap)
	}
}

func TestCostStringBreakdown(t *testing.T) {
	k := CostOf(Storage, time.Second).Add(CostOf(Network, time.Millisecond))
	s := k.String()
	if !strings.Contains(s, "storage=1s") || !strings.Contains(s, "network=1ms") {
		t.Errorf("cost string = %q", s)
	}
}

func TestCounterSnapshot(t *testing.T) {
	a := NewAccount()
	a.Count("read.ops", 3)
	a.Count("read.bytes", 4096)
	snap := a.CounterSnapshot()
	if snap["read.ops"] != 3 || snap["read.bytes"] != 4096 {
		t.Errorf("CounterSnapshot = %v", snap)
	}
	// The snapshot is a copy: mutating it must not touch the account.
	snap["read.ops"] = 99
	if a.Counter("read.ops") != 3 {
		t.Error("CounterSnapshot aliases the live counter map")
	}
	if got := NewAccount().CounterSnapshot(); len(got) != 0 {
		t.Errorf("empty account CounterSnapshot = %v", got)
	}
}

// refAccount is the map-backed account the slot array replaced: the
// reference the scripted mix is checked against.
type refAccount struct {
	cost Cost
	ops  map[string]int64
}

func (r *refAccount) snapshot() string {
	names := make([]string, 0, len(r.ops))
	for n := range r.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	s := r.cost.String()
	for _, n := range names {
		s += fmt.Sprintf(" %s=%d", n, r.ops[n])
	}
	return s
}

// A seeded mix of Count, zero counts, Charge, Absorb and Reset over more
// names than an account holds inline: CounterSnapshot, Snapshot and
// Counter agree with a map after every step.
func TestAccountMatchesMapReference(t *testing.T) {
	names := make([]string, 3*inlineCounters/2)
	for i := range names {
		names[i] = fmt.Sprintf("mix.%02d", i)
	}
	rng := rand.New(rand.NewSource(29))
	accts := [2]*Account{NewAccount(), NewAccount()}
	refs := [2]*refAccount{{ops: map[string]int64{}}, {ops: map[string]int64{}}}
	for step := 0; step < 4000; step++ {
		k := rng.Intn(2)
		a, r := accts[k], refs[k]
		switch op := rng.Intn(20); {
		case op < 12:
			name := names[rng.Intn(len(names))]
			n := int64(rng.Intn(5)) // a zero count still lists the name
			a.Count(name, n)
			r.ops[name] += n
		case op < 15:
			d := time.Duration(rng.Intn(1000))
			a.Charge(Storage, d)
			r.cost = r.cost.Add(CostOf(Storage, d))
		case op < 19:
			o, ro := accts[1-k], refs[1-k]
			a.Absorb(o)
			r.cost = r.cost.Add(ro.cost)
			for n, v := range ro.ops {
				r.ops[n] += v
			}
		default:
			a.Reset()
			r.cost, r.ops = Cost{}, map[string]int64{}
		}
		if got := a.CounterSnapshot(); !maps.Equal(got, r.ops) {
			t.Fatalf("step %d: CounterSnapshot = %v, want %v", step, got, r.ops)
		}
		if got, want := a.Snapshot(), r.snapshot(); got != want {
			t.Fatalf("step %d: Snapshot = %q, want %q", step, got, want)
		}
		name := names[rng.Intn(len(names))]
		if got := a.Counter(name); got != r.ops[name] {
			t.Fatalf("step %d: Counter(%s) = %d, want %d", step, name, got, r.ops[name])
		}
	}
}

// A warm Count and an Absorb allocate nothing.
func TestAccountCountAndAbsorbAllocateNothing(t *testing.T) {
	id := Intern("read.ops")
	a, o := NewAccount(), NewAccount()
	o.Count("read.ops", 1)
	o.Count("read.bytes", 4096)
	if n := testing.AllocsPerRun(100, func() { a.CountID(id, 1) }); n != 0 {
		t.Errorf("CountID: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.Count("read.bytes", 8) }); n != 0 {
		t.Errorf("Count: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.Absorb(o) }); n != 0 {
		t.Errorf("Absorb: %v allocs/op, want 0", n)
	}
}

// Count and Absorb race-free on shared accounts: the totals are exact.
func TestAccountCountAbsorbConcurrent(t *testing.T) {
	dst, src := NewAccount(), NewAccount()
	src.Count("race.src", 1)
	const rounds = 500
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				dst.Count("race.dst", 1)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				dst.Absorb(src)
			}
		}()
	}
	wg.Wait()
	if got := dst.Counter("race.dst"); got != 4*rounds {
		t.Errorf("race.dst = %d, want %d", got, 4*rounds)
	}
	if got := dst.Counter("race.src"); got != 4*rounds {
		t.Errorf("race.src = %d, want %d", got, 4*rounds)
	}
}
