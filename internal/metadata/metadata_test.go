package metadata

import (
	"fmt"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/vclock"
)

func newWithContainer(t *testing.T) (*Service, *object.Container) {
	t.Helper()
	s := NewService()
	c := s.CreateContainer("vpic")
	return s, c
}

func mkObj(t *testing.T, s *Service, cid object.ContainerID, name string, tags map[string]string) *object.Object {
	t.Helper()
	o, err := s.CreateObject(cid, object.Property{
		Name: name, Type: dtype.Float32, Dims: []uint64{100}, Tags: tags,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestCreateObjectAndLookup(t *testing.T) {
	s, c := newWithContainer(t)
	o := mkObj(t, s, c.ID, "energy", nil)
	if o.ID == 0 {
		t.Error("zero object ID")
	}
	got, ok := s.Get(o.ID)
	if !ok || got.Name != "energy" {
		t.Errorf("Get = %v, %v", got, ok)
	}
	got, ok = s.GetByName("energy")
	if !ok || got.ID != o.ID {
		t.Errorf("GetByName = %v, %v", got, ok)
	}
	if _, ok := s.Get(999); ok {
		t.Error("Get(999) found something")
	}
	if _, ok := s.GetByName("nope"); ok {
		t.Error("GetByName(nope) found something")
	}
	if s.NumObjects() != 1 {
		t.Errorf("NumObjects = %d", s.NumObjects())
	}
}

func TestCreateObjectErrors(t *testing.T) {
	s, c := newWithContainer(t)
	mkObj(t, s, c.ID, "energy", nil)
	if _, err := s.CreateObject(c.ID, object.Property{Name: "energy", Type: dtype.Float32, Dims: []uint64{1}}); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := s.CreateObject(42, object.Property{Name: "x", Type: dtype.Float32, Dims: []uint64{1}}); err == nil {
		t.Error("unknown container accepted")
	}
	if _, err := s.CreateObject(c.ID, object.Property{Name: "", Type: dtype.Float32, Dims: []uint64{1}}); err == nil {
		t.Error("invalid property accepted")
	}
}

func TestUniqueIDs(t *testing.T) {
	s, c := newWithContainer(t)
	seen := map[object.ID]bool{}
	for i := 0; i < 100; i++ {
		o := mkObj(t, s, c.ID, fmt.Sprintf("obj%d", i), nil)
		if seen[o.ID] {
			t.Fatalf("duplicate ID %d", o.ID)
		}
		seen[o.ID] = true
	}
	objs := s.Objects()
	if len(objs) != 100 {
		t.Fatalf("Objects() = %d", len(objs))
	}
	for i := 1; i < len(objs); i++ {
		if objs[i].ID <= objs[i-1].ID {
			t.Fatal("Objects() not sorted by ID")
		}
	}
}

func TestTagQuerySingleCondition(t *testing.T) {
	s, c := newWithContainer(t)
	var want []object.ID
	for i := 0; i < 30; i++ {
		tags := map[string]string{"RADEG": fmt.Sprintf("%d", i%3)}
		o := mkObj(t, s, c.ID, fmt.Sprintf("fiber%d", i), tags)
		if i%3 == 1 {
			want = append(want, o.ID)
		}
	}
	a := vclock.NewAccount()
	got := s.TagQuery(a, []TagCond{{"RADEG", "1"}})
	if len(got) != len(want) {
		t.Fatalf("TagQuery = %d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("hit %d = %d, want %d", i, got[i], want[i])
		}
	}
	if a.Cost().Part(vclock.Meta) == 0 {
		t.Error("tag query charged no metadata cost")
	}
}

func TestTagQueryConjunction(t *testing.T) {
	s, c := newWithContainer(t)
	// 1000-object groups sharing RADEG/DECDEG, as in the BOSS experiment.
	var want []object.ID
	for i := 0; i < 3000; i++ {
		ra := fmt.Sprintf("%.2f", 150.0+float64(i/1000))
		dec := fmt.Sprintf("%.2f", 20.0+float64(i%3))
		o := mkObj(t, s, c.ID, fmt.Sprintf("f%d", i), map[string]string{"RADEG": ra, "DECDEG": dec})
		if ra == "151.00" && dec == "21.00" {
			want = append(want, o.ID)
		}
	}
	got := s.TagQuery(vclock.NewAccount(), []TagCond{{"RADEG", "151.00"}, {"DECDEG", "21.00"}})
	if len(got) != len(want) {
		t.Fatalf("conjunction = %d hits, want %d", len(got), len(want))
	}
	// No match at all.
	if got := s.TagQuery(vclock.NewAccount(), []TagCond{{"RADEG", "151.00"}, {"DECDEG", "99"}}); len(got) != 0 {
		t.Errorf("impossible conjunction returned %d hits", len(got))
	}
	// Unknown key.
	if got := s.TagQuery(vclock.NewAccount(), []TagCond{{"NOPE", "1"}}); len(got) != 0 {
		t.Errorf("unknown key returned %d hits", len(got))
	}
	// Empty condition list.
	if got := s.TagQuery(vclock.NewAccount(), nil); got != nil {
		t.Errorf("empty conditions returned %v", got)
	}
}

func TestAddTagReplaces(t *testing.T) {
	s, c := newWithContainer(t)
	o := mkObj(t, s, c.ID, "obj", map[string]string{"k": "v1"})
	if got := s.TagQuery(vclock.NewAccount(), []TagCond{{"k", "v1"}}); len(got) != 1 {
		t.Fatalf("initial tag not indexed: %v", got)
	}
	if err := s.AddTag(o.ID, "k", "v2"); err != nil {
		t.Fatal(err)
	}
	if got := s.TagQuery(vclock.NewAccount(), []TagCond{{"k", "v1"}}); len(got) != 0 {
		t.Errorf("stale tag still indexed: %v", got)
	}
	if got := s.TagQuery(vclock.NewAccount(), []TagCond{{"k", "v2"}}); len(got) != 1 {
		t.Errorf("new tag not indexed: %v", got)
	}
	if err := s.AddTag(999, "k", "v"); err == nil {
		t.Error("AddTag on missing object succeeded")
	}
}

func TestOwnerOfStableAndBounded(t *testing.T) {
	for _, n := range []int{1, 2, 64, 512} {
		counts := make([]int, n)
		for id := object.ID(1); id <= 2048; id++ {
			o1 := OwnerOf(id, n)
			o2 := OwnerOf(id, n)
			if o1 != o2 {
				t.Fatalf("OwnerOf not stable for id %d", id)
			}
			if o1 < 0 || o1 >= n {
				t.Fatalf("OwnerOf(%d, %d) = %d out of range", id, n, o1)
			}
			counts[o1]++
		}
		if n == 64 {
			// Rough balance: no server owns more than 4x the mean.
			mean := 2048 / n
			for srv, got := range counts {
				if got > 4*mean {
					t.Errorf("server %d owns %d objects (mean %d)", srv, got, mean)
				}
			}
		}
	}
	if OwnerOf(5, 0) != 0 {
		t.Error("OwnerOf with 0 servers != 0")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s, c := newWithContainer(t)
	for i := 0; i < 10; i++ {
		mkObj(t, s, c.ID, fmt.Sprintf("obj%d", i), map[string]string{"grp": fmt.Sprintf("%d", i%2)})
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	s2 := NewService()
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if s2.NumObjects() != 10 {
		t.Fatalf("restored objects = %d", s2.NumObjects())
	}
	if got := s2.TagQuery(vclock.NewAccount(), []TagCond{{"grp", "1"}}); len(got) != 5 {
		t.Errorf("restored tag index: %d hits, want 5", len(got))
	}
	// ID allocation continues after the snapshot point.
	o, err := s2.CreateObject(c.ID, object.Property{Name: "new", Type: dtype.Float64, Dims: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, exists := s.Get(o.ID); exists {
		t.Errorf("restored service reused a live ID %d", o.ID)
	}
	if err := s2.Restore([]byte("garbage")); err == nil {
		t.Error("Restore(garbage) succeeded")
	}
}
