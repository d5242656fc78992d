package cluster

import (
	"slices"
	"testing"
	"time"

	"pdcquery/internal/object"
	"pdcquery/internal/telemetry"
)

// primaryShare is the unmemoised definition of a member's share.
func primaryShare(p *Placement, id MemberID, obj object.ID, nregions int) []int {
	var out []int
	for r := 0; r < nregions; r++ {
		if p.Primary(obj, r) == id {
			out = append(out, r)
		}
	}
	return out
}

// The memoised region share is per installed view: repeated queries at
// one epoch get equal, private copies; a join installs a new view, and
// the share under it follows the new placement, not the memo.
func TestMemberAssignMemoPerEpoch(t *testing.T) {
	l, err := StartLocal(LocalOptions{Members: 2, R: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m := l.Member(l.MemberIDs()[0])
	anchor := &object.Object{ID: 7, Regions: make([]object.RegionMeta, 128)}

	v1 := m.View()
	a1, err := m.assign(v1.Epoch, anchor, nil)
	if err != nil {
		t.Fatal(err)
	}
	want1 := primaryShare(NewPlacement(v1), m.ID(), anchor.ID, len(anchor.Regions))
	if !slices.Equal(a1.Orig, want1) {
		t.Fatalf("share at epoch %d = %v, want %v", v1.Epoch, a1.Orig, want1)
	}
	// The caller owns what it gets: scribbling on it must not reach the
	// memo the next query reads.
	for i := range a1.Orig {
		a1.Orig[i] = -1
	}
	if again, _ := m.assign(v1.Epoch, anchor, nil); !slices.Equal(again.Orig, want1) {
		t.Fatalf("second query at epoch %d = %v, want %v", v1.Epoch, again.Orig, want1)
	}
	// Same object re-imported with fewer regions: the memo is keyed on
	// the decomposition too.
	small := &object.Object{ID: 7, Regions: make([]object.RegionMeta, 40)}
	if got, _ := m.assign(v1.Epoch, small, nil); !slices.Equal(got.Orig, primaryShare(NewPlacement(v1), m.ID(), 7, 40)) {
		t.Fatalf("share after re-decomposition = %v", got.Orig)
	}

	if _, err := l.AddMember(); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitMembers(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for waited := time.Duration(0); m.View().Epoch == v1.Epoch; waited += time.Millisecond {
		if waited > 10*time.Second {
			t.Fatal("member never installed the post-join view")
		}
		telemetry.WallSleep.Sleep(time.Millisecond)
	}
	v2 := m.View()
	a2, err := m.assign(v2.Epoch, anchor, nil)
	if err != nil {
		t.Fatal(err)
	}
	want2 := primaryShare(NewPlacement(v2), m.ID(), anchor.ID, len(anchor.Regions))
	if !slices.Equal(a2.Orig, want2) {
		t.Fatalf("share at epoch %d = %v, want %v", v2.Epoch, a2.Orig, want2)
	}
	if slices.Equal(want1, want2) {
		t.Fatalf("join moved none of %d regions off member %d; the test shows nothing", len(want1), m.ID())
	}
	if _, err := m.assign(v1.Epoch, anchor, nil); err == nil {
		t.Fatal("assign at the pre-join epoch succeeded after the join")
	}
}
