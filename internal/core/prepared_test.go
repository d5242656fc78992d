package core

import (
	"bytes"
	"testing"

	"pdcquery/internal/client"
	"pdcquery/internal/plan"
)

// TestPreparedRebuiltAfterBumpGen: a server's prepared entry is valid for
// one metadata generation. After a BumpGen every server prepares each
// statement again, once, and every answer is still the oracle's.
func TestPreparedRebuiltAfterBumpGen(t *testing.T) {
	d, _ := textDeployment(t, 10000)
	servers := int64(len(d.Servers()))
	check := func(round string) {
		t.Helper()
		for _, text := range textCorpus {
			_, q := lowerText(t, d, text)
			truth, err := d.GroundTruth(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []plan.Force{plan.ForceAuto, plan.ForceBitmap} {
				res, err := d.Client().RunText(text, f)
				if err != nil {
					t.Fatalf("%s %q %v: %v", round, text, f, err)
				}
				if !bytes.Equal(res.Sel.Encode(), truth.Encode()) {
					t.Fatalf("%s %q %v: %d hits, oracle %d", round, text, f, res.Sel.NHits, truth.NHits)
				}
			}
		}
	}
	statements := 2 * int64(len(textCorpus))
	check("cold")
	hits0, misses0 := planCacheCounts(d)
	if misses0 != statements*servers {
		t.Fatalf("cold round: %d misses, want %d", misses0, statements*servers)
	}
	check("warm")
	hits1, misses1 := planCacheCounts(d)
	if misses1 != misses0 || hits1-hits0 != statements*servers {
		t.Fatalf("warm round: %d hits, %d misses; want %d, %d", hits1-hits0, misses1-misses0, statements*servers, 0)
	}
	d.Meta().BumpGen()
	check("after BumpGen")
	hits2, misses2 := planCacheCounts(d)
	if misses2-misses1 != statements*servers || hits2 != hits1 {
		t.Fatalf("after BumpGen: %d hits, %d misses; want 0, %d", hits2-hits1, misses2-misses1, statements*servers)
	}
}

// TestTextAndPreparedKeepTheirNeed: the text and the prepared spelling
// of one query share one plan entry per server, and each keeps its own
// need: whichever built the entry, only the prepared result is stashed
// for GetData, and every answer is the same selection.
func TestTextAndPreparedKeepTheirNeed(t *testing.T) {
	d, ids := textDeployment(t, 10000)
	const text = "select ids where Energy > 2 and x < 100"
	_, q := lowerText(t, d, text)
	cli := d.Client()
	spellings := []struct {
		name string
		run  func() (*client.Result, error)
		kept bool
	}{
		{"text", func() (*client.Result, error) { return cli.RunText(text, plan.ForceAuto) }, false},
		{"prepared", func() (*client.Result, error) { return cli.Run(q, plan.ForceAuto) }, true},
		{"text again", func() (*client.Result, error) { return cli.RunText(text, plan.ForceAuto) }, false},
	}
	servers := int64(len(d.Servers()))
	var first []byte
	for i, sp := range spellings {
		hits0, misses0 := planCacheCounts(d)
		res, err := sp.run()
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		hits, misses := planCacheCounts(d)
		if wantMiss := i == 0; (misses-misses0 == servers) != wantMiss || (hits-hits0 == servers) == wantMiss {
			t.Errorf("%s: %d hits, %d misses over %d servers; want one entry per server shared", sp.name, hits-hits0, misses-misses0, servers)
		}
		if i == 0 {
			first = res.Sel.Encode()
		} else if !bytes.Equal(res.Sel.Encode(), first) {
			t.Errorf("%s: %d hits, the first spelling's differ", sp.name, res.Sel.NHits)
		}
		_, _, err = res.GetData(ids["Energy"])
		if kept := err == nil; kept != sp.kept {
			t.Errorf("%s: GetData error %v, want stashed %v", sp.name, err, sp.kept)
		}
	}
}
