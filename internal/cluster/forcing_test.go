package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"pdcquery/internal/client"
	"pdcquery/internal/cluster"
	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/workload"
)

// harness is what the forcing-equivalence checks need of a deployment,
// so the static core.Deployment and a cluster.Local run the same check.
type harness struct {
	do      func(context.Context, client.Statement, client.Options) (*client.Result, error)
	run     func(*query.Query, plan.Force) (*client.Result, error)
	runText func(string, plan.Force) (*client.Result, error)
	// reset makes the next statement cold: empty region caches, zeroed
	// accounts (prepared plans stay).
	reset func()
}

// harnesses imports src into a fresh three-member cluster and returns
// both deployments behind the one interface.
func harnesses(t *testing.T, src *core.Deployment, workers int) map[string]harness {
	t.Helper()
	l, err := cluster.StartLocal(cluster.LocalOptions{Members: 3, R: 2, Seed: 42, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	s, err := l.Session()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.Import(src); err != nil {
		t.Fatal(err)
	}
	cli := src.Client()
	return map[string]harness{
		"core": {cli.Do, cli.Run, cli.RunText, src.ResetCaches},
		"cluster": {s.Do, s.Run, s.RunText, func() {
			for _, id := range l.MemberIDs() {
				srv := l.Member(id).Server()
				srv.Cache().Clear()
				srv.Account().Reset()
			}
		}},
	}
}

// fullSource is a started deployment with every access path built
// (region histograms, bitmap indexes, a sorted replica on Energy).
func fullSource(t *testing.T, workers int) *core.Deployment {
	t.Helper()
	const n = 6000
	d := core.NewDeployment(core.Options{Servers: 4, RegionBytes: 8 << 10, BuildIndex: true, Workers: workers})
	c := d.CreateContainer("vpic")
	v := workload.GenerateVPIC(n, 42)
	var energy object.ID
	for _, name := range workload.VPICNames {
		o, err := d.ImportObject(c.ID, object.Property{
			Name: name, Type: dtype.Float32, Dims: []uint64{n},
		}, dtype.Bytes(v.Vars[name]))
		if err != nil {
			t.Fatal(err)
		}
		if name == "Energy" {
			energy = o.ID
		}
	}
	if err := d.BuildSortedReplica(energy); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// TestForcingEquivalence: a prepared query and the text statement with
// the same condition are one wire statement. Under every forcing,
// Run(q, f) and RunText(…, f) return byte-identical encoded selections
// and identical Stats, and — planned from the one plan-cache entry both
// spellings key, and charged the prepare cost by the same rule (auto
// pays, a forced statement does not) — equal slowest-server cost, apart
// from the stash's value collection: the prepared result is kept for
// get-data, so a single-conjunct statement outside bitmap also collects
// values, and there the text cost is only bounded above. At any worker
// count, on the static deployment and on a cluster.
func TestForcingEquivalence(t *testing.T) {
	statements := []struct {
		where string
		// collects: a kept single-conjunct statement collects values
		// (except under bitmap, which never reads raw data for them).
		collects bool
	}{
		{"Energy > 2 and x < 100", true},
		{"Energy < 0.5 or Energy > 3", false},
	}
	forcings := []plan.Force{plan.ForceFull, plan.ForceScan, plan.ForceBitmap, plan.ForceSorted, plan.ForceAuto}
	for _, workers := range []int{0, 1, 4, 16} {
		src := fullSource(t, workers)
		for name, h := range harnesses(t, src, workers) {
			for _, st := range statements {
				text := "select ids where " + st.where
				q := lowerAgainst(t, src.Meta().GetByName, text)
				for _, f := range forcings {
					label := fmt.Sprintf("workers %d %s %q force=%v", workers, name, st.where, f)
					// Build the plan once, so both runs below hit it.
					if _, err := h.run(q, f); err != nil {
						t.Fatalf("%s: warm-up: %v", label, err)
					}
					h.reset()
					bin, err := h.run(q, f)
					if err != nil {
						t.Fatalf("%s: prepared: %v", label, err)
					}
					h.reset()
					txt, err := h.runText(text, f)
					if err != nil {
						t.Fatalf("%s: text: %v", label, err)
					}
					if !bytes.Equal(bin.Sel.Encode(), txt.Sel.Encode()) {
						t.Fatalf("%s: selections differ (%d vs %d hits)", label, bin.Sel.NHits, txt.Sel.NHits)
					}
					if bin.Info.Stats != txt.Info.Stats {
						t.Errorf("%s: stats differ:\nprepared %+v\ntext     %+v", label, bin.Info.Stats, txt.Info.Stats)
					}
					got, want := txt.Info.ServerMax, bin.Info.ServerMax
					if st.collects && f != plan.ForceBitmap {
						if got.Total() > want.Total() {
							t.Errorf("%s: text server cost %v above prepared %v", label, got, want)
						}
					} else if got != want {
						t.Errorf("%s: text server cost %v, want prepared %v", label, got, want)
					}
				}
			}
		}
	}
}

// TestDoIsTheOnlyPath: the named calls are spellings of Do, and a
// statement's spelling does not change its answer. For every forcing,
// on the static deployment and through Session.Do on a cluster, the
// prepared and the text form of one statement — entered through Do and
// through the Run / RunText wrappers — return byte-identical encoded
// selections and equal Stats, and the count forms agree on the hits.
func TestDoIsTheOnlyPath(t *testing.T) {
	ctx := context.Background()
	src := fullSource(t, 4)
	for name, h := range harnesses(t, src, 4) {
		for _, where := range []string{"Energy > 2 and x < 100", "Energy < 0.5 or 2.9 < Energy < 3.1"} {
			q := lowerAgainst(t, src.Meta().GetByName, "select ids where "+where)
			for _, f := range []plan.Force{plan.ForceFull, plan.ForceScan, plan.ForceBitmap, plan.ForceSorted, plan.ForceAuto} {
				o := client.Options{Force: f}
				calls := []struct {
					spelling string
					call     func() (*client.Result, error)
				}{
					{"Do(Prepared)", func() (*client.Result, error) { return h.do(ctx, client.Prepared(q, qlang.ProjIDs), o) }},
					{"Do(Text)", func() (*client.Result, error) { return h.do(ctx, client.Text("select ids where "+where), o) }},
					{"Run", func() (*client.Result, error) { return h.run(q, f) }},
					{"RunText", func() (*client.Result, error) { return h.runText("select ids where "+where, f) }},
				}
				var first *client.Result
				for _, c := range calls {
					h.reset()
					res, err := c.call()
					if err != nil {
						t.Fatalf("%s %q force=%v %s: %v", name, where, f, c.spelling, err)
					}
					if first == nil {
						first = res
						continue
					}
					if !bytes.Equal(res.Sel.Encode(), first.Sel.Encode()) || res.Info.Stats != first.Info.Stats {
						t.Errorf("%s %q force=%v: %s differs from %s: %d vs %d hits, stats\n%+v\n%+v", name, where, f,
							c.spelling, calls[0].spelling, res.Sel.NHits, first.Sel.NHits, res.Info.Stats, first.Info.Stats)
					}
				}
				for _, st := range []client.Statement{client.Prepared(q, qlang.ProjCount), client.Text("select count where " + where)} {
					res, err := h.do(ctx, st, o)
					if err != nil || !res.Sel.CountOnly || res.Sel.NHits != first.Sel.NHits {
						t.Errorf("%s %q force=%v: count = %+v, %v; want %d hits and no coordinates", name, where, f, res, err, first.Sel.NHits)
					}
				}
			}
		}
	}
}
