package cluster_test

import (
	"bytes"
	"fmt"
	"testing"

	"pdcquery/internal/cluster"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/selection"
	"pdcquery/internal/server"
	"pdcquery/internal/transport"
)

// packedReply sends one statement straight to a server and returns the
// selection section of its reply as it is on the wire.
func packedReply(t *testing.T, srv *server.Server, payload []byte) *selection.Packed {
	t.Helper()
	cli, peer := transport.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(peer) }()
	if err := cli.Send(transport.Message{Type: server.MsgQuery, ReqID: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	reply, err := cli.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != server.MsgQueryResult {
		t.Fatalf("reply %s: %s", server.MsgName(reply.Type), reply.Payload)
	}
	qr, err := server.DecodeQueryResponse(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return qr.Sel
}

// TestPackedBytesIndependentOfPath: one coordinate set over one region
// decomposition has one byte string. Every server's packed selection for
// an ids statement is the same bytes under scan, bitmap, full and auto
// plans — hit lists and index bitsets pack alike — at 1 and 4 workers,
// on the static deployment and on a cluster; and the sections decode to
// the oracle's answer.
func TestPackedBytesIndependentOfPath(t *testing.T) {
	statements := []string{
		"select ids where Energy > 0.1",               // most regions dense: bitsets
		"select ids where Energy > 1.2",               // sparse: delta gaps
		"select ids where Energy > 0.3 and x < 150",   // a second condition probes or ANDs
		"select ids where Energy < 0.2 or Energy > 2", // two conjuncts: unioned, packed once at the end
	}
	forcings := []plan.Force{plan.ForceScan, plan.ForceBitmap, plan.ForceFull, plan.ForceAuto}
	// want[deployment][statement] is the first run's sections, one per
	// server; every other forcing and worker count must reproduce them.
	want := map[string][][]byte{}
	for _, workers := range []int{1, 4} {
		src := fullSource(t, workers)
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
		view, err := s.View()
		if err != nil {
			t.Fatal(err)
		}
		deployments := map[string]struct {
			servers []*server.Server
			flags   byte
			epoch   uint64
		}{
			"core":    {servers: src.Servers()},
			"cluster": {flags: server.FlagEpoch, epoch: view.Epoch},
		}
		cl := deployments["cluster"]
		for _, id := range l.MemberIDs() {
			cl.servers = append(cl.servers, l.Member(id).Server())
		}
		deployments["cluster"] = cl
		for name, d := range deployments {
			for _, text := range statements {
				low := &qlang.Lowered{Query: lowerAgainst(t, src.Meta().GetByName, text), Projection: qlang.Projection{Kind: qlang.ProjIDs}}
				truth, err := src.GroundTruth(low.Query)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range forcings {
					label := fmt.Sprintf("%s workers %d %q force=%v", name, workers, text, f)
					var sections [][]byte
					var parts []*selection.Packed
					for _, srv := range d.servers {
						p := packedReply(t, srv, server.EncodeQueryRequest(d.flags, f, d.epoch, low))
						parts = append(parts, p)
						sections = append(sections, p.Encode(nil))
					}
					merged, err := selection.MergePacked(parts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !bytes.Equal(merged.Encode(), truth.Encode()) {
						t.Fatalf("%s: %d hits, oracle %d", label, merged.NHits, truth.NHits)
					}
					key := name + "|" + text
					if want[key] == nil {
						want[key] = sections
						continue
					}
					for i := range sections {
						if !bytes.Equal(sections[i], want[key][i]) {
							t.Errorf("%s: server %d packed its selection in %d bytes that differ from the first run's %d", label, i, len(sections[i]), len(want[key][i]))
						}
					}
				}
			}
		}
	}
}
