// Tests for prepared text statements: the client parses, lowers and
// encodes a text once per metadata view and generation, and a cached
// text is safe to run from many goroutines at once.
package client_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pdcquery/internal/client"
	"pdcquery/internal/dtype"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/server"
	"pdcquery/internal/transport"
)

// TestCachedTextLowersAgain: a cached text is lowered again once the
// client's metadata changes under it. After SyncMeta installs a view in
// which its name is another object — at the same generation as the view
// it replaces — the next statement carries that object; after an object
// is created in the view (a new generation), a text that named it while
// it was missing answers.
func TestCachedTextLowersAgain(t *testing.T) {
	// snapshot is a view of the named objects as a snapshot; restored,
	// every such view is at the same generation.
	snapshot := func(names ...string) []byte {
		m := metadata.NewService()
		c := m.CreateContainer("c")
		for _, n := range names {
			if _, err := m.CreateObject(c.ID, object.Property{Name: n, Type: dtype.Float32, Dims: []uint64{100}}); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	before, after := metadata.NewService(), metadata.NewService()
	snap := snapshot("w", "v")
	for view, snap := range map[*metadata.Service][]byte{before: snapshot("v", "w"), after: snap} {
		if err := view.Restore(snap); err != nil {
			t.Fatal(err)
		}
	}
	if before.Gen() != after.Gen() {
		t.Fatalf("views at generations %d and %d", before.Gen(), after.Gen())
	}
	clientSide, serverSide := transport.Pipe()
	var queries [][]byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := serverSide.Recv()
			if err != nil || m.Type == server.MsgShutdown {
				return
			}
			reply := transport.Message{Type: server.MsgError, ReqID: m.ReqID, Payload: []byte("recorded")}
			if m.Type == server.MsgMetaSnapshot {
				reply = transport.Message{Type: server.MsgMetaResult, ReqID: m.ReqID, Payload: snap}
			} else {
				queries = append(queries, m.Payload)
			}
			serverSide.Send(reply)
		}
	}()
	cli := client.New([]transport.Conn{clientSide}, before)
	const text = "select count where v > 5"
	run := func(text string) {
		t.Helper()
		if _, err := cli.RunText(text, plan.ForceAuto); err == nil || !strings.Contains(err.Error(), "recorded") {
			t.Fatalf("%q: error %v, want the recording server's", text, err)
		}
	}
	run(text)
	run(text)
	if err := cli.SyncMeta(); err != nil {
		t.Fatal(err)
	}
	run(text)
	if _, err := cli.RunText("select count where x > 5", plan.ForceAuto); err == nil {
		t.Fatal("a text naming a missing object ran")
	}
	x, err := cli.Meta().CreateObject(after.Objects()[0].Container, object.Property{Name: "x", Type: dtype.Float32, Dims: []uint64{100}})
	if err != nil {
		t.Fatal(err)
	}
	run("select count where x > 5")
	cli.Close()
	<-done

	count := func(id object.ID) []byte {
		return server.EncodeQueryRequest(0, plan.ForceAuto, 0, &qlang.Lowered{Query: &query.Query{Root: query.Leaf(id, query.OpGT, 5)}})
	}
	vBefore, _ := before.IDByName("v")
	vAfter, _ := after.IDByName("v")
	if vBefore == vAfter {
		t.Fatal("the two views bind v alike")
	}
	want := [][]byte{count(vBefore), count(vBefore), count(vAfter), count(x.ID)}
	if len(queries) != len(want) {
		t.Fatalf("server saw %d statements, want %d", len(queries), len(want))
	}
	for i := range want {
		if !bytes.Equal(queries[i], want[i]) {
			t.Errorf("statement %d: %x, want %x", i, queries[i], want[i])
		}
	}
}

// TestConcurrentTextShared: goroutines running one text on one client
// share its cached entry; every answer is equal, and each result's
// parse and canonical text are the statement's (run under -race).
func TestConcurrentTextShared(t *testing.T) {
	d, _ := deploy(t, 10000, 4)
	cli := d.Client()
	const text = "select ids where v > 50 and v < 60"
	want, err := cli.RunText(text, plan.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := cli.RunText(text, plan.ForceAuto)
				switch {
				case err != nil:
					errs <- err
				case !bytes.Equal(res.Sel.Encode(), want.Sel.Encode()):
					errs <- fmt.Errorf("%d hits, want %d", res.Sel.NHits, want.Sel.NHits)
				case res.Text != want.Text || res.Statement.Render() != want.Statement.Render():
					errs <- fmt.Errorf("statement %q, want %q", res.Text, want.Text)
				default:
					continue
				}
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
