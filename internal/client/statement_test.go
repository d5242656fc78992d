// Tests for the one statement entry: what Do puts on the wire, what a
// result that was not stashed answers to get-data, and Do racing the
// metadata view it reads.
package client_test

import (
	"bytes"
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

// TestDoSendsTheSameBytes pins the wire form of both spellings of a
// statement: each is the MsgQuery EncodeQueryRequest builds from the
// lowered statement (forcing in the flag bits), stamped with the epoch;
// a prepared one also sets FlagKeep and a text one carries its tags and
// hist projection in the statement section. Every call — GetHistogram
// too — takes the next request ID, which doubles as the trace ID.
func TestDoSendsTheSameBytes(t *testing.T) {
	meta := metadata.NewService()
	o, err := meta.CreateObject(meta.CreateContainer("c").ID, object.Property{Name: "v", Type: dtype.Float32, Dims: []uint64{100}})
	if err != nil {
		t.Fatal(err)
	}
	clientSide, serverSide := transport.Pipe()
	var frames []transport.Message
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := serverSide.Recv()
			if err != nil || m.Type == server.MsgShutdown {
				return
			}
			frames = append(frames, m)
			serverSide.Send(transport.Message{Type: server.MsgError, ReqID: m.ReqID, Payload: []byte("recorded")})
		}
	}()
	cli := client.New([]transport.Conn{clientSide}, meta)
	cli.SetEpoch(9)

	q := &query.Query{Root: query.Between(o.ID, 2.1, 2.2, false, false)}
	calls := []func() error{
		func() error {
			_, err := cli.Do(bg, client.Prepared(q, qlang.ProjIDs), client.Options{Force: plan.ForceBitmap, Trace: true})
			return err
		},
		func() error { _, err := cli.RunCount(q, plan.ForceScan); return err },
		func() error { _, err := cli.RunText("SELECT ids  WHERE 2.1 < v < 2.2", plan.ForceAuto); return err },
		func() error {
			_, err := cli.RunText("explain analyze select count where v = 1", plan.ForceSorted)
			return err
		},
		func() error {
			_, err := cli.RunText(`select hist(v, 8) where v > 1 and tag run = "x"`, plan.ForceScan)
			return err
		},
		func() error { _, _, err := cli.GetHistogram(o.ID); return err },
	}
	for i, call := range calls {
		if err := call(); err == nil || !strings.Contains(err.Error(), "client: server 0: recorded") {
			t.Fatalf("call %d: error %v, want the recording server's reply under the engine's prefix", i, err)
		}
	}
	cli.Close()
	<-done

	const keep, trace, epoch = server.FlagKeep, server.FlagWantTrace, server.FlagEpoch
	ids := qlang.Projection{Kind: qlang.ProjIDs}
	want := []struct {
		typ     byte
		payload []byte
	}{
		{server.MsgQuery, server.EncodeQueryRequest(keep|trace|epoch, plan.ForceBitmap, 9, &qlang.Lowered{Query: q, Projection: ids})},
		{server.MsgQuery, server.EncodeQueryRequest(keep|epoch, plan.ForceScan, 9, &qlang.Lowered{Query: q})},
		// The chained range lowers to the prepared statement's tree: the
		// text spelling differs from it by the keep bit alone.
		{server.MsgQuery, server.EncodeQueryRequest(epoch, plan.ForceAuto, 9, &qlang.Lowered{Query: q, Projection: ids})},
		{server.MsgQuery, server.EncodeQueryRequest(trace|epoch, plan.ForceSorted, 9, &qlang.Lowered{Query: &query.Query{Root: query.Leaf(o.ID, query.OpEQ, 1)}})},
		{server.MsgQuery, server.EncodeQueryRequest(epoch, plan.ForceScan, 9, &qlang.Lowered{
			Query:      &query.Query{Root: query.Leaf(o.ID, query.OpGT, 1)},
			Tags:       []metadata.TagCond{{Key: "run", Value: "x"}},
			Projection: qlang.Projection{Kind: qlang.ProjHist, Bins: 8},
			HistObj:    o.ID,
		})},
		{server.MsgHistogram, []byte{byte(o.ID), 0, 0, 0, 0, 0, 0, 0}},
	}
	if len(frames) != len(want) {
		t.Fatalf("server saw %d frames, want %d", len(frames), len(want))
	}
	for i, m := range frames {
		if m.Type != want[i].typ || !bytes.Equal(m.Payload, want[i].payload) {
			t.Errorf("frame %d: type %d payload %x, want type %d payload %x", i, m.Type, m.Payload, want[i].typ, want[i].payload)
		}
		if m.ReqID != uint64(i+1) || m.Trace != m.ReqID {
			t.Errorf("frame %d: request ID %d trace %d, want both %d", i, m.ReqID, m.Trace, i+1)
		}
	}
}

// TestGetDataNotStashed: only a prepared statement's result is kept on
// the servers. Get-data on a text statement's result is the servers'
// "no stashed result" error, and on a plain EXPLAIN — which never ran —
// a typed client error; neither panics on the missing request.
func TestGetDataNotStashed(t *testing.T) {
	d, oid := deploy(t, 5000, 2)
	res, err := d.Client().RunText("select ids where v > 50", plan.ForceScan)
	if err != nil || res.Sel.NHits == 0 {
		t.Fatalf("RunText = %+v, %v", res, err)
	}
	if _, _, err := res.GetData(oid); err == nil || !strings.Contains(err.Error(), "no stashed result") {
		t.Errorf("GetData on a text result: %v, want the servers' no-stashed-result error", err)
	}
	res, err = d.Client().RunText("explain select ids where v > 50", plan.ForceScan)
	if err != nil || res.Plan == nil {
		t.Fatalf("explain = %+v, %v", res, err)
	}
	if _, _, err := res.GetData(oid); err == nil {
		t.Error("GetData on a plain EXPLAIN result succeeded")
	}
	if _, err := res.GetDataBatch(oid, 16, nil); err == nil {
		t.Error("GetDataBatch on a plain EXPLAIN result succeeded")
	}
	// The prepared form of the same statement is stashed.
	st := client.Prepared(&query.Query{Root: query.Leaf(oid, query.OpGT, 50)}, qlang.ProjIDs)
	if res, err = d.Client().Do(bg, st, client.Options{Force: plan.ForceScan}); err != nil {
		t.Fatal(err)
	}
	if data, _, err := res.GetData(oid); err != nil || uint64(len(data)) != 4*res.Sel.NHits {
		t.Errorf("GetData on a prepared result: %d bytes, %v", len(data), err)
	}
}

// TestSyncMetaConcurrentWithDo: SyncMeta swaps the metadata view that
// every statement reads; the two must not race (run under -race).
func TestSyncMetaConcurrentWithDo(t *testing.T) {
	d, oid := deploy(t, 2000, 2)
	cli := d.Client()
	q := &query.Query{Root: query.Leaf(oid, query.OpGT, 50)}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := cli.SyncMeta(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			res, err := cli.Run(q, plan.ForceScan)
			if err == nil {
				_, _, err = res.GetData(oid)
			}
			if err == nil {
				_, err = cli.RunText("explain select count where v > 50", plan.ForceAuto)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
