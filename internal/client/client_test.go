// Tests for the client library against a real in-process deployment (the
// heavier end-to-end paths live in internal/core's tests).
package client_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/cluster"
	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/transport"
)

var bg = context.Background()

// prepared is q as a `select ids` statement: what Run hands to Do.
func prepared(q *query.Query) client.Statement { return client.Prepared(q, qlang.ProjIDs) }

func deploy(t *testing.T, n int, servers int) (*core.Deployment, object.ID) {
	t.Helper()
	d := core.NewDeployment(core.Options{Servers: servers, RegionBytes: 4 << 10})
	c := d.CreateContainer("c")
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i%1000) / 10
	}
	o, err := d.ImportObject(c.ID, object.Property{Name: "v", Type: dtype.Float32, Dims: []uint64{uint64(n)}}, dtype.Bytes(vals))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, o.ID
}

func TestConcurrentQueries(t *testing.T) {
	// The background aggregator must route interleaved responses to the
	// right callers.
	d, oid := deploy(t, 10000, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := float64(g * 10)
			q := &query.Query{Root: query.Between(oid, lo, lo+5, false, false)}
			res, err := d.Client().Run(q, plan.ForceScan)
			if err != nil {
				errs <- err
				return
			}
			truth, err := d.GroundTruth(q)
			if err != nil {
				errs <- err
				return
			}
			if res.Sel.NHits != truth.NHits {
				errs <- errMismatch(res.Sel.NHits, truth.NHits)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type mismatch struct{ got, want uint64 }

func errMismatch(got, want uint64) error { return mismatch{got, want} }
func (m mismatch) Error() string         { return "hit count mismatch" }

func TestServerErrorPropagates(t *testing.T) {
	d, _ := deploy(t, 1000, 2)
	// Corrupt the store so evaluation fails server-side.
	d.Store().Delete(object.ExtentKey(1, 0))
	q := &query.Query{Root: query.Leaf(1, query.OpGT, -1)}
	if _, err := d.Client().Run(q, plan.ForceScan); err == nil {
		t.Error("server-side failure not propagated")
	}
}

func TestNumServersAndMeta(t *testing.T) {
	d, oid := deploy(t, 1000, 3)
	if d.Client().NumServers() != 3 {
		t.Errorf("NumServers = %d", d.Client().NumServers())
	}
	if d.Client().Meta() == nil {
		t.Error("no metadata view")
	}
	if _, ok := d.Client().Meta().Get(oid); !ok {
		t.Error("object missing from client metadata")
	}
}

func TestQueriesAfterClose(t *testing.T) {
	d := core.NewDeployment(core.Options{Servers: 2})
	c := d.CreateContainer("c")
	vals := make([]float32, 100)
	o, err := d.ImportObject(c.ID, object.Property{Name: "v", Type: dtype.Float32, Dims: []uint64{100}}, dtype.Bytes(vals))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	cli := d.Client()
	d.Close()
	q := &query.Query{Root: query.Leaf(o.ID, query.OpGT, 0)}
	if _, err := cli.Run(q, plan.ForceScan); err == nil {
		t.Error("query after Close succeeded")
	}
}

func TestInfoBreakdown(t *testing.T) {
	d, oid := deploy(t, 20000, 4)
	q := &query.Query{Root: query.Between(oid, 10, 20, false, false)}
	res, err := d.Client().Run(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	info := res.Info
	if info.Elapsed.Total() < info.ServerMax.Total() {
		t.Errorf("elapsed %v below server max %v", info.Elapsed.Total(), info.ServerMax.Total())
	}
	if info.NHits != res.Sel.NHits {
		t.Errorf("info hits %d != selection %d", info.NHits, res.Sel.NHits)
	}
	if info.Stats.RegionsEvaluated+info.Stats.RegionsPruned == 0 {
		t.Error("no region stats aggregated")
	}
}

func TestRunAsync(t *testing.T) {
	d, oid := deploy(t, 20000, 4)
	// Launch several queries without blocking, then collect.
	futures := make([]*client.Future, 5)
	for i := range futures {
		lo := float64(i * 10)
		q := &query.Query{Root: query.Between(oid, lo, lo+20, false, false)}
		futures[i] = d.Client().DoAsync(bg, prepared(q), client.Options{Force: plan.ForceScan})
	}
	for i, f := range futures {
		select {
		case <-f.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("future %d did not complete", i)
		}
		res, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		lo := float64(i * 10)
		q := &query.Query{Root: query.Between(oid, lo, lo+20, false, false)}
		truth, err := d.GroundTruth(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sel.NHits != truth.NHits {
			t.Errorf("future %d: %d hits, want %d", i, res.Sel.NHits, truth.NHits)
		}
	}
	// Wait is idempotent.
	if res, err := futures[0].Wait(); err != nil || res == nil {
		t.Error("second Wait failed")
	}
}

func TestClientFullAPISurface(t *testing.T) {
	// Exercise the remaining client calls against one deployment: data
	// retrieval, batching, histogram fetch, tag query, metadata sync,
	// and the estimate API.
	d := core.NewDeployment(core.Options{Servers: 4, RegionBytes: 4 << 10})
	c := d.CreateContainer("c")
	vals := make([]float32, 20000)
	for i := range vals {
		vals[i] = float32(i%500) / 5
	}
	o, err := d.ImportObject(c.ID, object.Property{
		Name: "v", Type: dtype.Float32, Dims: []uint64{20000},
		Tags: map[string]string{"kind": "test"},
	}, dtype.Bytes(vals))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli := d.Client()

	q := &query.Query{Root: query.Between(o.ID, 50, 60, false, false)}
	res, err := cli.Run(q, plan.ForceScan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel.NHits == 0 {
		t.Fatal("no hits")
	}
	// GetData from the stash.
	data, info, err := res.GetData(o.ID)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(data)) != res.Sel.NHits*4 || info.Elapsed.Total() <= 0 {
		t.Errorf("GetData: %d bytes, %v", len(data), info.Elapsed.Total())
	}
	// Batched retrieval reassembles identically.
	var rebuilt []byte
	_, err = res.GetDataBatch(o.ID, 128, func(_ *selection.Selection, b []byte) error {
		rebuilt = append(rebuilt, b...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, data) {
		t.Error("batched data differs from bulk data")
	}
	// Histogram.
	h, _, err := cli.GetHistogram(o.ID)
	if err != nil || h == nil || h.Total != 20000 {
		t.Errorf("GetHistogram = %v, %v", h, err)
	}
	// Tag query.
	ids, _, err := cli.QueryTag([]metadata.TagCond{{Key: "kind", Value: "test"}})
	if err != nil || len(ids) != 1 || ids[0] != o.ID {
		t.Errorf("QueryTag = %v, %v", ids, err)
	}
	// Estimate + Explain.
	lo, hi, err := cli.EstimateNHits(q)
	if err != nil || res.Sel.NHits < lo || res.Sel.NHits > hi {
		t.Errorf("EstimateNHits = [%d, %d], truth %d, %v", lo, hi, res.Sel.NHits, err)
	}
	st := prepared(q)
	st.Explain = true
	if ex, err := cli.Do(bg, st, client.Options{}); err != nil || ex.Plan == nil || ex.Sel != nil {
		t.Errorf("explain = %+v, %v; want a plan and no execution", ex, err)
	}
	// SyncMeta replaces the view with a server snapshot.
	if err := cli.SyncMeta(); err != nil {
		t.Fatal(err)
	}
	if cli.Meta().NumObjects() != 1 {
		t.Errorf("synced objects = %d", cli.Meta().NumObjects())
	}

	// The surface holds one statement entry and cannot silently re-grow:
	// a statement goes in through Do (the client's async twin aside), the
	// Run* names are its three fixed spellings, and the per-variant
	// twins, Explain* and the client-wide forcing stay gone.
	gone := regexp.MustCompile(`^Run.*Context$|^Explain|^SetForce$`)
	statement := reflect.TypeOf(client.Statement{})
	for typ, entries := range map[reflect.Type]string{
		reflect.TypeOf(cli):                "Do DoAsync",
		reflect.TypeOf(&cluster.Session{}): "Do",
	} {
		var takes []string
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			if gone.MatchString(m.Name) {
				t.Errorf("%v exports %s again", typ, m.Name)
			}
			if strings.HasPrefix(m.Name, "Run") && !slices.Contains([]string{"Run", "RunCount", "RunText"}, m.Name) {
				t.Errorf("%v exports a new way to run a statement: %s", typ, m.Name)
			}
			for j := 1; j < m.Type.NumIn(); j++ {
				if m.Type.In(j) == statement {
					takes = append(takes, m.Name)
				}
			}
		}
		if got := strings.Join(takes, " "); got != entries {
			t.Errorf("%v takes a Statement in %q, want exactly %q", typ, got, entries)
		}
	}
}

func TestRunContext(t *testing.T) {
	d, oid := deploy(t, 20000, 4)
	q := &query.Query{Root: query.Between(oid, 10, 20, false, false)}
	// Normal completion under a live context.
	res, err := d.Client().Do(bg, prepared(q), client.Options{Force: plan.ForceScan})
	if err != nil || res.Sel.NHits == 0 {
		t.Fatalf("Do = %v, %v", res, err)
	}
	// A pre-cancelled context fails fast.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Client().Do(ctx, client.Prepared(q, qlang.ProjCount), client.Options{Force: plan.ForceScan}); err == nil {
		t.Error("cancelled context accepted")
	}
	// The client remains usable after a cancelled call.
	res2, err := d.Client().Run(q, plan.ForceScan)
	if err != nil || res2.Sel.NHits != res.Sel.NHits {
		t.Errorf("client broken after cancellation: %v, %v", res2, err)
	}
}

// failCloseConn is a transport.Conn whose Close always fails; Recv
// blocks until the conn is closed, like a quiet server.
type failCloseConn struct {
	closed chan struct{}
	once   sync.Once
	err    error
}

func (c *failCloseConn) Send(transport.Message) error { return nil }

func (c *failCloseConn) Recv() (transport.Message, error) {
	<-c.closed
	return transport.Message{}, errors.New("conn closed")
}

func (c *failCloseConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.err
}

// TestClosePropagatesConnCloseErrors pins the errflow fix: Close used
// to drop every per-connection Send and Close error and return nil
// unconditionally; a failed close must now surface to the caller.
func TestClosePropagatesConnCloseErrors(t *testing.T) {
	sentinel := errors.New("close failed: fd leaked")
	conns := []transport.Conn{
		&failCloseConn{closed: make(chan struct{})},
		&failCloseConn{closed: make(chan struct{}), err: sentinel},
	}
	cli := client.New(conns, metadata.NewService())
	err := cli.Close()
	if !errors.Is(err, sentinel) {
		t.Fatalf("Close() = %v, want the connection's close error", err)
	}
}
