// Package core assembles the PDC-Query system: a storage substrate, a
// metadata service, N query servers, and a client, wired over in-process
// pipes or TCP. It is the paper's deployment — "one PDC server per
// compute node" — in library form, and the entry point the examples,
// benchmarks, and command-line tools use.
//
// Lifecycle: create a Deployment, import objects (regions are written to
// the simulated PFS with per-region histograms, optional bitmap indexes,
// and optional sorted replicas), then Start it and query through
// Client(). Server count and cost model are configurable per experiment
// run; the evaluation strategy is a forcing that rides on each call
// (client.Options.Force).
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/dtype"
	"pdcquery/internal/histogram"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/selection"
	"pdcquery/internal/server"
	"pdcquery/internal/simio"
	"pdcquery/internal/sortstore"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// Options configures a deployment.
type Options struct {
	// Servers is the number of PDC server processes (64 in most of the
	// paper's experiments; 32–512 in Fig. 6).
	Servers int
	// RegionBytes is the region partition size (the paper sweeps 4 MB to
	// 128 MB). Zero defaults to 4 MB.
	RegionBytes int64
	// BuildIndex builds a per-region bitmap index for every imported
	// object (the PDC-HI prerequisite).
	BuildIndex bool
	// Model overrides the storage cost model (DefaultModel if zero).
	Model *simio.Model
	// TCP runs servers behind real TCP loopback connections instead of
	// in-process pipes.
	TCP bool
	// DisableHistograms skips per-region/global histogram construction
	// (ablation: min/max-only metadata remains).
	DisableHistograms bool
	// WireScale scales the modeled interconnect latency (scaled
	// deployments shrink it with their storage latencies; 0 means 1.0).
	WireScale float64
	// Workers sets each server's region-parallel worker count. Zero keeps
	// the serial engine (results are byte-identical either way; see
	// internal/sched).
	Workers int
	// QueueDepth bounds each server's admission queue (0 means
	// server.DefaultQueueDepth). Requests beyond it get busy replies that
	// the client retries with backoff.
	QueueDepth int
	// Redial enables the client's reconnection path: a connection lost
	// mid-call is re-established against the same server rank (a fresh
	// serve session) and the in-flight request is resent. Off by default
	// so existing single-connection semantics are unchanged.
	Redial bool
	// CallTimeout bounds each client call in wall-clock time (0 = none);
	// see client.SetCallTimeout. The defense against a wedged server.
	CallTimeout time.Duration
}

// Deployment is a running PDC-Query system.
type Deployment struct {
	opts     Options
	wrapConn func(srv int, c transport.Conn) transport.Conn
	store    *simio.Store
	meta     *metadata.Service
	replicas map[object.ID]*sortstore.Replica

	importAcct *vclock.Account

	cli     *client.Client
	wg      sync.WaitGroup
	started bool

	// mu guards servers and listeners: after Start, RestartServer swaps
	// server instances while accept loops and the redial path resolve
	// them concurrently.
	mu        sync.Mutex
	servers   []*server.Server
	listeners []*transport.Listener // per-server, TCP mode only
}

// NewDeployment creates an empty deployment (no servers running yet).
func NewDeployment(opts Options) *Deployment {
	if opts.Servers <= 0 {
		opts.Servers = 1
	}
	if opts.RegionBytes <= 0 {
		opts.RegionBytes = 4 << 20
	}
	model := simio.DefaultModel()
	if opts.Model != nil {
		model = *opts.Model
	}
	return &Deployment{
		opts:       opts,
		store:      simio.New(model),
		meta:       metadata.NewService(),
		replicas:   make(map[object.ID]*sortstore.Replica),
		importAcct: vclock.NewAccount(),
	}
}

// Store exposes the storage substrate (for experiments and tools).
func (d *Deployment) Store() *simio.Store { return d.store }

// SetWrapConn installs f to wrap each client-side connection at Start
// and on every redial — the seam fault injection uses to interpose on
// the transport (see internal/fault). Must be called before Start; the
// fault harness arms it only after its oracle pass.
func (d *Deployment) SetWrapConn(f func(srv int, c transport.Conn) transport.Conn) {
	d.wrapConn = f
}

// Meta exposes the metadata service.
func (d *Deployment) Meta() *metadata.Service { return d.meta }

// Replicas exposes the sorted-replica registry (used by standalone
// server daemons that reuse the import pipeline). The map is a copy:
// deleting or replacing entries in it must not detach replicas from
// the deployment itself.
func (d *Deployment) Replicas() map[object.ID]*sortstore.Replica {
	out := make(map[object.ID]*sortstore.Replica, len(d.replicas))
	for id, r := range d.replicas {
		out[id] = r
	}
	return out
}

// ImportCost returns the accumulated virtual cost of imports, index
// builds, and sorted-replica builds (the offline costs the paper reports
// separately from query time).
func (d *Deployment) ImportCost() vclock.Cost { return d.importAcct.Cost() }

// CreateContainer registers a container.
func (d *Deployment) CreateContainer(name string) *object.Container {
	return d.meta.CreateContainer(name)
}

// ImportObject registers an object described by prop and ingests data
// (raw elements of prop.Type): the data is partitioned into regions of
// Options.RegionBytes, written to the PFS tier, and each region gets
// exact min/max plus a mergeable histogram; the global histogram is the
// merge of the region histograms (§IV). With Options.BuildIndex a bitmap
// index is built and stored per region.
//
// The regions are summarized in parallel (see importWidth) and then
// written serially in region order, so the stored bytes, the metadata
// and the import's charges are those of a one-region-at-a-time import.
// Everything that can fail is checked before the object is registered:
// a failed import leaves its name free for a retry.
func (d *Deployment) ImportObject(cid object.ContainerID, prop object.Property, data []byte) (*object.Object, error) {
	if d.started {
		return nil, fmt.Errorf("core: cannot import after Start")
	}
	shape, err := d.layout(prop)
	if err != nil {
		return nil, err
	}
	if got, want := int64(len(data)), shape.ByteSize(); got != want {
		return nil, fmt.Errorf("core: object %q: %d data bytes, want %d", prop.Name, got, want)
	}
	elemSize := uint64(shape.Type.Size())
	rowBytes := shape.NumElems() / shape.Dims[0] * elemSize
	raws := make([][]byte, len(shape.Regions))
	for i, rm := range shape.Regions {
		lo := rm.Region.Offset[0] * rowBytes
		raws[i] = data[lo : lo+rm.Region.NumElems()*elemSize]
	}
	o, err := d.register(cid, prop, shape.Regions)
	if err != nil {
		return nil, err
	}
	sums := d.summarizeAll(o.Type, raws)
	var hists []*histogram.Histogram
	for i := range sums {
		d.storeRegion(o, i, &sums[i])
		if h := sums[i].hist; h != nil {
			hists = append(hists, h)
		}
	}
	if !d.opts.DisableHistograms {
		o.Global = histogram.MergeAll(hists)
	}
	return o, nil
}

// BuildSortedReplica builds the sorted reorganization of an object
// (§III-D3) so the SortedHistogram strategy can use it. The paper exposes
// this as a user hint at object creation.
func (d *Deployment) BuildSortedReplica(id object.ID) error {
	if d.started {
		return fmt.Errorf("core: cannot build replicas after Start")
	}
	o, ok := d.meta.Get(id)
	if !ok {
		return fmt.Errorf("core: object %d not found", id)
	}
	elemsPerRegion := uint64(d.opts.RegionBytes) / uint64(o.Type.Size())
	if elemsPerRegion == 0 {
		elemsPerRegion = 1
	}
	rep, err := sortstore.Build(d.store, d.importAcct, o, elemsPerRegion, simio.PFS)
	if err != nil {
		return err
	}
	d.replicas[id] = rep
	o.SortedBy = id
	return nil
}

// AddCompanions extends an existing sorted replica with co-sorted copies
// of other objects (the multi-variable reorganization named as future
// work in §IX): conditions on companion objects are then resolved from
// contiguous co-sorted extents instead of scattered original regions.
func (d *Deployment) AddCompanions(key object.ID, companions ...object.ID) error {
	if d.started {
		return fmt.Errorf("core: cannot add companions after Start")
	}
	rep := d.replicas[key]
	if rep == nil {
		return fmt.Errorf("core: object %d has no sorted replica", key)
	}
	return rep.AddCompanions(d.store, d.importAcct, d.meta.Get, companions, simio.PFS)
}

// MigrateObject moves every region of an object (and, when present, its
// sorted replica extents) to the given storage tier — PDC's transparent
// data movement across the hierarchy (§II). Typical use is staging a hot
// object from the parallel file system into the burst buffer before a
// query campaign.
func (d *Deployment) MigrateObject(id object.ID, tier simio.Tier) error {
	o, ok := d.meta.Get(id)
	if !ok {
		return fmt.Errorf("core: object %d not found", id)
	}
	for i := range o.Regions {
		rm := &o.Regions[i]
		if err := d.store.Migrate(d.importAcct, rm.ExtentKey, tier); err != nil {
			return err
		}
		rm.Tier = tier
		if rm.IndexKey != "" {
			if err := d.store.Migrate(d.importAcct, rm.IndexKey, tier); err != nil {
				return err
			}
		}
	}
	if rep := d.replicas[id]; rep != nil {
		for _, ri := range rep.Regions {
			if err := d.store.Migrate(d.importAcct, ri.ValKey, tier); err != nil {
				return err
			}
			if err := d.store.Migrate(d.importAcct, ri.PermKey, tier); err != nil {
				return err
			}
		}
	}
	return nil
}

// IndexBytes returns the total stored size of all bitmap indexes
// (compared against data size in §V: FastBit took 15–17%).
func (d *Deployment) IndexBytes() int64 {
	var n int64
	for _, o := range d.meta.Objects() {
		for _, rm := range o.Regions {
			if rm.IndexKey != "" {
				if sz, err := d.store.Size(rm.IndexKey); err == nil {
					n += sz
				}
			}
		}
	}
	return n
}

// newServer builds the server instance for rank i from the deployment's
// options (shared store, metadata, and replicas).
func (d *Deployment) newServer(i int) *server.Server {
	return server.New(server.Config{
		ID: i, N: d.opts.Servers,
		Store:      d.store,
		Meta:       d.meta,
		Replicas:   d.replicas,
		Assign:     server.ModNAssign(i, d.opts.Servers),
		Workers:    d.opts.Workers,
		QueueDepth: d.opts.QueueDepth,
	})
}

// serveConn runs the current server instance for rank i on conn in a
// deployment-owned goroutine. The instance is resolved at call time so
// sessions started after RestartServer land on the replacement.
func (d *Deployment) serveConn(i int, conn transport.Conn) {
	d.mu.Lock()
	srv := d.servers[i]
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		// The serve loop's exit error has no caller to flow to here;
		// sessions that die abnormally surface through the client's
		// redial path instead.
		_ = srv.Serve(conn)
		_ = conn.Close()
	}()
}

// dialServer establishes one client-side connection to server rank i
// (and starts the matching serve session), applying SetWrapConn's wrapper.
func (d *Deployment) dialServer(i int) (transport.Conn, error) {
	var clientSide transport.Conn
	if d.opts.TCP {
		d.mu.Lock()
		l := d.listeners[i]
		d.mu.Unlock()
		c, err := transport.Dial(l.Addr())
		if err != nil {
			return nil, err
		}
		clientSide = c // the accept loop starts the serve session
	} else {
		var serverSide transport.Conn
		clientSide, serverSide = transport.Pipe()
		d.serveConn(i, serverSide)
	}
	if d.wrapConn != nil {
		clientSide = d.wrapConn(i, clientSide)
	}
	return clientSide, nil
}

// Start launches the servers and connects the client.
func (d *Deployment) Start() error {
	if d.started {
		return fmt.Errorf("core: already started")
	}
	n := d.opts.Servers
	conns := make([]transport.Conn, n)
	d.mu.Lock()
	for i := 0; i < n; i++ {
		d.servers = append(d.servers, d.newServer(i))
	}
	d.mu.Unlock()
	if d.opts.TCP {
		for i := 0; i < n; i++ {
			// Persistent listener with an accept loop, so the client can
			// redial a server whose connection dropped (each accepted
			// connection is a fresh serve session against the rank's
			// current server instance).
			l, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				return err
			}
			d.mu.Lock()
			d.listeners = append(d.listeners, l)
			d.mu.Unlock()
			go func(i int, l *transport.Listener) {
				for {
					c, err := l.Accept()
					if err != nil {
						return // listener closed in Close
					}
					d.serveConn(i, c)
				}
			}(i, l)
		}
	}
	for i := 0; i < n; i++ {
		c, err := d.dialServer(i)
		if err != nil {
			return err
		}
		conns[i] = c
	}
	d.cli = client.New(conns, d.meta)
	d.cli.SetSharedBW(d.store.Model().Tiers[simio.PFS].SharedBW)
	if d.opts.WireScale > 0 {
		d.cli.SetWireModel(time.Duration(float64(transport.DefaultLatency) * d.opts.WireScale))
	}
	if d.opts.Redial {
		d.cli.SetRedial(d.dialServer)
	}
	if d.opts.CallTimeout > 0 {
		d.cli.SetCallTimeout(d.opts.CallTimeout)
	}
	d.started = true
	return nil
}

// RestartServer models a crash/restart of server rank i: the old
// instance is shut down (in-flight work cancelled, its serve sessions
// end) and a fresh instance — empty cache, fresh accounts, state rebuilt
// only from the shared store and metadata (the persistence layer a real
// restart would reload from disk) — takes over the rank. Existing client
// connections to the old instance die; with Options.Redial the client
// reconnects and the next call is served by the replacement.
func (d *Deployment) RestartServer(i int) error {
	if !d.started {
		return fmt.Errorf("core: not started")
	}
	d.mu.Lock()
	if i < 0 || i >= len(d.servers) {
		d.mu.Unlock()
		return fmt.Errorf("core: no server %d", i)
	}
	old := d.servers[i]
	d.mu.Unlock()
	old.Shutdown()
	d.mu.Lock()
	d.servers[i] = d.newServer(i)
	d.mu.Unlock()
	return nil
}

// Client returns the connected client library. Valid after Start.
func (d *Deployment) Client() *client.Client { return d.cli }

// Servers exposes the current server instances (experiments read their
// accounts and caches). The returned slice is a snapshot: RestartServer
// may swap an instance afterwards.
func (d *Deployment) Servers() []*server.Server {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*server.Server(nil), d.servers...)
}

// ResetCaches clears every server's region cache and virtual-time
// account, giving each experiment run a cold start.
func (d *Deployment) ResetCaches() {
	for _, srv := range d.Servers() {
		srv.Cache().Clear()
		srv.Account().Reset()
	}
}

// Close shuts down the client and all servers: client connections close,
// listeners stop accepting, the serve loops drain, then each server's
// dispatchers are stopped.
func (d *Deployment) Close() error {
	var errs []error
	if d.cli != nil {
		if err := d.cli.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	d.mu.Lock()
	listeners := append([]*transport.Listener(nil), d.listeners...)
	servers := append([]*server.Server(nil), d.servers...)
	d.mu.Unlock()
	for _, l := range listeners {
		if err := l.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	d.wg.Wait()
	for _, srv := range servers {
		srv.Shutdown()
	}
	return errors.Join(errs...)
}

// DeploymentStats summarizes the fleet's activity since the last cache
// reset: storage traffic, cache behaviour, and the busiest server's
// accumulated virtual time.
type DeploymentStats struct {
	// ReadOps and ReadBytes total the storage reads across servers.
	ReadOps, ReadBytes int64
	// CacheHits counts region-cache hits across servers.
	CacheHits int64
	// CachedBytes is the current total of cached region bytes.
	CachedBytes int64
	// BusiestServer is the maximum accumulated virtual time of any server.
	BusiestServer time.Duration
	// StoredBytes is the total data held by the storage substrate.
	StoredBytes int64
}

// Stats gathers DeploymentStats from every server.
func (d *Deployment) Stats() DeploymentStats {
	var s DeploymentStats
	for _, srv := range d.Servers() {
		a := srv.Account()
		s.ReadOps += a.Counter("read.ops")
		s.ReadBytes += a.Counter("read.bytes")
		s.CacheHits += a.Counter("cache.hits")
		s.CachedBytes += srv.Cache().Used()
		if t := a.Cost().Total(); t > s.BusiestServer {
			s.BusiestServer = t
		}
	}
	s.StoredBytes = d.store.TotalBytes(-1)
	return s
}

// GroundTruth evaluates a query by brute force over the stored data
// (uncharged reads) — the correctness oracle used by tests and the
// experiment harness's verification mode.
func (d *Deployment) GroundTruth(q *query.Query) (*selection.Selection, error) {
	ids := q.Root.Objects()
	data := make(map[object.ID][]byte, len(ids))
	var anchor *object.Object
	for _, id := range ids {
		o, ok := d.meta.Get(id)
		if !ok {
			return nil, fmt.Errorf("core: object %d not found", id)
		}
		if anchor == nil {
			anchor = o
		}
		buf := make([]byte, 0, o.ByteSize())
		for _, rm := range o.Regions {
			raw, err := d.store.ReadAll(nil, rm.ExtentKey)
			if err != nil {
				return nil, err
			}
			buf = append(buf, raw...)
		}
		data[id] = buf
	}
	types := make(map[object.ID]dtype.Type, len(ids))
	for _, id := range ids {
		o, _ := d.meta.Get(id)
		types[id] = o.Type
	}
	var eval func(n *query.Node, i int) bool
	eval = func(n *query.Node, i int) bool {
		switch n.Kind {
		case query.KindLeaf:
			return query.FromLeaf(n.Op, n.Value).Contains(dtype.At(types[n.Obj], data[n.Obj], i))
		case query.KindAnd:
			return eval(n.Left, i) && eval(n.Right, i)
		case query.KindOr:
			return eval(n.Left, i) || eval(n.Right, i)
		}
		return false
	}
	total := int(anchor.NumElems())
	coordBuf := make([]uint64, len(anchor.Dims))
	var coords []uint64
	for i := 0; i < total; i++ {
		if q.Constraint != nil {
			if !q.Constraint.ContainsCoord(region.LinearToCoord(anchor.Dims, uint64(i), coordBuf)) {
				continue
			}
		}
		if eval(q.Root, i) {
			coords = append(coords, uint64(i))
		}
	}
	return selection.New(coords, anchor.Dims), nil
}
