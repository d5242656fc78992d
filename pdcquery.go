// Package pdcquery is a Go reproduction of "Parallel Query Service for
// Object-centric Data Management Systems" (Tang, Byna, Dong, Koziol —
// IPDPS 2020): PDC-Query, a parallel querying service that operates
// directly on the objects of an object-centric data management system.
//
// The public API mirrors the paper's Fig. 1 interface:
//
//	d := pdcquery.NewDeployment(pdcquery.Options{Servers: 64})
//	cont := d.CreateContainer("vpic")
//	energy, _ := d.ImportObject(cont.ID, pdcquery.Property{
//		Name: "Energy", Type: pdcquery.Float32, Dims: []uint64{n},
//	}, raw)
//	_ = d.Start()
//
//	// PDCquery_create / PDCquery_and / PDCquery_or
//	q := pdcquery.NewQuery(pdcquery.And(
//		pdcquery.QueryCreate(energy.ID, pdcquery.OpGT, 2.1),
//		pdcquery.QueryCreate(energy.ID, pdcquery.OpLT, 2.2)))
//
//	res, _ := d.Client().Run(q, pdcquery.StrategyHistogram) // PDCquery_get_selection
//	data, _, _ := res.GetData(energy.ID)                    // PDCquery_get_data
//
// Four evaluation strategies are available (§III-D): full scan (PDC-F),
// global-histogram pruning and ordering (PDC-H), bitmap indexes
// (PDC-HI), and sorted reorganization (PDC-SH) — plus "auto", which lets
// the cost-based planner choose per region. A strategy is not a server
// or client setting: it rides on each call, as the last argument of
// Run / RunCount / RunText or as RunOptions.Force of Client.Do, the one
// entry they all wrap. Do takes a Statement — declarative Text or a
// Prepared condition tree — and whatever its spelling it runs the same
// path on every server: decode, plan, execute. The experiment harness
// under cmd/pdc-bench regenerates every figure of the paper's
// evaluation; see DESIGN.md and EXPERIMENTS.md.
package pdcquery

import (
	"pdcquery/internal/client"
	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/histogram"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/region"
	"pdcquery/internal/selection"
)

// Deployment assembles N PDC servers, a metadata service, the storage
// substrate, and a connected client.
type Deployment = core.Deployment

// Options configures a deployment (server count, region size, index
// construction, cost model).
type Options = core.Options

// NewDeployment creates an empty deployment; import objects, then Start.
func NewDeployment(opts Options) *Deployment { return core.NewDeployment(opts) }

// Client is the application-facing library (the paper's PDC client).
type Client = client.Client

// Statement is what Client.Do and Client.DoAsync run.
type Statement = client.Statement

// Text parses a declarative statement (`select count|ids|hist(col, n)
// where …`, optionally prefixed by `explain [analyze]`).
func Text(src string) Statement { return client.Text(src) }

// Prepared wraps a condition tree: ids asks for the matching locations
// (PDCquery_get_selection) rather than the hit count alone
// (PDCquery_get_nhits).
func Prepared(q *Query, ids bool) Statement {
	if ids {
		return client.Prepared(q, qlang.ProjIDs)
	}
	return client.Prepared(q, qlang.ProjCount)
}

// RunOptions is how one Do call runs its statement: under which
// Strategy (Force), and whether the servers trace it.
type RunOptions = client.Options

// Result is a completed statement: merged selection, histogram, plan.
type Result = client.Result

// Info reports the modeled execution profile of a client call.
type Info = client.Info

// Future is an in-flight asynchronous statement (Client.DoAsync).
type Future = client.Future

// Plan is a statement's evaluation plan (Result.Plan after an explain
// statement); render it with its Format method.
type Plan = plan.Plan

// Object model ---------------------------------------------------------------

// ObjectID identifies a data object.
type ObjectID = object.ID

// ContainerID identifies a container.
type ContainerID = object.ContainerID

// Object is a data object with its region metadata.
type Object = object.Object

// Property describes an object at creation time.
type Property = object.Property

// Region is an N-dimensional hyper-rectangle (for spatial constraints).
type Region = region.Region

// NewRegion builds a region from offsets and counts.
func NewRegion(offset, count []uint64) Region { return region.New(offset, count) }

// Selection is the set of matching element locations a query returns.
type Selection = selection.Selection

// Histogram is the mergeable (global) histogram of §IV.
type Histogram = histogram.Histogram

// TagCond is one metadata equality condition for QueryTag.
type TagCond = metadata.TagCond

// Element types supported by data objects.
const (
	Float32 = dtype.Float32
	Float64 = dtype.Float64
	Int8    = dtype.Int8
	Int16   = dtype.Int16
	Int32   = dtype.Int32
	Int64   = dtype.Int64
	Uint8   = dtype.Uint8
	Uint16  = dtype.Uint16
	Uint32  = dtype.Uint32
	Uint64  = dtype.Uint64
)

// Query construction ---------------------------------------------------------

// Query is a condition tree plus an optional spatial constraint.
type Query = query.Query

// Node is one node of the condition tree.
type Node = query.Node

// Op is a comparison operator.
type Op = query.Op

// Comparison operators for QueryCreate.
const (
	OpGT = query.OpGT
	OpGE = query.OpGE
	OpLT = query.OpLT
	OpLE = query.OpLE
	OpEQ = query.OpEQ
)

// QueryCreate builds a one-sided comparison on an object
// (PDCquery_create).
func QueryCreate(obj ObjectID, op Op, value float64) *Node {
	return query.Leaf(obj, op, value)
}

// And combines two conditions (PDCquery_and).
func And(l, r *Node) *Node { return query.And(l, r) }

// Or combines two conditions (PDCquery_or).
func Or(l, r *Node) *Node { return query.Or(l, r) }

// Between builds lo < obj < hi with the given bound inclusivity.
func Between(obj ObjectID, lo, hi float64, loIncl, hiIncl bool) *Node {
	return query.Between(obj, lo, hi, loIncl, hiIncl)
}

// NewQuery wraps a condition tree into an executable query.
func NewQuery(root *Node) *Query { return &Query{Root: root} }

// Strategies -----------------------------------------------------------------

// Strategy selects the query evaluation optimization (§III-D): the
// forcing a statement's plan is built under. Label returns the paper's
// name for it.
type Strategy = plan.Force

// The paper's four approaches, and the cost-based choice among them
// (the zero Strategy).
const (
	StrategyAuto      = plan.ForceAuto
	StrategyFullScan  = plan.ForceFull   // PDC-F
	StrategyHistogram = plan.ForceScan   // PDC-H
	StrategyIndex     = plan.ForceBitmap // PDC-HI
	StrategySorted    = plan.ForceSorted // PDC-SH
)

// ParseStrategy accepts "PDC-F", "PDC-H", "PDC-HI", "PDC-SH" and plain
// names ("auto", "full", "scan", "bitmap", "sorted", and the older
// "fullscan", "histogram", "index").
func ParseStrategy(s string) (Strategy, error) { return plan.ParseForce(s) }
