// Package object defines the object-centric data model of the ODMS: PDC
// containers, data objects, and the per-region metadata that the query
// service plans against.
//
// As in §II of the paper, an object is an abstract byte stream — here an
// N-dimensional typed array — grouped into containers and associated with
// metadata (name, ID, tags). Large objects are partitioned into regions,
// the basic unit of placement and query evaluation; each region carries
// its own metadata: location in the object, storage extent and tier, exact
// min/max, and a mergeable local histogram built at write/import time.
package object

import (
	"fmt"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/histogram"
	"pdcquery/internal/region"
	"pdcquery/internal/simio"
)

// ID identifies an object within the ODMS.
type ID uint64

// ContainerID identifies a container.
type ContainerID uint64

// Container groups objects, mirroring PDC containers.
type Container struct {
	ID   ContainerID
	Name string
}

// Property describes an object at creation time (the PDC object creation
// property): name, element type, and array dimensions.
type Property struct {
	Name string
	Type dtype.Type
	Dims []uint64
	// Tags are user metadata key-value pairs attached at creation.
	Tags map[string]string
}

// Validate checks that the property describes a constructible object.
func (p *Property) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("object: empty name")
	}
	if !p.Type.Valid() {
		return fmt.Errorf("object %q: invalid element type", p.Name)
	}
	if len(p.Dims) == 0 {
		return fmt.Errorf("object %q: no dimensions", p.Name)
	}
	for d, n := range p.Dims {
		if n == 0 {
			return fmt.Errorf("object %q: zero-sized dimension %d", p.Name, d)
		}
	}
	return nil
}

// RegionMeta is the metadata of one object region. The actual data lives
// in the storage substrate under ExtentKey; IndexKey (when non-empty)
// names the extent holding the region's encoded bitmap index.
type RegionMeta struct {
	// Index is the region's ordinal within the object.
	Index int
	// Region locates the region within the object's element space.
	Region region.Region
	// ExtentKey is the simio extent holding the region's raw data.
	ExtentKey string
	// Tier is the storage layer the region currently resides on.
	Tier simio.Tier
	// Min and Max are the exact value extrema of the region.
	Min, Max float64
	// Hist is the region's mergeable local histogram (may be nil when
	// histograms are disabled).
	Hist *histogram.Histogram
	// IndexKey is the extent holding the region's bitmap index ("" when
	// not indexed).
	IndexKey string
	// IndexBins is the number of bins in the region's bitmap index (used
	// to size directory reads without fetching the whole index).
	IndexBins int
	// IndexDir caches the index directory in metadata (distributed to
	// all servers at startup, like histograms); queries then read only
	// the touched bins' bitmap blobs from storage. Nil when the
	// directory must be read from the IndexKey extent.
	IndexDir *bitindex.Directory
}

// Object is a data object together with all region metadata.
type Object struct {
	ID        ID
	Container ContainerID
	Name      string
	Type      dtype.Type
	Dims      []uint64
	Tags      map[string]string
	Regions   []RegionMeta
	// Global is the object-wide merged histogram (§IV); nil until built.
	Global *histogram.Histogram
	// SortedBy is the ID of the object whose values ordered this object's
	// sorted replica (SortedBy == own ID for the sort key itself); zero
	// when no sorted replica exists.
	SortedBy ID
}

// NumElems returns the total number of elements of the object.
func (o *Object) NumElems() uint64 {
	if len(o.Dims) == 0 {
		return 0
	}
	n := uint64(1)
	for _, d := range o.Dims {
		n *= d
	}
	return n
}

// ByteSize returns the object's total data size in bytes.
func (o *Object) ByteSize() int64 {
	return int64(o.NumElems()) * int64(o.Type.Size())
}

// RegionElems returns how many elements region i holds.
func (o *Object) RegionElems(i int) uint64 {
	return o.Regions[i].Region.NumElems()
}

// ExtentKey returns the storage key for region i's raw data of object id.
func ExtentKey(id ID, i int) string { return fmt.Sprintf("obj/%d/r%d", id, i) }

// IndexExtentKey returns the storage key for region i's bitmap index.
func IndexExtentKey(id ID, i int) string { return fmt.Sprintf("obj/%d/x%d", id, i) }

// SortedValKey returns the storage key for sorted-replica region i's
// values of object id.
func SortedValKey(id ID, i int) string { return fmt.Sprintf("obj/%d/sv%d", id, i) }

// SortedPermKey returns the storage key for sorted-replica region i's
// permutation (original linear indices) of object id.
func SortedPermKey(id ID, i int) string { return fmt.Sprintf("obj/%d/sp%d", id, i) }

// Partition computes the region decomposition for an object of the given
// dims and element type with a target region size in bytes, splitting
// along the slowest-varying dimension (§III-B). It guarantees at least
// one region and never produces zero-element regions.
func Partition(dims []uint64, t dtype.Type, regionBytes int64) []region.Region {
	if regionBytes <= 0 {
		regionBytes = 64 << 20
	}
	elemSize := int64(t.Size())
	if elemSize == 0 {
		return nil
	}
	if len(dims) == 0 {
		return nil
	}
	// Elements per row (product of inner dims).
	rowElems := int64(1)
	for _, d := range dims[1:] {
		rowElems *= int64(d)
	}
	rowsPerRegion := regionBytes / (rowElems * elemSize)
	if rowsPerRegion == 0 {
		rowsPerRegion = 1
	}
	return region.SplitRows(dims, uint64(rowsPerRegion))
}

// CheckRegionCover verifies that an object's regions exactly tile its
// element space along the first dimension: contiguous, non-overlapping,
// covering all rows. It is the invariant the query planner relies on.
func (o *Object) CheckRegionCover() error {
	if len(o.Regions) == 0 {
		return fmt.Errorf("object %q: no regions", o.Name)
	}
	var next uint64
	for i, rm := range o.Regions {
		if rm.Index != i {
			return fmt.Errorf("object %q: region %d has index %d", o.Name, i, rm.Index)
		}
		r := rm.Region
		if err := r.Validate(); err != nil {
			return fmt.Errorf("object %q region %d: %w", o.Name, i, err)
		}
		if len(r.Offset) != len(o.Dims) {
			return fmt.Errorf("object %q region %d: rank mismatch", o.Name, i)
		}
		if r.Offset[0] != next {
			return fmt.Errorf("object %q region %d: offset %d, want %d", o.Name, i, r.Offset[0], next)
		}
		for d := 1; d < len(o.Dims); d++ {
			if r.Offset[d] != 0 || r.Count[d] != o.Dims[d] {
				return fmt.Errorf("object %q region %d: inner dim %d not whole", o.Name, i, d)
			}
		}
		next += r.Count[0]
	}
	if next != o.Dims[0] {
		return fmt.Errorf("object %q: regions cover %d rows of %d", o.Name, next, o.Dims[0])
	}
	return nil
}

// RegionOfLinear returns the index of the region containing the given
// row-major linear element index. Regions tile along the first dimension,
// so this is a binary search over row offsets.
func (o *Object) RegionOfLinear(idx uint64) int {
	rowElems := uint64(1)
	for _, d := range o.Dims[1:] {
		rowElems *= d
	}
	row := idx / rowElems
	lo, hi := 0, len(o.Regions)-1
	for lo < hi {
		mid := (lo + hi) / 2
		r := o.Regions[mid].Region
		if row < r.Offset[0] {
			hi = mid - 1
		} else if row >= r.Offset[0]+r.Count[0] {
			lo = mid + 1
		} else {
			return mid
		}
	}
	return lo
}

// RegionSpan returns the linear extent [base, base+span) of the region
// holding the row-major linear element index idx (regions tile along
// the first dimension, so each is one contiguous run).
func (o *Object) RegionSpan(idx uint64) (base, span uint64) {
	r := o.RegionOfLinear(idx)
	return o.LinearStart(r), o.RegionElems(r)
}

// LinearStart returns the row-major linear index of the first element of
// region i.
func (o *Object) LinearStart(i int) uint64 {
	rowElems := uint64(1)
	for _, d := range o.Dims[1:] {
		rowElems *= d
	}
	return o.Regions[i].Region.Offset[0] * rowElems
}
