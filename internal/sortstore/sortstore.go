// Package sortstore implements data reorganization with sorting
// (§III-D3): a sorted replica of an object, ordered by its own values,
// kept alongside the original data.
//
// Range queries on the sort key then touch only the few consecutive
// sorted regions whose value range overlaps the query — the matching data
// is contiguous, which is why the paper's PDC-SH strategy wins on
// single-object and energy-selective queries. Each sorted region stores
// the sorted values plus the permutation back to original row-major
// linear indices, so selections still report original array coordinates.
//
// The replica costs a full extra copy of the data (plus the permutation),
// the trade-off the paper calls out; PDC exposes it as a user hint.
package sortstore

import (
	"fmt"
	"math"
	"slices"
	"time"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/simio"
	"pdcquery/internal/vclock"
)

// RegionInfo is the metadata of one sorted region: a consecutive value
// range of the globally sorted key.
type RegionInfo struct {
	Index int
	Count uint64
	// Min and Max are the first and last key value in the region
	// (inclusive); regions are globally ordered so Min[i] >= Max[i-1].
	Min, Max float64
	// ValKey and PermKey are the storage keys of the region's sorted
	// values and permutation, kept so a query reads the extents without
	// formatting their keys.
	ValKey, PermKey string
}

// Replica is the metadata of an object's sorted replica. The sorted
// values live under object.SortedValKey and the permutation (original
// row-major linear indices) under object.SortedPermKey; permutation
// entries are 4 bytes for objects below 2^32 elements, 8 bytes beyond.
type Replica struct {
	// Key is the object the replica sorts (and is sorted by).
	Key object.ID
	// Type is the element type of the values.
	Type dtype.Type
	// N is the total element count.
	N uint64
	// Wide marks 8-byte permutation entries (N >= 2^32).
	Wide bool
	// Regions describe the sorted partitioning in ascending value order.
	Regions []RegionInfo
	// Companions lists objects with co-sorted copies (see AddCompanions).
	Companions []Companion
}

// PermWidth returns the byte width of one permutation entry.
func (r *Replica) PermWidth() int64 {
	if r.Wide {
		return 8
	}
	return 4
}

// PermAt decodes the i-th permutation entry from raw permutation bytes.
func (r *Replica) PermAt(b []byte, i int) uint64 {
	if r.Wide {
		return dtype.View[uint64](b)[i]
	}
	return uint64(dtype.View[uint32](b)[i])
}

// Companion records a co-sorted copy of another object: its values
// rearranged into the sort key's order, so that probing it for matches
// found in the sorted key is one contiguous read instead of scattered
// region accesses. This implements the reorganization for multi-variable
// query conditions that the paper names as future work (§IX).
type Companion struct {
	// Obj is the companion object.
	Obj object.ID
	// Type is its element type.
	Type dtype.Type
	// ValKeys are the storage keys of the co-sorted values, one per
	// sorted region (CompanionValKey).
	ValKeys []string
}

// CompanionValKey returns the storage key for the co-sorted values of
// companion obj in sorted region i of the replica keyed by key.
func CompanionValKey(key, obj object.ID, i int) string {
	return fmt.Sprintf("obj/%d/c%d/v%d", key, obj, i)
}

// HasCompanion reports whether the replica stores a co-sorted copy of
// obj.
func (r *Replica) HasCompanion(obj object.ID) bool {
	for _, c := range r.Companions {
		if c.Obj == obj {
			return true
		}
	}
	return false
}

// AddCompanions builds co-sorted copies of the given objects: for each
// sorted region, the companion's values at the region's original
// coordinates, in sorted order. The companion objects must have the same
// element space as the key object. Costs (reads of the companions'
// regions, writes of the co-sorted extents) are charged to a.
func (r *Replica) AddCompanions(st *simio.Store, a *vclock.Account, lookup func(object.ID) (*object.Object, bool), objs []object.ID, tier simio.Tier) error {
	for _, id := range objs {
		o, ok := lookup(id)
		if !ok {
			return fmt.Errorf("sortstore: companion object %d not found", id)
		}
		if o.NumElems() != r.N {
			return fmt.Errorf("sortstore: companion %d has %d elements, key has %d", id, o.NumElems(), r.N)
		}
		if r.HasCompanion(id) {
			continue
		}
		// Load the companion's full data once (region by region).
		full := make([]byte, 0, o.ByteSize())
		for _, rm := range o.Regions {
			raw, err := st.ReadAll(a, rm.ExtentKey)
			if err != nil {
				return fmt.Errorf("sortstore: companion %d region %d: %w", id, rm.Index, err)
			}
			full = append(full, raw...)
		}
		es := o.Type.Size()
		keys := make([]string, len(r.Regions))
		for i, ri := range r.Regions {
			perm, err := st.ReadAll(a, ri.PermKey)
			if err != nil {
				return err
			}
			out := make([]byte, int(ri.Count)*es)
			for i := 0; i < int(ri.Count); i++ {
				orig := int(r.PermAt(perm, i))
				copy(out[i*es:(i+1)*es], full[orig*es:(orig+1)*es])
			}
			keys[i] = CompanionValKey(r.Key, id, ri.Index)
			st.WriteOwned(a, keys[i], tier, out)
		}
		r.Companions = append(r.Companions, Companion{Obj: id, Type: o.Type, ValKeys: keys})
	}
	return nil
}

// sortCompute models the CPU cost of comparison sorting n elements.
const sortCostPerElemLog = 4 * time.Nanosecond

// Build reads the object's data from the store, sorts (value, original
// index) pairs ascending (ties broken by original index for determinism),
// partitions the result into sorted regions of at most regionElems
// elements, and writes value and permutation extents to the given tier.
// The read, sort, and write costs are charged to a, which is required —
// this is the paper's offline reorganization cost.
func Build(st *simio.Store, a *vclock.Account, o *object.Object, regionElems uint64, tier simio.Tier) (*Replica, error) {
	if regionElems == 0 {
		return nil, fmt.Errorf("sortstore: zero region size")
	}
	n := o.NumElems()
	type pair struct {
		v float64
		i uint64
	}
	pairs := make([]pair, 0, n)
	for ri := range o.Regions {
		rm := &o.Regions[ri]
		data, err := st.ReadAll(a, rm.ExtentKey)
		if err != nil {
			return nil, fmt.Errorf("sortstore: read region %d: %w", ri, err)
		}
		base := o.LinearStart(ri)
		cnt := o.Type.Count(len(data))
		for i := 0; i < cnt; i++ {
			pairs = append(pairs, pair{v: dtype.At(o.Type, data, i), i: base + uint64(i)})
		}
	}
	if uint64(len(pairs)) != n {
		return nil, fmt.Errorf("sortstore: read %d elements, object has %d", len(pairs), n)
	}
	slices.SortFunc(pairs, func(x, y pair) int {
		switch {
		case x.v < y.v || (x.v == y.v && x.i < y.i):
			return -1
		case x.v == y.v && x.i == y.i:
			return 0
		default:
			return 1
		}
	})
	if n > 1 {
		a.Charge(vclock.Compute, time.Duration(float64(n)*math.Log2(float64(n)))*sortCostPerElemLog/1)
		a.Count("sort.elems", int64(n))
	}

	rep := &Replica{Key: o.ID, Type: o.Type, N: n, Wide: n > math.MaxUint32}
	elemSize := o.Type.Size()
	for off, idx := uint64(0), 0; off < n; off, idx = off+regionElems, idx+1 {
		end := off + regionElems
		if end > n {
			end = n
		}
		cnt := end - off
		vals := make([]byte, cnt*uint64(elemSize))
		perm := make([]byte, cnt*uint64(rep.PermWidth()))
		for i := uint64(0); i < cnt; i++ {
			dtype.Put(o.Type, vals, int(i), pairs[off+i].v)
			if rep.Wide {
				dtype.View[uint64](perm)[i] = pairs[off+i].i
			} else {
				dtype.View[uint32](perm)[i] = uint32(pairs[off+i].i)
			}
		}
		ri := RegionInfo{
			Index:   idx,
			Count:   cnt,
			Min:     pairs[off].v,
			Max:     pairs[end-1].v,
			ValKey:  object.SortedValKey(o.ID, idx),
			PermKey: object.SortedPermKey(o.ID, idx),
		}
		st.WriteOwned(a, ri.ValKey, tier, vals)
		st.WriteOwned(a, ri.PermKey, tier, perm)
		rep.Regions = append(rep.Regions, ri)
	}
	return rep, nil
}

// CheckInvariants verifies global ordering across the sorted regions.
func (r *Replica) CheckInvariants() error {
	var total uint64
	for i, ri := range r.Regions {
		if ri.Index != i {
			return fmt.Errorf("sortstore: region %d has index %d", i, ri.Index)
		}
		if ri.Count == 0 {
			return fmt.Errorf("sortstore: empty region %d", i)
		}
		if ri.Min > ri.Max {
			return fmt.Errorf("sortstore: region %d min %v > max %v", i, ri.Min, ri.Max)
		}
		if i > 0 && ri.Min < r.Regions[i-1].Max {
			return fmt.Errorf("sortstore: region %d min %v < previous max %v", i, ri.Min, r.Regions[i-1].Max)
		}
		total += ri.Count
	}
	if total != r.N {
		return fmt.Errorf("sortstore: regions hold %d of %d elements", total, r.N)
	}
	return nil
}

// RegionsOverlapping returns the half-open range [first, last) of the
// sorted regions whose value range can contain elements of the interval,
// empty (first == last) when none can. Because regions are globally
// ordered, they are a consecutive run found by two binary searches — the
// heart of the sorted strategy's efficiency.
func (r *Replica) RegionsOverlapping(iv query.Interval) (first, last int) {
	if iv.Empty() {
		return 0, 0
	}
	// First region whose Max can reach the interval's low bound, then the
	// first region entirely above the high bound. Open-coded binary
	// searches: a sort.Search closure would capture r and iv and allocate
	// on every sorted-path evaluation.
	first = searchRegions(r.Regions, true, iv.Lo, iv.LoIncl)
	last = searchRegions(r.Regions, false, iv.Hi, !iv.HiIncl)
	return first, max(first, last)
}

// EvaluateRegion scans one sorted region's raw value bytes for the
// interval and returns the half-open local range [lo, hi) of matching
// sorted positions. Because the values are ascending the scan is two
// binary searches.
func (r *Replica) EvaluateRegion(vals []byte, iv query.Interval) (lo, hi int) {
	n := r.Type.Count(len(vals))
	lo = searchVals(r.Type, vals, n, iv.Lo, iv.LoIncl)
	hi = searchVals(r.Type, vals, n, iv.Hi, !iv.HiIncl)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// searchVals returns the first position in the ascending values whose
// value v satisfies v > bound || (orEqual && v == bound); n if none do.
// Open-coded sort.Search: this sits on the PDC-SH per-region hot path,
// where a capturing closure would allocate per call.
func searchVals(t dtype.Type, vals []byte, n int, bound float64, orEqual bool) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		v := dtype.At(t, vals, mid)
		if v > bound || (orEqual && v == bound) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// searchRegions returns the first region index whose bound (Max when
// useMax, else Min) satisfies m > bound || (orEqual && m == bound);
// len(regions) if none does.
func searchRegions(regions []RegionInfo, useMax bool, bound float64, orEqual bool) int {
	lo, hi := 0, len(regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := regions[mid].Min
		if useMax {
			m = regions[mid].Max
		}
		if m > bound || (orEqual && m == bound) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
