package core

import (
	"bytes"
	"fmt"
	"sync"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/dtype"
	"pdcquery/internal/histogram"
	"pdcquery/internal/object"
	"pdcquery/internal/simio"
)

// The PDC write path: applications produce objects region by region
// (§III-D2 — "a local histogram is automatically generated for each data
// region when data is either produced within PDC or imported"). An
// object is created with a fixed partition, its regions are written in
// any order (by different producers, as in a simulation writing per
// rank), and finalization merges the region histograms into the global
// one.

// CreateObject registers an object and pre-computes its region partition
// without ingesting any data. Write each region with WriteRegion, then
// call FinalizeObject before Start.
func (d *Deployment) CreateObject(cid object.ContainerID, prop object.Property) (*object.Object, error) {
	if d.started {
		return nil, fmt.Errorf("core: cannot create objects after Start")
	}
	shape, err := d.layout(prop)
	if err != nil {
		return nil, err
	}
	return d.register(cid, prop, shape.Regions)
}

// layout validates prop and partitions its element space into regions
// of Options.RegionBytes, registering nothing: the returned object has
// no ID and its regions no extent keys yet.
func (d *Deployment) layout(prop object.Property) (*object.Object, error) {
	if err := prop.Validate(); err != nil {
		return nil, err
	}
	shape := &object.Object{Name: prop.Name, Type: prop.Type, Dims: prop.Dims}
	for i, r := range object.Partition(prop.Dims, prop.Type, d.opts.RegionBytes) {
		shape.Regions = append(shape.Regions, object.RegionMeta{Index: i, Region: r, Tier: simio.PFS})
	}
	if err := shape.CheckRegionCover(); err != nil {
		return nil, err
	}
	return shape, nil
}

// register adds the object to the metadata with the regions layout
// computed and keys each region's extent by the new object's ID.
func (d *Deployment) register(cid object.ContainerID, prop object.Property, regions []object.RegionMeta) (*object.Object, error) {
	o, err := d.meta.CreateObject(cid, prop)
	if err != nil {
		return nil, err
	}
	for i := range regions {
		regions[i].ExtentKey = object.ExtentKey(o.ID, i)
	}
	o.Regions = regions
	return o, nil
}

// WriteRegion ingests one region's data (raw elements of the object's
// type, exactly the region's size): the bytes go to the PFS tier and the
// region's metadata — exact min/max, local mergeable histogram, and
// (when the deployment builds indexes) its bitmap index — is generated
// on the spot, as the paper's automatic histogram generation describes.
// Regions may be written in any order and rewritten before finalization.
func (d *Deployment) WriteRegion(id object.ID, regionIndex int, data []byte) error {
	if d.started {
		return fmt.Errorf("core: cannot write regions after Start")
	}
	o, ok := d.meta.Get(id)
	if !ok {
		return fmt.Errorf("core: object %d not found", id)
	}
	if regionIndex < 0 || regionIndex >= len(o.Regions) {
		return fmt.Errorf("core: object %d has no region %d", id, regionIndex)
	}
	if want := int64(o.Regions[regionIndex].Region.NumElems()) * int64(o.Type.Size()); int64(len(data)) != want {
		return fmt.Errorf("core: region %d of object %d needs %d bytes, got %d", regionIndex, id, want, len(data))
	}
	s := d.summarize(o.Type, data)
	d.storeRegion(o, regionIndex, &s)
	return nil
}

// importWidth is how many goroutines ImportObject summarizes regions on.
// It is a fixed constant, not the CPU count: a region's summary depends
// on its bytes alone and the writes stay serial in region order, so the
// width changes how long an import takes and nothing it stores, and a
// fixed value keeps that the same across machines. Four keeps a two- to
// four-core machine busy; on fewer cores the goroutines time-share.
const importWidth = 4

// regionSummary is everything the import derives from one region's
// bytes.
type regionSummary struct {
	// extent is the store's own copy of the region's bytes.
	extent   []byte
	min, max float64
	// hist is nil with Options.DisableHistograms.
	hist *histogram.Histogram
	// index is the encoded bitmap index, nil without Options.BuildIndex;
	// bins and dir are its bin count and directory.
	index []byte
	bins  int
	dir   *bitindex.Directory
}

// summarize builds one region's summary: its min/max in one pass (the
// index build takes those extrema for its bin grid), its histogram and
// its encoded index. It reads nothing but raw and the deployment's
// options, so regions can be summarized concurrently.
func (d *Deployment) summarize(t dtype.Type, raw []byte) regionSummary {
	s := regionSummary{extent: bytes.Clone(raw)}
	s.min, s.max = dtype.MinMax(t, raw)
	if !d.opts.DisableHistograms {
		s.hist = histogram.BuildBytes(t, raw, histogram.DefaultBins)
	}
	if d.opts.BuildIndex {
		x := bitindex.Build(t, raw, s.min, s.max, bitindex.DefaultPrecision)
		s.index, s.bins, s.dir = x.Encode(), len(x.Bins), x.Directory()
	}
	return s
}

// summarizeAll summarizes every region on up to importWidth goroutines,
// goroutine w taking regions w, w+importWidth, ... (the regions are of
// one size, bar the last). Each summary lands in its region's slot, so
// the result is the same at any width and in any schedule.
func (d *Deployment) summarizeAll(t dtype.Type, raws [][]byte) []regionSummary {
	sums := make([]regionSummary, len(raws))
	var wg sync.WaitGroup
	for w := range min(importWidth, len(raws)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(raws); i += importWidth {
				sums[i] = d.summarize(t, raws[i])
			}
		}()
	}
	wg.Wait()
	return sums
}

// storeRegion writes region i's summary: its data extent, then its index
// extent, charged to the import account, and its metadata fields.
func (d *Deployment) storeRegion(o *object.Object, i int, s *regionSummary) {
	rm := &o.Regions[i]
	d.store.WriteOwned(d.importAcct, rm.ExtentKey, simio.PFS, s.extent)
	rm.Min, rm.Max, rm.Hist = s.min, s.max, s.hist
	if s.index != nil {
		rm.IndexKey = object.IndexExtentKey(o.ID, i)
		d.store.WriteOwned(d.importAcct, rm.IndexKey, simio.PFS, s.index)
		rm.IndexBins, rm.IndexDir = s.bins, s.dir
	}
}

// FinalizeObject verifies that every region has been written and merges
// the region histograms into the object's global histogram (§IV).
func (d *Deployment) FinalizeObject(id object.ID) error {
	o, ok := d.meta.Get(id)
	if !ok {
		return fmt.Errorf("core: object %d not found", id)
	}
	var hists []*histogram.Histogram
	for i := range o.Regions {
		rm := &o.Regions[i]
		if !d.store.Exists(rm.ExtentKey) {
			return fmt.Errorf("core: object %d region %d was never written", id, i)
		}
		if rm.Hist != nil {
			hists = append(hists, rm.Hist)
		}
	}
	if len(hists) > 0 {
		o.Global = histogram.MergeAll(hists)
	}
	return nil
}
