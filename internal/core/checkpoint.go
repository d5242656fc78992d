package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"pdcquery/internal/object"
	"pdcquery/internal/sortstore"
)

// Checkpointing: the paper persists metadata periodically for fault
// tolerance (§II). A deployment checkpoint extends that to the full
// system state — metadata (objects, regions, histograms, index
// directories, tags), sorted-replica registries, and every stored extent
// — so an imported dataset can be written once and served by any number
// of later processes (cmd/pdc-import writes one, cmd/pdc-server loads
// it).
const (
	ckptMagic   = uint32(0x50444343) // "PDCC"
	ckptVersion = uint32(2)          // 2: sorted replicas carry their extents' keys
)

// SaveCheckpoint writes the deployment's complete state to w. Valid
// before or after Start (the store is read uncharged).
func (d *Deployment) SaveCheckpoint(w io.Writer) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], ckptVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	meta, err := d.meta.Snapshot()
	if err != nil {
		return err
	}
	if err := writeBlob(w, meta); err != nil {
		return err
	}
	var reps bytes.Buffer
	if err := gob.NewEncoder(&reps).Encode(d.replicas); err != nil {
		return fmt.Errorf("core: encode replicas: %w", err)
	}
	if err := writeBlob(w, reps.Bytes()); err != nil {
		return err
	}
	if _, err := d.store.WriteTo(w); err != nil {
		return err
	}
	return nil
}

// LoadCheckpoint builds a fresh, not-yet-started deployment from a
// checkpoint written by SaveCheckpoint. Cost-model and server options
// come from opts; the data, metadata, and replicas come from the
// checkpoint (opts.RegionBytes and index options are ignored, since the
// partitioning was fixed at import time).
func LoadCheckpoint(r io.Reader, opts Options) (*Deployment, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: checkpoint header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != ckptMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != ckptVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d", v)
	}
	d := NewDeployment(opts)
	meta, err := readBlob(r)
	if err != nil {
		return nil, err
	}
	if err := d.meta.Restore(meta); err != nil {
		return nil, err
	}
	reps, err := readBlob(r)
	if err != nil {
		return nil, err
	}
	replicas := make(map[object.ID]*sortstore.Replica)
	if err := gob.NewDecoder(bytes.NewReader(reps)).Decode(&replicas); err != nil {
		return nil, fmt.Errorf("core: decode replicas: %w", err)
	}
	d.replicas = replicas
	if _, err := d.store.ReadFrom(r); err != nil {
		return nil, err
	}
	// Re-establish per-object replica markers.
	for id := range replicas {
		if o, ok := d.meta.Get(id); ok {
			o.SortedBy = id
		}
	}
	return d, nil
}

func writeBlob(w io.Writer, b []byte) error {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readBlob(r io.Reader) ([]byte, error) {
	var n [8]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint64(n[:])
	if size > 1<<40 {
		return nil, fmt.Errorf("core: blob of %d bytes exceeds limit", size)
	}
	b := make([]byte, size)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}
