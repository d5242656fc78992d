// Package metadata implements the ODMS metadata service: object and
// container registration, key-value tags with an inverted index for tag
// queries, per-object server ownership, and snapshot persistence.
//
// As in §II of the paper, metadata are managed as small in-memory objects,
// each owned by exactly one server (for consistency) and periodically
// persisted for fault tolerance. The tag query path (PDCquery_tag) is what
// lets the Fig. 5 experiment "locate the 1000 objects instantly" before
// running the data query.
package metadata

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"pdcquery/internal/object"
	"pdcquery/internal/vclock"
)

// TagCond is one metadata equality condition, e.g. RADEG=153.17.
type TagCond struct {
	Key   string
	Value string
}

// String formats the condition.
func (c TagCond) String() string { return c.Key + "=" + c.Value }

// Service is the in-memory metadata store. It is safe for concurrent use.
type Service struct {
	mu         sync.RWMutex
	containers map[object.ContainerID]*object.Container
	objects    map[object.ID]*object.Object
	byName     map[string]object.ID
	tagIdx     map[string]map[string][]object.ID
	nextCID    object.ContainerID
	nextOID    object.ID
	gen        uint64
}

// lookupCost is the modeled latency of one metadata operation (in-memory
// hash lookups on the owning server).
const lookupCost = 5 * time.Microsecond

// NewService returns an empty metadata service.
func NewService() *Service {
	return &Service{
		containers: make(map[object.ContainerID]*object.Container),
		objects:    make(map[object.ID]*object.Object),
		byName:     make(map[string]object.ID),
		tagIdx:     make(map[string]map[string][]object.ID),
		nextCID:    1,
		nextOID:    1,
	}
}

// CreateContainer registers a new container.
func (s *Service) CreateContainer(name string) *object.Container {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &object.Container{ID: s.nextCID, Name: name}
	s.nextCID++
	s.gen++
	s.containers[c.ID] = c
	return c
}

// Gen returns the metadata generation: a counter bumped by every
// mutation (container/object creation, tagging, restore). Prepared
// query plans are valid only for the generation they were built
// against — the plan cache compares generations to invalidate.
func (s *Service) Gen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// BumpGen marks an out-of-band metadata mutation (e.g. region metadata
// attached directly to an object by an import path) so cached plans
// built against the old shape are invalidated.
func (s *Service) BumpGen() {
	s.mu.Lock()
	s.gen++
	s.mu.Unlock()
}

// CreateObject allocates an ID and registers an object described by prop
// in the given container. Region metadata is attached later by the import
// or write path. Object names must be unique.
func (s *Service) CreateObject(cid object.ContainerID, prop object.Property) (*object.Object, error) {
	if err := prop.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.containers[cid]; !ok {
		return nil, fmt.Errorf("metadata: container %d not found", cid)
	}
	if _, dup := s.byName[prop.Name]; dup {
		return nil, fmt.Errorf("metadata: object %q already exists", prop.Name)
	}
	o := &object.Object{
		ID:        s.nextOID,
		Container: cid,
		Name:      prop.Name,
		Type:      prop.Type,
		Dims:      append([]uint64(nil), prop.Dims...),
		Tags:      make(map[string]string),
	}
	s.nextOID++
	s.gen++
	s.objects[o.ID] = o
	s.byName[o.Name] = o.ID
	for k, v := range prop.Tags {
		o.Tags[k] = v
		s.indexTagLocked(o.ID, k, v)
	}
	return o, nil
}

func (s *Service) indexTagLocked(id object.ID, k, v string) {
	vm, ok := s.tagIdx[k]
	if !ok {
		vm = make(map[string][]object.ID)
		s.tagIdx[k] = vm
	}
	vm[v] = append(vm[v], id)
}

// AddTag attaches (or replaces) a tag on an object and updates the
// inverted index.
func (s *Service) AddTag(id object.ID, key, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return fmt.Errorf("metadata: object %d not found", id)
	}
	if old, had := o.Tags[key]; had {
		ids := s.tagIdx[key][old]
		for i, x := range ids {
			if x == id {
				s.tagIdx[key][old] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
	}
	o.Tags[key] = value
	s.indexTagLocked(id, key, value)
	s.gen++
	return nil
}

// Get returns the object with the given ID.
func (s *Service) Get(id object.ID) (*object.Object, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[id]
	return o, ok
}

// GetByName returns the object with the given name.
func (s *Service) GetByName(name string) (*object.Object, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.byName[name]
	if !ok {
		return nil, false
	}
	return s.objects[id], true
}

// IDByName resolves an object name to its ID: the resolver a text
// statement is lowered with (qlang.Query.Lower).
func (s *Service) IDByName(name string) (object.ID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.byName[name]
	return id, ok
}

// Objects returns all objects sorted by ID.
func (s *Service) Objects() []*object.Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*object.Object, 0, len(s.objects))
	for _, o := range s.objects {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumObjects returns the number of registered objects.
func (s *Service) NumObjects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// TagQuery returns the IDs of objects matching ALL the given tag
// conditions (the paper's metadata query, e.g. "RADEG=153.17 AND
// DECDEG=23.06"), in ascending ID order. The cost of the index lookups is
// charged to a, which is required.
func (s *Service) TagQuery(a *vclock.Account, conds []TagCond) []object.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a.Charge(vclock.Meta, time.Duration(len(conds)+1)*lookupCost)
	a.Count("meta.tagquery", 1)
	if len(conds) == 0 {
		return nil
	}
	// Start from the smallest candidate list (cheapest intersection).
	lists := make([][]object.ID, len(conds))
	for i, c := range conds {
		lists[i] = s.tagIdx[c.Key][c.Value]
		if len(lists[i]) == 0 {
			return nil
		}
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	result := make(map[object.ID]int, len(lists[0]))
	for _, id := range lists[0] {
		result[id] = 1
	}
	for _, l := range lists[1:] {
		for _, id := range l {
			if n, ok := result[id]; ok {
				result[id] = n + 1
			}
		}
	}
	out := make([]object.ID, 0, len(result))
	for id, n := range result {
		if n == len(lists) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	a.Charge(vclock.Meta, time.Duration(len(out))*time.Microsecond/10)
	return out
}

// OwnerOf returns the index of the server owning an object's metadata,
// for a cluster of n servers. Each metadata object has exactly one owner
// (§II); the assignment is a stable hash of the ID.
func OwnerOf(id object.ID, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(id >> (8 * i))
	}
	h.Write(b[:])
	return int(h.Sum32() % uint32(n))
}

// snapshot is the gob-encoded persistent form.
type snapshot struct {
	Containers []*object.Container
	Objects    []*object.Object
	NextCID    object.ContainerID
	NextOID    object.ID
}

// Snapshot serializes the full metadata state (the paper's periodic
// persistence for fault tolerance).
func (s *Service) Snapshot() ([]byte, error) {
	s.mu.RLock()
	snap := snapshot{NextCID: s.nextCID, NextOID: s.nextOID}
	for _, c := range s.containers {
		snap.Containers = append(snap.Containers, c)
	}
	for _, o := range s.objects {
		snap.Objects = append(snap.Objects, o)
	}
	s.mu.RUnlock()
	sort.Slice(snap.Containers, func(i, j int) bool { return snap.Containers[i].ID < snap.Containers[j].ID })
	sort.Slice(snap.Objects, func(i, j int) bool { return snap.Objects[i].ID < snap.Objects[j].ID })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return nil, fmt.Errorf("metadata: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore replaces the service state with a snapshot produced by Snapshot.
func (s *Service) Restore(data []byte) error {
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("metadata: restore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.containers = make(map[object.ContainerID]*object.Container, len(snap.Containers))
	s.objects = make(map[object.ID]*object.Object, len(snap.Objects))
	s.byName = make(map[string]object.ID, len(snap.Objects))
	s.tagIdx = make(map[string]map[string][]object.ID)
	s.nextCID = snap.NextCID
	s.nextOID = snap.NextOID
	s.gen++
	for _, c := range snap.Containers {
		s.containers[c.ID] = c
	}
	for _, o := range snap.Objects {
		s.objects[o.ID] = o
		s.byName[o.Name] = o.ID
		for k, v := range o.Tags {
			s.indexTagLocked(o.ID, k, v)
		}
	}
	return nil
}
