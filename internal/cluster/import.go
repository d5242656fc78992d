package cluster

import (
	"fmt"
	"sync"

	"pdcquery/internal/metadata"
	"pdcquery/internal/server"
	"pdcquery/internal/simio"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// Source is where an import reads from: any holder of a metadata
// service and a store with the standard extent layout. core.Deployment
// satisfies it, so a locally imported dataset (which doubles as the
// brute-force oracle) pushes straight into a cluster.
type Source interface {
	Meta() *metadata.Service
	Store() *simio.Store
}

// Import publishes a source's dataset into the cluster: the metadata
// snapshot goes to the catalog and every serving member, then each
// region's extents (data + index) are written to all R placement
// owners. Replication happens here, at import — failover later needs no
// data movement.
func (s *Session) Import(src Source) error {
	snap, err := src.Meta().Snapshot()
	if err != nil {
		return err
	}
	reply, err := s.catCall(MsgCatImport, snap)
	if err != nil {
		return err
	}
	if reply.Type != MsgCatCommit {
		return fmt.Errorf("cluster: unexpected import reply %s", CatMsgName(reply.Type))
	}
	v, err := DecodeView(reply.Payload)
	if err != nil {
		return err
	}
	if len(v.Members) == 0 {
		return fmt.Errorf("cluster: no serving members to import into")
	}
	place := NewPlacement(v)

	conns := make(map[MemberID]transport.Conn, len(v.Members))
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for _, mi := range v.Members {
		conn, err := s.net.Dial(mi.Addr)
		if err != nil {
			return fmt.Errorf("cluster: import dial member %d: %w", mi.ID, err)
		}
		conns[mi.ID] = conn
	}

	// Step 1: every member gets the metadata snapshot.
	for _, mi := range v.Members {
		if err := importCall(conns[mi.ID], server.MsgPutMeta, snap); err != nil {
			return fmt.Errorf("cluster: put meta to member %d: %w", mi.ID, err)
		}
	}

	// Step 2: each region's extents go to its R owners. Every member
	// gets its own extents, in region order and in frames of its own, fed
	// at once over its own connection.
	keys := make(map[MemberID][]string, len(v.Members))
	for _, o := range src.Meta().Objects() {
		for i := range o.Regions {
			rm := &o.Regions[i]
			owners := place.OwnerIDs(o.ID, i)
			for _, key := range [...]string{rm.ExtentKey, rm.IndexKey} {
				if key == "" {
					continue
				}
				for _, owner := range owners {
					keys[owner] = append(keys[owner], key)
				}
			}
		}
	}
	store, acct := src.Store(), vclock.NewAccount()
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		firstErr error
	)
	for _, mi := range v.Members {
		wg.Add(1)
		go func(id MemberID, conn transport.Conn) {
			defer wg.Done()
			frames := &importFrames{store: store, acct: acct, keys: keys[id]}
			if err := feedMember(conn, frames); err != nil {
				failOnce.Do(func() {
					firstErr = fmt.Errorf("cluster: import to member %d: %w", id, err)
					// Unblock the other streams: their Send or Recv fails
					// on the closed connection, and only this error counts.
					for _, c := range conns {
						_ = c.Close()
					}
				})
			}
		}(mi.ID, conns[mi.ID])
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	s.Invalidate()
	return nil
}

// importFrameBytes bounds the extents of one import frame (its payload
// adds a 4-byte count). A member keeps each frame it receives as the
// storage of the extents in it, so the bound sets the unit of the
// member's extent memory as well as of the wire. At 1 MiB a frame holds
// about fifteen 64 KiB regions: few enough frames that per-message costs
// vanish, and a window of them stays a few MiB per member. An extent
// larger than the bound travels alone.
const importFrameBytes = 1 << 20

// importWindow is how many frames the importer keeps outstanding on one
// member connection. It stays below the member's admission depth
// (server.DefaultQueueDepth), so a member with the default depth never
// pushes back; a shallower one answers MsgBusy, which feedMember absorbs.
const importWindow = 4

// importFrames cuts one member's extents, in order, into frames of at
// most importFrameBytes.
type importFrames struct {
	store   *simio.Store
	acct    *vclock.Account
	keys    []string
	next    int
	pending *server.Extent // read, but did not fit the previous frame
}

func (f *importFrames) done() bool { return f.pending == nil && f.next == len(f.keys) }

// take returns the next frame's extents, views of the source store's
// bytes: the frame itself is encoded at each send, so a frame that was
// sent is never sent again, and the member may keep it.
func (f *importFrames) take() ([]server.Extent, error) {
	var exts []server.Extent
	size := 0
	for {
		if f.pending == nil {
			if f.next == len(f.keys) {
				return exts, nil
			}
			key := f.keys[f.next]
			data, err := f.store.ReadAll(f.acct, key)
			if err != nil {
				return nil, fmt.Errorf("read %s: %w", key, err)
			}
			f.next++
			f.pending = &server.Extent{Key: key, Present: true, Data: data}
		}
		n := server.ExtentSizeBound(*f.pending)
		if len(exts) > 0 && size+n > importFrameBytes {
			return exts, nil
		}
		exts = append(exts, *f.pending)
		size += n
		f.pending = nil
	}
}

// feedMember streams one member's frames over its connection with up to
// importWindow frames outstanding, matching acks by request ID. A
// MsgBusy reply (the member's admission queue is full) is not an error:
// the frame's extents are encoded and sent again, but only after an
// outstanding frame has been acknowledged — or at once when none is
// left, since the member's queue is then empty. The first MsgError or
// transport error ends the stream.
func feedMember(conn transport.Conn, frames *importFrames) error {
	inflight := make(map[uint64][]server.Extent, importWindow)
	var (
		retry [][]server.Extent // busy-rejected, resent before new frames
		reqID uint64
		hold  bool // a busy reply arrived since the last ack
	)
	for !frames.done() || len(retry) > 0 || len(inflight) > 0 {
		for len(inflight) < importWindow && !(hold && len(inflight) > 0) {
			var exts []server.Extent
			if len(retry) > 0 {
				exts, retry = retry[0], retry[1:]
			} else if !frames.done() {
				var err error
				if exts, err = frames.take(); err != nil {
					return err
				}
			} else {
				break
			}
			reqID++
			if err := conn.Send(transport.Message{Type: server.MsgPutExtents, ReqID: reqID, Payload: server.EncodeExtentsResult(exts)}); err != nil {
				return fmt.Errorf("put %s: %w", frameName(exts), err)
			}
			inflight[reqID] = exts
		}
		reply, err := conn.Recv()
		if err != nil {
			return err
		}
		exts, ok := inflight[reply.ReqID]
		if !ok {
			return fmt.Errorf("reply %s to unknown request %d", server.MsgName(reply.Type), reply.ReqID)
		}
		delete(inflight, reply.ReqID)
		switch reply.Type {
		case server.MsgOK:
			hold = false
		case server.MsgBusy:
			retry = append(retry, exts)
			hold = true
		case server.MsgError:
			return fmt.Errorf("put %s: %s", frameName(exts), reply.Payload)
		default:
			return fmt.Errorf("put %s: unexpected reply %s", frameName(exts), server.MsgName(reply.Type))
		}
	}
	return nil
}

// frameName names a frame in errors by its extent count and first key.
func frameName(exts []server.Extent) string {
	return fmt.Sprintf("%d extents from %s", len(exts), exts[0].Key)
}

// importCall is one synchronous request/ack on a member connection
// (single outstanding request, so replies need no demultiplexing).
func importCall(conn transport.Conn, msgType byte, payload []byte) error {
	if err := conn.Send(transport.Message{Type: msgType, ReqID: 1, Payload: payload}); err != nil {
		return err
	}
	reply, err := conn.Recv()
	if err != nil {
		return err
	}
	switch reply.Type {
	case server.MsgOK:
		return nil
	case server.MsgError:
		return fmt.Errorf("%s", reply.Payload)
	default:
		return fmt.Errorf("unexpected reply %s", server.MsgName(reply.Type))
	}
}

// Verify checks every serving member holds all extents placement
// assigns it (tests and the smoke tool call this after imports and
// rebalances). It reports the first hole found.
func (s *Session) Verify(src Source) error {
	v, err := s.View()
	if err != nil {
		return err
	}
	place := NewPlacement(v)
	for _, mi := range v.Members {
		conn, err := s.net.Dial(mi.Addr)
		if err != nil {
			return fmt.Errorf("cluster: verify dial member %d: %w", mi.ID, err)
		}
		var keys []string
		for _, o := range src.Meta().Objects() {
			for i := range o.Regions {
				if !place.Owns(mi.ID, o.ID, i) {
					continue
				}
				rm := &o.Regions[i]
				if rm.ExtentKey != "" {
					keys = append(keys, rm.ExtentKey)
				}
				if rm.IndexKey != "" {
					keys = append(keys, rm.IndexKey)
				}
			}
		}
		holes, err := fetchPresence(conn, keys)
		_ = conn.Close()
		if err != nil {
			return fmt.Errorf("cluster: verify member %d: %w", mi.ID, err)
		}
		if len(holes) > 0 {
			return fmt.Errorf("cluster: member %d missing %d extents (first: %s)", mi.ID, len(holes), holes[0])
		}
	}
	return nil
}

// fetchPresence asks a member for the given keys and returns the ones
// it lacks.
func fetchPresence(conn transport.Conn, keys []string) ([]string, error) {
	var holes []string
	for start := 0; start < len(keys); start += transferBatch {
		end := start + transferBatch
		if end > len(keys) {
			end = len(keys)
		}
		if err := conn.Send(transport.Message{Type: server.MsgFetchExtents, ReqID: 1, Payload: server.EncodeFetchExtents(keys[start:end])}); err != nil {
			return nil, err
		}
		reply, err := conn.Recv()
		if err != nil {
			return nil, err
		}
		if reply.Type != server.MsgExtentsResult {
			return nil, fmt.Errorf("unexpected reply %s", server.MsgName(reply.Type))
		}
		exts, err := server.DecodeExtentsResult(reply.Payload)
		if err != nil {
			return nil, err
		}
		for _, e := range exts {
			if !e.Present {
				holes = append(holes, e.Key)
			}
		}
	}
	return holes, nil
}
