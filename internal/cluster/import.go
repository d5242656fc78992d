package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

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
	v, _, err := DecodeView(reply.Payload)
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

	// Step 2: each region's extents go to its R owners, every member fed
	// at once over its own connection.
	queues := make(map[MemberID][]*importExtent, len(v.Members))
	for _, o := range src.Meta().Objects() {
		for i := range o.Regions {
			rm := &o.Regions[i]
			owners := place.OwnerIDs(o.ID, i)
			for _, key := range [...]string{rm.ExtentKey, rm.IndexKey} {
				if key == "" {
					continue
				}
				e := &importExtent{key: key}
				e.unacked.Store(int32(len(owners)))
				for _, owner := range owners {
					queues[owner] = append(queues[owner], e)
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
			if err := feedMember(conn, queues[id], store, acct); err != nil {
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

// importWindow is how many put-extent requests the importer keeps
// outstanding on one member connection. It stays below the member's
// admission depth (server.DefaultQueueDepth), so a member with the
// default depth never pushes back; a shallower one answers MsgBusy,
// which feedMember absorbs.
const importWindow = 8

// importExtent is one extent on its way to its R owners. The first owner
// stream to reach it reads and encodes it; the others share that
// payload, which is dropped once every owner has acknowledged it.
type importExtent struct {
	key     string
	once    sync.Once
	payload []byte
	err     error
	unacked atomic.Int32 // owners yet to acknowledge
}

// load returns the extent's put-extent payload, reading it on first use.
func (e *importExtent) load(store *simio.Store, acct *vclock.Account) ([]byte, error) {
	e.once.Do(func() {
		data, err := store.ReadAll(acct, e.key)
		if err != nil {
			e.err = fmt.Errorf("read %s: %w", e.key, err)
			return
		}
		e.payload = server.EncodePutExtent(e.key, data)
	})
	return e.payload, e.err
}

// acked records one owner's acknowledgement; the last frees the payload.
func (e *importExtent) acked() {
	if e.unacked.Add(-1) == 0 {
		e.payload = nil
	}
}

// feedMember streams one member's extents over its connection with up
// to importWindow requests outstanding, matching acks by request ID. A
// MsgBusy reply (the member's admission queue is full) is not an error:
// the extent is resent, but only after an outstanding request has been
// acknowledged — or at once when none is left, since the member's queue
// is then empty. The first MsgError or transport error ends the stream.
func feedMember(conn transport.Conn, exts []*importExtent, store *simio.Store, acct *vclock.Account) error {
	inflight := make(map[uint64]*importExtent, importWindow)
	var (
		retry []*importExtent // busy-rejected, resent before new extents
		next  int
		reqID uint64
		hold  bool // a busy reply arrived since the last ack
	)
	for next < len(exts) || len(retry) > 0 || len(inflight) > 0 {
		for len(inflight) < importWindow && !(hold && len(inflight) > 0) {
			var e *importExtent
			if len(retry) > 0 {
				e, retry = retry[0], retry[1:]
			} else if next < len(exts) {
				e = exts[next]
				next++
			} else {
				break
			}
			payload, err := e.load(store, acct)
			if err != nil {
				return err
			}
			reqID++
			if err := conn.Send(transport.Message{Type: server.MsgPutExtent, ReqID: reqID, Payload: payload}); err != nil {
				return fmt.Errorf("put extent %s: %w", e.key, err)
			}
			inflight[reqID] = e
		}
		reply, err := conn.Recv()
		if err != nil {
			return err
		}
		e, ok := inflight[reply.ReqID]
		if !ok {
			return fmt.Errorf("reply %s to unknown request %d", server.MsgName(reply.Type), reply.ReqID)
		}
		delete(inflight, reply.ReqID)
		switch reply.Type {
		case server.MsgOK:
			e.acked()
			hold = false
		case server.MsgBusy:
			retry = append(retry, e)
			hold = true
		case server.MsgError:
			return fmt.Errorf("put extent %s: %s", e.key, reply.Payload)
		default:
			return fmt.Errorf("put extent %s: unexpected reply %s", e.key, server.MsgName(reply.Type))
		}
	}
	return nil
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
