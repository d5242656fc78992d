// Cluster ingest/transfer handlers: the server side of imports and
// rebalance extent streaming (internal/cluster). Only servers started
// with Config.Ingest accept these — a plain deployment's store is
// shared across its servers, so remote writes would be a layering
// violation there.
package server

import (
	"fmt"

	"pdcquery/internal/sched"
	"pdcquery/internal/simio"
	"pdcquery/internal/transport"
	"pdcquery/internal/vclock"
)

// handlePutMeta installs a metadata snapshot (cluster import step 1).
func (s *Server) handlePutMeta(r *request) transport.Message {
	if !s.cfg.Ingest {
		return s.errMsg(fmt.Errorf("ingest disabled"))
	}
	if err := s.cfg.Meta.Restore(r.m.Payload); err != nil {
		return s.errMsg(err)
	}
	s.telem.Add("ingest.meta", 1)
	return transport.Message{Type: MsgOK}
}

// handlePutExtents stores a frame of extents (cluster import step 2: the
// importer sends each member its own extents, a frame at a time).
func (s *Server) handlePutExtents(r *request) transport.Message {
	if !s.cfg.Ingest {
		return s.errMsg(fmt.Errorf("ingest disabled"))
	}
	stored, _, bytes, err := InstallExtents(r.tok, s.cfg.Store, r.acct, r.m.Payload)
	if err != nil {
		return s.errMsg(err)
	}
	s.telem.Add("ingest.extents", stored)
	s.telem.Add("ingest.bytes", bytes)
	return transport.Message{Type: MsgOK}
}

// InstallExtents is how a cluster member stores extents it received, on
// import (a MsgPutExtents payload) and on rebalance (a MsgExtentsResult
// payload) alike. It decodes the whole payload first, so a malformed
// frame stores nothing, then writes every present extent, charged to
// acct, until tok is cancelled (a nil tok never is), and reports how
// many it stored, how many the payload listed as missing, and the bytes
// it stored.
//
// Each extent is stored as a view of payload, not a copy, so the caller
// hands over a frame that nobody else holds or reuses. Every frame is
// such a frame: a TCP Recv allocates each payload, and a pipe hands
// over the sender's slice, which every sender builds for one receiver
// and drops once it is sent. The codec starts each extent 8-aligned in
// its frame, so typed views over the stored bytes are aligned.
func InstallExtents(tok *sched.Token, store *simio.Store, acct *vclock.Account, payload []byte) (stored, missing, bytes int64, err error) {
	exts, err := DecodeExtentsResult(payload)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range exts {
		if err := tok.Err(); err != nil {
			return stored, missing, bytes, err
		}
		if !e.Present {
			missing++
			continue
		}
		store.WriteOwned(acct, e.Key, simio.PFS, e.Data)
		stored++
		bytes += int64(len(e.Data))
	}
	return stored, missing, bytes, nil
}

// handleFetchExtents reads extents by key (the rebalance transfer
// source: a joining or promoted member pulls from a current owner).
// Missing keys are reported, not errors — placement says who should
// own a region, storage says what survived.
func (s *Server) handleFetchExtents(r *request) transport.Message {
	tok, acct := r.tok, r.acct
	if !s.cfg.Ingest {
		return s.errMsg(fmt.Errorf("ingest disabled"))
	}
	keys, err := DecodeFetchExtents(r.m.Payload)
	if err != nil {
		return s.errMsg(err)
	}
	exts := make([]Extent, 0, len(keys))
	for _, key := range keys {
		if err := tok.Err(); err != nil {
			return s.errMsg(err)
		}
		if !s.cfg.Store.Exists(key) {
			exts = append(exts, Extent{Key: key})
			continue
		}
		data, err := s.cfg.Store.ReadAll(acct, key)
		if err != nil {
			return s.errMsg(err)
		}
		exts = append(exts, Extent{Key: key, Present: true, Data: data})
	}
	s.telem.Add("transfer.extents", int64(len(exts)))
	return transport.Message{Type: MsgExtentsResult, Payload: EncodeExtentsResult(exts)}
}
