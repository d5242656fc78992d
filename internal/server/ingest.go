// Cluster ingest/transfer handlers: the server side of imports and
// rebalance extent streaming (internal/cluster). Only servers started
// with Config.Ingest accept these — a plain deployment's store is
// shared across its servers, so remote writes would be a layering
// violation there.
package server

import (
	"fmt"

	"pdcquery/internal/simio"
	"pdcquery/internal/transport"
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

// handlePutExtent writes one extent into local storage (cluster import
// step 2: the importer streams each region's extents to its R owners).
func (s *Server) handlePutExtent(r *request) transport.Message {
	if !s.cfg.Ingest {
		return s.errMsg(fmt.Errorf("ingest disabled"))
	}
	key, data, err := DecodePutExtent(r.m.Payload)
	if err != nil {
		return s.errMsg(err)
	}
	if err := r.tok.Err(); err != nil {
		return s.errMsg(err)
	}
	// Copy. Over TCP the payload is this frame's own buffer, but the
	// in-process pipe transport hands over the sender's slice, and the
	// cluster importer sends one payload to all of an extent's R owners:
	// storing data as is would share it with the other owners' stores.
	s.cfg.Store.WriteOwned(r.acct, key, simio.PFS, append([]byte(nil), data...))
	s.telem.Add("ingest.extents", 1)
	s.telem.Add("ingest.bytes", int64(len(data)))
	return transport.Message{Type: MsgOK}
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
