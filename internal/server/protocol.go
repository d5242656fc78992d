// Protocol: the message types and payload encodings exchanged between the
// PDC client library and the query servers. Everything is little-endian
// and hand-rolled (no reflection on the hot path).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"pdcquery/internal/exec"
	"pdcquery/internal/histogram"
	"pdcquery/internal/metadata"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/vclock"
)

// Message types.
const (
	MsgQuery        byte = 1  // client -> server: run a query over assigned regions
	MsgQueryResult  byte = 2  // server -> client: partial selection + stats (+ values)
	MsgGetData      byte = 3  // client -> server: fetch values for coords / stashed result
	MsgDataResult   byte = 4  // server -> client: value bytes
	MsgHistogram    byte = 5  // client -> server: global histogram request
	MsgHistResult   byte = 6  // server -> client: encoded histogram (may be empty)
	MsgTagQuery     byte = 7  // client -> server: metadata tag query
	MsgTagResult    byte = 8  // server -> client: matching object IDs
	MsgMetaSnapshot byte = 9  // client -> server: full metadata snapshot request
	MsgMetaResult   byte = 10 // server -> client: gob snapshot
	MsgError        byte = 11 // server -> client: error string
	MsgShutdown     byte = 12 // client -> server: stop serving this connection
	MsgStats        byte = 13 // client -> server: telemetry registry snapshot request
	MsgStatsResult  byte = 14 // server -> client: encoded telemetry registry
	MsgBusy         byte = 15 // server -> client: admission rejected, retry after hint
	MsgEvents       byte = 16 // client -> server: flight-recorder ring snapshot request
	MsgEventsResult byte = 17 // server -> client: encoded flight-recorder events
	// Cluster ingest/transfer messages (accepted only when the server
	// runs with Config.Ingest; plain deployments reject them).
	MsgPutMeta       byte = 18 // client -> server: install a metadata snapshot
	MsgPutExtents    byte = 19 // client -> server: write a frame of extents to local storage
	MsgFetchExtents  byte = 20 // client -> server: read extents by key (rebalance transfer source)
	MsgExtentsResult byte = 21 // server -> client: requested extents' bytes
	MsgOK            byte = 22 // server -> client: bare acknowledgement
)

// MsgName returns a short stable name for a message type, used as the
// per-type counter suffix in the telemetry registry ("msg.query", ...).
func MsgName(t byte) string {
	switch t {
	case MsgQuery:
		return "query"
	case MsgQueryResult:
		return "query_result"
	case MsgGetData:
		return "get_data"
	case MsgDataResult:
		return "data_result"
	case MsgHistogram:
		return "histogram"
	case MsgHistResult:
		return "hist_result"
	case MsgTagQuery:
		return "tag_query"
	case MsgTagResult:
		return "tag_result"
	case MsgMetaSnapshot:
		return "meta_snapshot"
	case MsgMetaResult:
		return "meta_result"
	case MsgError:
		return "error"
	case MsgShutdown:
		return "shutdown"
	case MsgStats:
		return "stats"
	case MsgStatsResult:
		return "stats_result"
	case MsgBusy:
		return "busy"
	case MsgEvents:
		return "events"
	case MsgEventsResult:
		return "events_result"
	case MsgPutMeta:
		return "put_meta"
	case MsgPutExtents:
		return "put_extents"
	case MsgFetchExtents:
		return "fetch_extents"
	case MsgExtentsResult:
		return "extents_result"
	case MsgOK:
		return "ok"
	}
	return fmt.Sprintf("unknown_%d", t)
}

// Query request flags.
const (
	// FlagWantSelection marks an ids projection: the reply carries the
	// selection, not only its count.
	FlagWantSelection byte = 1 << 0
	// FlagKeep asks the server to keep the result for a later get-data on
	// the request ID (client.Prepared sets it). It is all a server learns
	// of how the statement was spelled.
	FlagKeep byte = 1 << 1
	// FlagWantTrace asks the server to record and return a per-query trace
	// span tree in the response.
	FlagWantTrace byte = 1 << 2
	// FlagEpoch marks an epoch-stamped request: a u64 placement epoch
	// follows the flags byte. Cluster members reject requests whose
	// epoch does not match their installed view, so a query is never
	// evaluated under two placements at once.
	FlagEpoch byte = 1 << 3
	// FlagStatement marks a statement section before the query: tag
	// conditions and the hist projection.
	FlagStatement byte = 1 << 4
)

// encodeCost packs a cost breakdown as four u64 nanosecond counts.
func encodeCost(buf []byte, k vclock.Cost) []byte {
	for c := vclock.Storage; c <= vclock.Meta; c++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k.Part(c)))
	}
	return buf
}

func decodeCost(b []byte) (vclock.Cost, []byte, error) {
	if len(b) < 32 {
		return vclock.Cost{}, nil, fmt.Errorf("protocol: truncated cost")
	}
	var k vclock.Cost
	for c := vclock.Storage; c <= vclock.Meta; c++ {
		k = k.Add(vclock.CostOf(c, time.Duration(binary.LittleEndian.Uint64(b))))
		b = b[8:]
	}
	return k, b, nil
}

func encodeStats(buf []byte, s exec.Stats) []byte {
	for _, v := range []int64{
		s.RegionsEvaluated, s.RegionsPruned, s.SortedRegions, s.ElementsScanned,
		s.Probes, s.IndexBinsRead, s.IndexBytesRead, s.CandChecks, s.StorageBytes,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

func decodeStats(b []byte) (exec.Stats, []byte, error) {
	if len(b) < 72 {
		return exec.Stats{}, nil, fmt.Errorf("protocol: truncated stats")
	}
	get := func() int64 {
		v := int64(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return v
	}
	var s exec.Stats
	s.RegionsEvaluated = get()
	s.RegionsPruned = get()
	s.SortedRegions = get()
	s.ElementsScanned = get()
	s.Probes = get()
	s.IndexBinsRead = get()
	s.IndexBytesRead = get()
	s.CandChecks = get()
	s.StorageBytes = get()
	return s, b, nil
}

// The forcing rides in the flags byte's three high bits (a plan.Force
// wire value), so it costs a request no bytes.
const (
	forceShift = 5
	flagBits   = 1<<forceShift - 1
)

// ErrBadQueryFlags reports a MsgQuery flags byte whose forcing value no
// plan.Force names.
var ErrBadQueryFlags = errors.New("protocol: bad query flags")

// ErrBadStatement reports a MsgQuery statement a server cannot run as
// sent: a malformed statement section, or a hist projection whose
// object, shape or bin count does not fit the statement.
var ErrBadStatement = errors.New("protocol: bad statement")

// EncodeQueryRequest builds a MsgQuery payload from a lowered statement:
// flags+forcing | [epoch u64] | [statement section] | encoded query. The
// section — tags in EncodeTagQuery's layout, then a hist marker 0, or 1
// | u64 object | u32 bins — precedes the query, which query.Decode reads
// to the end. The statement sets FlagWantSelection and FlagStatement.
func EncodeQueryRequest(flags byte, force plan.Force, epoch uint64, st *qlang.Lowered) []byte {
	return AppendQueryRequest(nil, flags, force, epoch, st, st.Query.Encode())
}

// AppendQueryRequest appends EncodeQueryRequest's payload to dst, with
// query as st.Query's encoding: a caller that keeps the encoding of a
// statement it sends again appends only the per-call header to it.
func AppendQueryRequest(dst []byte, flags byte, force plan.Force, epoch uint64, st *qlang.Lowered, query []byte) []byte {
	flags &^= FlagWantSelection | FlagStatement
	if st.Projection.Kind == qlang.ProjIDs {
		flags |= FlagWantSelection
	}
	hist := st.Projection.Kind == qlang.ProjHist
	if hist || len(st.Tags) > 0 {
		flags |= FlagStatement
	}
	if dst == nil {
		dst = make([]byte, 0, 9+len(query))
	}
	dst = append(dst, flags&flagBits|byte(force)<<forceShift)
	if flags&FlagEpoch != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, epoch)
	}
	if flags&FlagStatement != 0 {
		dst = encodeTags(dst, st.Tags)
		if hist {
			dst = append(dst, 1)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(st.HistObj))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(st.Projection.Bins))
		} else {
			dst = append(dst, 0)
		}
	}
	return append(dst, query...)
}

// QueryRequest is a decoded MsgQuery payload.
type QueryRequest struct {
	// Flags has the forcing bits cleared; Epoch is 0 unless FlagEpoch.
	Flags byte
	Force plan.Force
	Epoch uint64
	// Stmt is the lowered statement. Its projection is ids under
	// FlagWantSelection, hist when the section says so, count otherwise;
	// a hist projection names its object by ID only.
	Stmt *qlang.Lowered
	// Query is Stmt.Query's encoding as it arrived.
	Query []byte
}

// DecodeQueryRequest parses a MsgQuery payload: its header, then the
// query. A forcing no plan.Force names is ErrBadQueryFlags; a section
// that is empty, names an unknown projection, asks for ids and hist at
// once, or has a bin count outside 1..qlang.MaxHistBins is
// ErrBadStatement.
func DecodeQueryRequest(b []byte) (*QueryRequest, error) {
	r := &QueryRequest{Stmt: &qlang.Lowered{}}
	if err := r.decodeHeader(b); err != nil {
		return nil, err
	}
	q, err := query.Decode(r.Query)
	if err != nil {
		return nil, err
	}
	r.Stmt.Query = q
	return r, nil
}

// decodeHeader is the half of DecodeQueryRequest a server runs on every
// statement: it parses and checks everything before the query — flags,
// forcing, epoch, tags and projection, into r and r.Stmt — and leaves
// the query's bytes, undecoded, in r.Query. r.Stmt must be non-nil and
// zero.
func (r *QueryRequest) decodeHeader(b []byte) error {
	if len(b) < 1 {
		return fmt.Errorf("protocol: empty query request")
	}
	r.Flags, r.Force = b[0]&flagBits, plan.Force(b[0]>>forceShift)
	b = b[1:]
	if !r.Force.Valid() {
		return fmt.Errorf("%w: forcing %d", ErrBadQueryFlags, int(r.Force))
	}
	if r.Flags&FlagEpoch != 0 {
		if len(b) < 8 {
			return fmt.Errorf("protocol: truncated query epoch")
		}
		r.Epoch = binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
	if r.Flags&FlagWantSelection != 0 {
		r.Stmt.Projection.Kind = qlang.ProjIDs
	}
	if r.Flags&FlagStatement != 0 {
		var err error
		if r.Stmt.Tags, b, err = decodeTags(b); err != nil {
			return err
		}
		switch {
		case len(b) < 1 || b[0] == 1 && len(b) < 13:
			return fmt.Errorf("protocol: truncated statement projection")
		case b[0] > 1:
			return fmt.Errorf("%w: unknown projection %d", ErrBadStatement, b[0])
		case b[0] == 0 && len(r.Stmt.Tags) == 0:
			return fmt.Errorf("%w: empty statement section", ErrBadStatement)
		case b[0] == 0:
			b = b[1:]
		case r.Flags&FlagWantSelection != 0:
			return fmt.Errorf("%w: ids and hist projections at once", ErrBadStatement)
		default:
			bins := binary.LittleEndian.Uint32(b[9:])
			if bins < 1 || bins > qlang.MaxHistBins {
				return fmt.Errorf("%w: hist bins %d outside 1..%d", ErrBadStatement, bins, qlang.MaxHistBins)
			}
			r.Stmt.Projection = qlang.Projection{Kind: qlang.ProjHist, Bins: int(bins)}
			r.Stmt.HistObj = object.ID(binary.LittleEndian.Uint64(b[1:]))
			b = b[13:]
		}
	}
	r.Query = b
	return nil
}

// QueryResponse is one server's answer to a MsgQuery.
type QueryResponse struct {
	Cost  vclock.Cost // incremental virtual cost of evaluating this request
	Stats exec.Stats
	// Sel is the partial selection, packed: the engine's chunk stream
	// goes into the reply as it is and the client unpacks it.
	Sel *selection.Packed
	// Hist is the server's partial histogram of a hist projection's
	// values; nil for every other projection.
	Hist *histogram.Histogram
	// Trace is the server-side span tree, present only when the request
	// carried FlagWantTrace. Its root cost equals Cost.
	Trace *telemetry.Span
}

// Encode serializes the response into one buffer sized for it.
func (r *QueryResponse) Encode() []byte {
	return r.encode(make([]byte, 0, r.encodedLen()))
}

// encode appends the response to out. Sections are emitted in decode
// order: cost, stats, selection, hist, trace.
func (r *QueryResponse) encode(out []byte) []byte {
	out = encodeCost(out, r.Cost)
	out = encodeStats(out, r.Stats)
	out = binary.LittleEndian.AppendUint64(out, uint64(r.Sel.EncodedLen()))
	out = r.Sel.Encode(out)
	var hb, tb []byte
	if r.Hist != nil {
		hb = r.Hist.Encode()
	}
	if r.Trace != nil {
		// The protocol encoding is the deterministic one: wall-clock span
		// fields never cross the wire.
		tb = r.Trace.Encode(false)
	}
	return appendOptional(appendOptional(out, hb), tb)
}

// encodedLen is the length Encode appends, histogram and trace apart:
// either is rare and small, and append grows the buffer for it.
func (r *QueryResponse) encodedLen() int {
	return 32 + 72 + 8 + r.Sel.EncodedLen() + 1 + 1
}

// appendOptional appends an optional section: 0 when body is nil, else
// 1 | u32 length | body.
func appendOptional(out, body []byte) []byte {
	if body == nil {
		return append(out, 0)
	}
	out = append(out, 1)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	return append(out, body...)
}

// decodeOptional splits what appendOptional wrote off b: the body (nil
// when absent) and the bytes after it.
func decodeOptional(b []byte, what string) (body, rest []byte, err error) {
	if len(b) < 1 {
		return nil, nil, fmt.Errorf("protocol: truncated %s marker", what)
	}
	switch b[0] {
	case 0:
		return nil, b[1:], nil
	case 1:
		if len(b) < 5 || uint64(len(b)-5) < uint64(binary.LittleEndian.Uint32(b[1:])) {
			return nil, nil, fmt.Errorf("protocol: truncated %s", what)
		}
		n := 5 + int(binary.LittleEndian.Uint32(b[1:]))
		return b[5:n], b[n:], nil
	}
	return nil, nil, fmt.Errorf("protocol: bad %s marker %d", what, b[0])
}

// DecodeQueryResponse parses a MsgQueryResult payload.
func DecodeQueryResponse(b []byte) (*QueryResponse, error) {
	r := &QueryResponse{}
	var err error
	r.Cost, b, err = decodeCost(b)
	if err != nil {
		return nil, err
	}
	r.Stats, b, err = decodeStats(b)
	if err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, fmt.Errorf("protocol: truncated selection length")
	}
	selLen := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if uint64(len(b)) < selLen {
		return nil, fmt.Errorf("protocol: truncated selection")
	}
	r.Sel, err = selection.DecodePacked(b[:selLen])
	if err != nil {
		return nil, err
	}
	b = b[selLen:]
	var body []byte
	if body, b, err = decodeOptional(b, "hist"); err != nil {
		return nil, err
	}
	if body != nil {
		if r.Hist, err = histogram.Decode(body); err != nil {
			return nil, err
		}
	}
	if body, b, err = decodeOptional(b, "trace"); err != nil {
		return nil, err
	}
	if body != nil {
		if r.Trace, err = telemetry.DecodeSpan(body); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes in query response", len(b))
	}
	return r, nil
}

// DataRequest asks a server for values of one object. When QueryReq is
// non-zero and Coords is nil, the server answers from the stashed result
// of that earlier query; otherwise it extracts the explicit coords.
type DataRequest struct {
	Obj      object.ID
	QueryReq uint64
	Coords   []uint64
}

// Encode serializes the request.
func (r *DataRequest) Encode() []byte {
	out := make([]byte, 0, 24+8*len(r.Coords))
	out = binary.LittleEndian.AppendUint64(out, uint64(r.Obj))
	out = binary.LittleEndian.AppendUint64(out, r.QueryReq)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(r.Coords)))
	for _, c := range r.Coords {
		out = binary.LittleEndian.AppendUint64(out, c)
	}
	return out
}

// DecodeDataRequest parses a MsgGetData payload.
func DecodeDataRequest(b []byte) (*DataRequest, error) {
	if len(b) < 24 {
		return nil, fmt.Errorf("protocol: truncated data request")
	}
	r := &DataRequest{
		Obj:      object.ID(binary.LittleEndian.Uint64(b)),
		QueryReq: binary.LittleEndian.Uint64(b[8:]),
	}
	n := binary.LittleEndian.Uint64(b[16:])
	b = b[24:]
	if n != uint64(len(b))/8 || uint64(len(b))%8 != 0 {
		return nil, fmt.Errorf("protocol: data request coords mismatch")
	}
	if n > 0 {
		r.Coords = make([]uint64, n)
		for i := range r.Coords {
			r.Coords[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	return r, nil
}

// DataResponse returns value bytes (aligned with the server's partial
// selection for stash answers, or with the requested coords).
type DataResponse struct {
	Cost vclock.Cost
	// Coords are the absolute coordinates the values correspond to (the
	// server's stashed partial for stash answers; echoed coords
	// otherwise).
	Coords []uint64
	Data   []byte
}

// Encode serializes the response.
func (r *DataResponse) Encode() []byte {
	out := make([]byte, 0, 48+8*len(r.Coords)+len(r.Data))
	out = encodeCost(out, r.Cost)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(r.Coords)))
	for _, c := range r.Coords {
		out = binary.LittleEndian.AppendUint64(out, c)
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(len(r.Data)))
	return append(out, r.Data...)
}

// DecodeDataResponse parses a MsgDataResult payload.
func DecodeDataResponse(b []byte) (*DataResponse, error) {
	r := &DataResponse{}
	var err error
	r.Cost, b, err = decodeCost(b)
	if err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, fmt.Errorf("protocol: truncated data response")
	}
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if n > uint64(len(b))/8 || uint64(len(b)) < 8*n+8 {
		return nil, fmt.Errorf("protocol: truncated data coords")
	}
	if n > 0 {
		r.Coords = make([]uint64, n)
		for i := range r.Coords {
			r.Coords[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	b = b[8*n:]
	dn := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if uint64(len(b)) != dn {
		return nil, fmt.Errorf("protocol: truncated data bytes")
	}
	r.Data = b
	return r, nil
}

// EncodeTagQuery serializes tag conditions.
func EncodeTagQuery(conds []metadata.TagCond) []byte {
	return encodeTags(nil, conds)
}

// encodeTags appends tag conditions: u8 count | per condition u32 key
// length | key | u32 value length | value. A statement section carries
// its tags the same way.
func encodeTags(out []byte, conds []metadata.TagCond) []byte {
	out = append(out, byte(len(conds)))
	for _, c := range conds {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c.Key)))
		out = append(out, c.Key...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c.Value)))
		out = append(out, c.Value...)
	}
	return out
}

// DecodeTagQuery parses a MsgTagQuery payload.
func DecodeTagQuery(b []byte) ([]metadata.TagCond, error) {
	conds, rest, err := decodeTags(b)
	if err == nil && len(rest) != 0 {
		return nil, fmt.Errorf("protocol: trailing bytes in tag query")
	}
	return conds, err
}

// decodeTags parses what encodeTags appends and returns the bytes after
// it.
func decodeTags(b []byte) ([]metadata.TagCond, []byte, error) {
	if len(b) < 1 {
		return nil, nil, fmt.Errorf("protocol: empty tag query")
	}
	n := int(b[0])
	b = b[1:]
	conds := make([]metadata.TagCond, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, nil, fmt.Errorf("protocol: truncated tag key length")
		}
		kl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(len(b)) < uint64(kl)+4 {
			return nil, nil, fmt.Errorf("protocol: truncated tag key")
		}
		k := string(b[:kl])
		b = b[kl:]
		vl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(len(b)) < uint64(vl) {
			return nil, nil, fmt.Errorf("protocol: truncated tag value")
		}
		v := string(b[:vl])
		b = b[vl:]
		conds = append(conds, metadata.TagCond{Key: k, Value: v})
	}
	return conds, b, nil
}

// EncodeTagResult serializes matching IDs with the lookup cost.
func EncodeTagResult(cost vclock.Cost, ids []object.ID) []byte {
	out := encodeCost(nil, cost)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(ids)))
	for _, id := range ids {
		out = binary.LittleEndian.AppendUint64(out, uint64(id))
	}
	return out
}

// DecodeTagResult parses a MsgTagResult payload.
func DecodeTagResult(b []byte) (vclock.Cost, []object.ID, error) {
	cost, b, err := decodeCost(b)
	if err != nil {
		return vclock.Cost{}, nil, err
	}
	if len(b) < 8 {
		return vclock.Cost{}, nil, fmt.Errorf("protocol: truncated tag result")
	}
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if n != uint64(len(b))/8 || uint64(len(b))%8 != 0 {
		return vclock.Cost{}, nil, fmt.Errorf("protocol: tag result length mismatch")
	}
	ids := make([]object.ID, n)
	for i := range ids {
		ids[i] = object.ID(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return cost, ids, nil
}

// StatsResponse answers a MsgStats request: the server's cumulative
// telemetry registry plus the incremental cost of serving the request
// itself.
type StatsResponse struct {
	Cost vclock.Cost
	Reg  *telemetry.Registry
}

// Encode serializes the response (deterministically — the registry
// encoding sorts metric names).
func (r *StatsResponse) Encode() []byte {
	out := encodeCost(nil, r.Cost)
	return append(out, r.Reg.Encode()...)
}

// DecodeStatsResponse parses a MsgStatsResult payload.
func DecodeStatsResponse(b []byte) (*StatsResponse, error) {
	cost, b, err := decodeCost(b)
	if err != nil {
		return nil, err
	}
	reg, err := telemetry.DecodeRegistry(b)
	if err != nil {
		return nil, err
	}
	return &StatsResponse{Cost: cost, Reg: reg}, nil
}

// BusyResponse answers any request the server's admission control
// rejected: the session's queue slice was full. RetryAfterNs is a
// deterministic virtual-time hint derived from the queue backlog; Queued
// is the backlog depth observed at rejection (diagnostics).
type BusyResponse struct {
	RetryAfterNs uint64
	Queued       uint32
}

// Encode serializes the response. Fields are emitted in decode order:
// retry-after, queued.
func (r *BusyResponse) Encode() []byte {
	out := binary.LittleEndian.AppendUint64(nil, r.RetryAfterNs)
	return binary.LittleEndian.AppendUint32(out, r.Queued)
}

// DecodeBusyResponse parses a MsgBusy payload.
func DecodeBusyResponse(b []byte) (*BusyResponse, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("protocol: truncated busy response")
	}
	r := &BusyResponse{}
	r.RetryAfterNs = binary.LittleEndian.Uint64(b)
	r.Queued = binary.LittleEndian.Uint32(b[8:])
	return r, nil
}

// EncodeHistResult wraps an optional histogram.
func EncodeHistResult(h *histogram.Histogram) []byte {
	if h == nil {
		return []byte{0}
	}
	return append([]byte{1}, h.Encode()...)
}

// DecodeHistResult parses a MsgHistResult payload (nil when the object
// has no histogram).
func DecodeHistResult(b []byte) (*histogram.Histogram, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("protocol: empty histogram result")
	}
	if b[0] == 0 {
		return nil, nil
	}
	return histogram.Decode(b[1:])
}

// EncodeFetchExtents builds a MsgFetchExtents payload: count u32, then
// per key u16 len + bytes.
func EncodeFetchExtents(keys []string) []byte {
	n := 4
	for _, k := range keys {
		n += 2 + len(k)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(k)))
		out = append(out, k...)
	}
	return out
}

// DecodeFetchExtents parses a MsgFetchExtents payload.
func DecodeFetchExtents(b []byte) ([]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("protocol: truncated fetch-extents")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	// Every key takes at least its length prefix: a count the payload
	// cannot hold is refused before anything is sized by it.
	if n > len(b)/2 {
		return nil, fmt.Errorf("protocol: fetch-extents count %d exceeds its %d-byte payload", n, len(b))
	}
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("protocol: truncated fetch-extents key length")
		}
		kl := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < kl {
			return nil, fmt.Errorf("protocol: truncated fetch-extents key")
		}
		keys = append(keys, string(b[:kl]))
		b = b[kl:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("protocol: trailing bytes in fetch-extents")
	}
	return keys, nil
}

// Extent is one key+bytes pair of a MsgPutExtents or MsgExtentsResult
// frame. A missing key is reported with Present=false rather than
// dropped, so the fetcher can distinguish "source lost it" from a
// truncated reply.
type Extent struct {
	Key     string
	Present bool
	Data    []byte
}

// extentHeaderLen is the fixed part of an encoded extent: key length,
// present flag and data length.
const extentHeaderLen = 2 + 1 + 8

// extentPad is the zero padding that follows an extent header ending at
// payload offset off, so that the extent's bytes start 8-aligned.
func extentPad(off int) int { return -off & 7 }

// ExtentSizeBound bounds the bytes e adds to an extents payload: its
// header, key, padding and data.
func ExtentSizeBound(e Extent) int { return extentHeaderLen + len(e.Key) + 7 + len(e.Data) }

// EncodeExtentsResult builds the payload both extent-carrying messages
// share (MsgPutExtents and MsgExtentsResult): count u32, then per
// extent u16 key-len | key | present byte | u64 data-len | zero padding
// to the next multiple of 8 | data. The padding starts every extent's
// bytes at an 8-aligned payload offset: frames arrive in buffers of
// their own, so an extent stored as a view of its frame can be read
// through a typed view (float64, uint64) in place.
func EncodeExtentsResult(exts []Extent) []byte {
	n := 4
	for _, e := range exts {
		n += extentHeaderLen + len(e.Key)
		n += extentPad(n) + len(e.Data)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(exts)))
	var zeros [7]byte
	for _, e := range exts {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(e.Key)))
		out = append(out, e.Key...)
		if e.Present {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(len(e.Data)))
		out = append(out, zeros[:extentPad(len(out))]...)
		out = append(out, e.Data...)
	}
	return out
}

// DecodeExtentsResult parses a MsgPutExtents or MsgExtentsResult
// payload. Extent data aliases the payload buffer (capped at its own
// end, so nothing appends into the next extent).
func DecodeExtentsResult(b []byte) ([]Extent, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("protocol: truncated extents result")
	}
	n := int(binary.LittleEndian.Uint32(b))
	// Every extent takes at least its fixed header: a count the payload
	// cannot hold is refused before anything is sized by it.
	if n > (len(b)-4)/extentHeaderLen {
		return nil, fmt.Errorf("protocol: extents count %d exceeds its %d-byte payload", n, len(b))
	}
	exts := make([]Extent, 0, n)
	off := 4
	for i := 0; i < n; i++ {
		if len(b)-off < 2 {
			return nil, fmt.Errorf("protocol: truncated extent key length")
		}
		kl := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if len(b)-off < kl+9 {
			return nil, fmt.Errorf("protocol: truncated extent header")
		}
		e := Extent{Key: string(b[off : off+kl])}
		switch b[off+kl] {
		case 0:
		case 1:
			e.Present = true
		default:
			return nil, fmt.Errorf("protocol: extent %q has present flag %d", e.Key, b[off+kl])
		}
		dl := binary.LittleEndian.Uint64(b[off+kl+1:])
		off += kl + 9
		pad := extentPad(off)
		if len(b)-off < pad {
			return nil, fmt.Errorf("protocol: truncated extent padding")
		}
		for _, z := range b[off : off+pad] {
			if z != 0 {
				return nil, fmt.Errorf("protocol: extent %q has nonzero padding", e.Key)
			}
		}
		off += pad
		if uint64(len(b)-off) < dl {
			return nil, fmt.Errorf("protocol: truncated extent data")
		}
		end := off + int(dl)
		e.Data = b[off:end:end]
		off = end
		exts = append(exts, e)
	}
	if off != len(b) {
		return nil, fmt.Errorf("protocol: trailing bytes in extents result")
	}
	return exts, nil
}
