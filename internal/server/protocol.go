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
	"pdcquery/internal/wire"
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

func decodeCost(r *wire.Reader) vclock.Cost {
	var k vclock.Cost
	for c := vclock.Storage; c <= vclock.Meta; c++ {
		k = k.Add(vclock.CostOf(c, time.Duration(r.U64())))
	}
	return k
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

func decodeStats(r *wire.Reader) exec.Stats {
	var s exec.Stats
	for _, v := range []*int64{
		&s.RegionsEvaluated, &s.RegionsPruned, &s.SortedRegions, &s.ElementsScanned,
		&s.Probes, &s.IndexBinsRead, &s.IndexBytesRead, &s.CandChecks, &s.StorageBytes,
	} {
		*v = int64(r.U64())
	}
	return s
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
	rd := wire.NewReader(b)
	flags := rd.U8()
	r.Flags, r.Force = flags&flagBits, plan.Force(flags>>forceShift)
	// The forcing is refused before any later field is found truncated.
	if !r.Force.Valid() {
		return fmt.Errorf("%w: forcing %d", ErrBadQueryFlags, int(r.Force))
	}
	if r.Flags&FlagEpoch != 0 {
		r.Epoch = rd.U64()
	}
	if r.Flags&FlagWantSelection != 0 {
		r.Stmt.Projection.Kind = qlang.ProjIDs
	}
	if r.Flags&FlagStatement != 0 {
		r.Stmt.Tags = decodeTags(&rd)
		marker := rd.U8()
		var obj uint64
		var bins uint32
		if marker == 1 {
			obj, bins = rd.U64(), rd.U32()
		}
		switch {
		case rd.Err() != nil:
		case marker > 1:
			return fmt.Errorf("%w: unknown projection %d", ErrBadStatement, marker)
		case marker == 0 && len(r.Stmt.Tags) == 0:
			return fmt.Errorf("%w: empty statement section", ErrBadStatement)
		case marker == 0:
		case r.Flags&FlagWantSelection != 0:
			return fmt.Errorf("%w: ids and hist projections at once", ErrBadStatement)
		case bins < 1 || bins > qlang.MaxHistBins:
			return fmt.Errorf("%w: hist bins %d outside 1..%d", ErrBadStatement, bins, qlang.MaxHistBins)
		default:
			r.Stmt.Projection = qlang.Projection{Kind: qlang.ProjHist, Bins: int(bins)}
			r.Stmt.HistObj = object.ID(obj)
		}
	}
	r.Query = rd.Rest()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("protocol: query request: %w", err)
	}
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

// decodeOptional reads what appendOptional wrote: the body, and whether
// there is one.
func decodeOptional(r *wire.Reader) (body []byte, present bool) {
	switch m := r.U8(); m {
	case 0:
		return nil, false
	case 1:
		return r.Bytes(uint64(r.U32())), true
	default:
		r.Fail(fmt.Errorf("bad optional-section marker %d", m))
		return nil, false
	}
}

// DecodeQueryResponse parses a MsgQueryResult payload. The sections'
// own decoders run once the payload's framing has been read whole.
func DecodeQueryResponse(b []byte) (*QueryResponse, error) {
	r := wire.NewReader(b)
	resp := &QueryResponse{Cost: decodeCost(&r), Stats: decodeStats(&r)}
	sel := r.Bytes(r.U64())
	hist, hasHist := decodeOptional(&r)
	trace, hasTrace := decodeOptional(&r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("protocol: query response: %w", err)
	}
	var err error
	if resp.Sel, err = selection.DecodePacked(sel); err != nil {
		return nil, err
	}
	if hasHist {
		if resp.Hist, err = histogram.Decode(hist); err != nil {
			return nil, err
		}
	}
	if hasTrace {
		if resp.Trace, err = telemetry.DecodeSpan(trace); err != nil {
			return nil, err
		}
	}
	return resp, nil
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
	r := wire.NewReader(b)
	req := &DataRequest{Obj: object.ID(r.U64()), QueryReq: r.U64(), Coords: decodeCoords(&r)}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("protocol: data request: %w", err)
	}
	return req, nil
}

// decodeCoords reads a u64 count and that many u64 coordinates; nil when
// there are none.
func decodeCoords(r *wire.Reader) []uint64 {
	n := r.Count(r.U64(), 8)
	if n == 0 {
		return nil
	}
	coords := make([]uint64, n)
	for i := range coords {
		coords[i] = r.U64()
	}
	return coords
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
	r := wire.NewReader(b)
	resp := &DataResponse{Cost: decodeCost(&r), Coords: decodeCoords(&r)}
	resp.Data = r.Bytes(r.U64())
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("protocol: data response: %w", err)
	}
	return resp, nil
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
	r := wire.NewReader(b)
	conds := decodeTags(&r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("protocol: tag query: %w", err)
	}
	return conds, nil
}

// decodeTags reads what encodeTags appends.
func decodeTags(r *wire.Reader) []metadata.TagCond {
	// Every condition takes at least its two length prefixes.
	conds := make([]metadata.TagCond, r.Count(uint64(r.U8()), 8))
	for i := range conds {
		k := string(r.Bytes(uint64(r.U32())))
		conds[i] = metadata.TagCond{Key: k, Value: string(r.Bytes(uint64(r.U32())))}
	}
	return conds
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
	r := wire.NewReader(b)
	cost := decodeCost(&r)
	ids := make([]object.ID, r.Count(r.U64(), 8))
	for i := range ids {
		ids[i] = object.ID(r.U64())
	}
	if err := r.Done(); err != nil {
		return vclock.Cost{}, nil, fmt.Errorf("protocol: tag result: %w", err)
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
	r := wire.NewReader(b)
	cost := decodeCost(&r)
	rest := r.Rest()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("protocol: stats response: %w", err)
	}
	reg, err := telemetry.DecodeRegistry(rest)
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
	r := wire.NewReader(b)
	resp := &BusyResponse{RetryAfterNs: r.U64(), Queued: r.U32()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("protocol: busy response: %w", err)
	}
	return resp, nil
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
	r := wire.NewReader(b)
	switch m := r.U8(); m {
	case 0:
	case 1:
		return histogram.Decode(r.Rest())
	default:
		r.Fail(fmt.Errorf("bad marker %d", m))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("protocol: histogram result: %w", err)
	}
	return nil, nil
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
	r := wire.NewReader(b)
	// Every key takes at least its length prefix.
	keys := make([]string, r.Count(uint64(r.U32()), 2))
	for i := range keys {
		keys[i] = string(r.Bytes(uint64(r.U16())))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("protocol: fetch-extents: %w", err)
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
	r := wire.NewReader(b)
	// Every extent takes at least its fixed header.
	exts := make([]Extent, r.Count(uint64(r.U32()), extentHeaderLen))
	for i := range exts {
		e := &exts[i]
		e.Key = string(r.Bytes(uint64(r.U16())))
		switch p := r.U8(); p {
		case 0:
		case 1:
			e.Present = true
		default:
			r.Fail(fmt.Errorf("extent %q has present flag %d", e.Key, p))
		}
		dl := r.U64()
		for _, z := range r.Bytes(uint64(extentPad(len(b) - r.Len()))) {
			if z != 0 {
				r.Fail(fmt.Errorf("extent %q has nonzero padding", e.Key))
			}
		}
		e.Data = r.Bytes(dl)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("protocol: extents result: %w", err)
	}
	return exts, nil
}
