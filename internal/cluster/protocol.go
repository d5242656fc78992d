package cluster

import (
	"encoding/binary"
	"fmt"
)

// Catalog protocol message kinds. They ride the same transport.Message
// framing as the query protocol but live in a disjoint numeric range
// (64+) so a connection wired to the wrong endpoint fails loudly
// instead of misparsing.
const (
	MsgCatHello       byte = 64 // member -> catalog: join request (listen addr); reply MsgCatHelloResult
	MsgCatHelloResult byte = 65 // catalog -> member: assigned id + committed view + meta snapshot
	MsgCatHeartbeat   byte = 66 // member -> catalog: liveness beacon (no reply)
	MsgCatPrepare     byte = 67 // catalog -> member: pending view push; member transfers, replies MsgCatReady
	MsgCatReady       byte = 68 // member -> catalog: transfers for pending epoch complete
	MsgCatCommit      byte = 69 // catalog -> member/session: committed view (push and MsgCatView reply)
	MsgCatView        byte = 70 // session -> catalog: fetch committed view; reply MsgCatCommit
	MsgCatImport      byte = 71 // session -> catalog: publish meta snapshot; reply MsgCatCommit or MsgCatError
	MsgCatMeta        byte = 72 // session -> catalog: fetch meta snapshot; reply MsgCatMetaResult
	MsgCatMetaResult  byte = 73 // catalog -> session: meta snapshot bytes
	MsgCatReport      byte = 74 // session -> catalog: member observed down; reply MsgCatOK
	MsgCatDrain       byte = 75 // operator -> catalog: drain member, migrate regions off; reply MsgCatOK or MsgCatError
	MsgCatOK          byte = 76 // catalog -> session: acknowledgement
	MsgCatError       byte = 77 // catalog -> session/member: failure, payload is the message
)

// CatMsgName returns a human-readable name for a catalog message kind.
func CatMsgName(t byte) string {
	switch t {
	case MsgCatHello:
		return "CatHello"
	case MsgCatHelloResult:
		return "CatHelloResult"
	case MsgCatHeartbeat:
		return "CatHeartbeat"
	case MsgCatPrepare:
		return "CatPrepare"
	case MsgCatReady:
		return "CatReady"
	case MsgCatCommit:
		return "CatCommit"
	case MsgCatView:
		return "CatView"
	case MsgCatImport:
		return "CatImport"
	case MsgCatMeta:
		return "CatMeta"
	case MsgCatMetaResult:
		return "CatMetaResult"
	case MsgCatReport:
		return "CatReport"
	case MsgCatDrain:
		return "CatDrain"
	case MsgCatOK:
		return "CatOK"
	case MsgCatError:
		return "CatError"
	default:
		return fmt.Sprintf("CatUnknown(%d)", t)
	}
}

// Encode serializes a view: epoch u64 | seed u64 | r u16 | count u16,
// then per member id u32 | addr-len u16 | addr bytes.
func (v View) Encode() []byte {
	n := 8 + 8 + 2 + 2 + 6*len(v.Members)
	for i := 0; i < len(v.Members); i++ {
		n += len(v.Members[i].Addr)
	}
	buf := make([]byte, 0, n)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], v.Epoch)
	buf = append(buf, u64[:]...)
	binary.LittleEndian.PutUint64(u64[:], v.Seed)
	buf = append(buf, u64[:]...)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(v.R))
	buf = append(buf, u16[:]...)
	binary.LittleEndian.PutUint16(u16[:], uint16(len(v.Members)))
	buf = append(buf, u16[:]...)
	for _, m := range v.Members {
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], uint32(m.ID))
		buf = append(buf, u32[:]...)
		binary.LittleEndian.PutUint16(u16[:], uint16(len(m.Addr)))
		buf = append(buf, u16[:]...)
		buf = append(buf, m.Addr...)
	}
	return buf
}

// DecodeView parses a View and returns the number of bytes consumed so
// callers can embed views inside larger payloads.
func DecodeView(b []byte) (View, int, error) {
	var v View
	if len(b) < 20 {
		return v, 0, fmt.Errorf("cluster: view truncated: %d bytes", len(b))
	}
	v.Epoch = binary.LittleEndian.Uint64(b[0:])
	v.Seed = binary.LittleEndian.Uint64(b[8:])
	v.R = int(binary.LittleEndian.Uint16(b[16:]))
	count := int(binary.LittleEndian.Uint16(b[18:]))
	off := 20
	v.Members = make([]MemberInfo, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < off+6 {
			return v, 0, fmt.Errorf("cluster: view member %d truncated", i)
		}
		id := MemberID(binary.LittleEndian.Uint32(b[off:]))
		alen := int(binary.LittleEndian.Uint16(b[off+4:]))
		off += 6
		if len(b) < off+alen {
			return v, 0, fmt.Errorf("cluster: view member %d addr truncated", i)
		}
		v.Members = append(v.Members, MemberInfo{ID: id, Addr: string(b[off : off+alen])})
		off += alen
	}
	return v, off, nil
}

// EncodeHello builds a MsgCatHello payload: the joiner's listen address.
func EncodeHello(addr string) []byte {
	buf := make([]byte, 2+len(addr))
	binary.LittleEndian.PutUint16(buf, uint16(len(addr)))
	copy(buf[2:], addr)
	return buf
}

// DecodeHello parses a MsgCatHello payload.
func DecodeHello(b []byte) (string, error) {
	if len(b) < 2 {
		return "", fmt.Errorf("cluster: hello truncated")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return "", fmt.Errorf("cluster: hello addr truncated")
	}
	return string(b[2 : 2+n]), nil
}

// HelloResult is the catalog's join reply: the assigned member ID, the
// committed view at join time, and the current metadata snapshot so the
// joiner can serve queries without a separate meta fetch.
type HelloResult struct {
	ID   MemberID
	View View
	Meta []byte
}

// Encode serializes a HelloResult: id u32 | view-len u32 | view |
// meta bytes (rest).
func (h HelloResult) Encode() []byte {
	buf := make([]byte, 0, 8+len(h.Meta))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(h.ID))
	buf = append(buf, u32[:]...)
	vb := h.View.Encode()
	binary.LittleEndian.PutUint32(u32[:], uint32(len(vb)))
	buf = append(buf, u32[:]...)
	buf = append(buf, vb...)
	buf = append(buf, h.Meta...)
	return buf
}

// DecodeHelloResult parses a MsgCatHelloResult payload.
func DecodeHelloResult(b []byte) (HelloResult, error) {
	var h HelloResult
	if len(b) < 8 {
		return h, fmt.Errorf("cluster: hello result truncated")
	}
	h.ID = MemberID(binary.LittleEndian.Uint32(b[0:]))
	vlen := int(binary.LittleEndian.Uint32(b[4:]))
	if len(b) < 8+vlen {
		return h, fmt.Errorf("cluster: hello result view truncated")
	}
	v, _, err := DecodeView(b[8 : 8+vlen])
	if err != nil {
		return h, err
	}
	h.View = v
	h.Meta = append([]byte(nil), b[8+vlen:]...)
	return h, nil
}

// Prepare is the catalog's rebalance push: the view transfers are
// sourced from and the pending view they establish. A member computes
// its gained regions as a pure diff of the two placements.
type Prepare struct {
	Source  View
	Pending View
}

// Encode serializes a Prepare: source-len u32 | source view | pending
// view (rest).
func (p Prepare) Encode() []byte {
	sb := p.Source.Encode()
	pb := p.Pending.Encode()
	buf := make([]byte, 0, 4+len(sb)+len(pb))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(sb)))
	buf = append(buf, u32[:]...)
	buf = append(buf, sb...)
	buf = append(buf, pb...)
	return buf
}

// DecodePrepare parses a MsgCatPrepare payload.
func DecodePrepare(b []byte) (Prepare, error) {
	var p Prepare
	if len(b) < 4 {
		return p, fmt.Errorf("cluster: prepare truncated")
	}
	slen := int(binary.LittleEndian.Uint32(b))
	if len(b) < 4+slen {
		return p, fmt.Errorf("cluster: prepare source view truncated")
	}
	src, _, err := DecodeView(b[4 : 4+slen])
	if err != nil {
		return p, err
	}
	pend, _, err := DecodeView(b[4+slen:])
	if err != nil {
		return p, err
	}
	p.Source, p.Pending = src, pend
	return p, nil
}

// EncodeMemberID builds the single-id payload shared by MsgCatHeartbeat,
// MsgCatReady (with epoch), MsgCatReport, and MsgCatDrain.
func EncodeMemberID(id MemberID) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(id))
	return buf[:]
}

// DecodeMemberID parses a single-member-id payload.
func DecodeMemberID(b []byte) (MemberID, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("cluster: member id truncated")
	}
	return MemberID(binary.LittleEndian.Uint32(b)), nil
}

// EncodeReady builds a MsgCatReady payload: member id + the pending
// epoch whose transfers completed.
func EncodeReady(id MemberID, pendingEpoch uint64) []byte {
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(id))
	binary.LittleEndian.PutUint64(buf[4:], pendingEpoch)
	return buf[:]
}

// DecodeReady parses a MsgCatReady payload.
func DecodeReady(b []byte) (MemberID, uint64, error) {
	if len(b) < 12 {
		return 0, 0, fmt.Errorf("cluster: ready truncated")
	}
	return MemberID(binary.LittleEndian.Uint32(b[0:])), binary.LittleEndian.Uint64(b[4:]), nil
}
