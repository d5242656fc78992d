// Text-query protocol codecs: MsgTextQuery carries canonical qlang
// text (plus the usual flags/epoch and a planner forcing byte);
// MsgTextResult carries the standard query response plus an optional
// merged histogram for hist projections. Sections are encoded in
// decode order (wiresymmetry).
package server

import (
	"encoding/binary"
	"fmt"

	"pdcquery/internal/histogram"
	"pdcquery/internal/plan"
)

// EncodeTextQuery builds a MsgTextQuery payload:
// flags | [epoch u64 when FlagEpoch] | force u8 | u32 textLen | text.
func EncodeTextQuery(flags byte, epoch uint64, force plan.Force, text string) []byte {
	out := make([]byte, 0, 14+len(text))
	out = append(out, flags)
	if flags&FlagEpoch != 0 {
		out = binary.LittleEndian.AppendUint64(out, epoch)
	}
	out = append(out, byte(force))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(text)))
	return append(out, text...)
}

// DecodeTextQuery splits a MsgTextQuery payload; a forcing byte no
// plan.Force names is ErrBadQueryFlags.
func DecodeTextQuery(b []byte) (flags byte, epoch uint64, force plan.Force, text string, err error) {
	if len(b) < 1 {
		return 0, 0, 0, "", fmt.Errorf("protocol: empty text query")
	}
	flags = b[0]
	b = b[1:]
	if flags&FlagEpoch != 0 {
		if len(b) < 8 {
			return 0, 0, 0, "", fmt.Errorf("protocol: truncated text query epoch")
		}
		epoch = binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
	if len(b) < 5 {
		return 0, 0, 0, "", fmt.Errorf("protocol: truncated text query header")
	}
	force = plan.Force(b[0])
	if !force.Valid() {
		return 0, 0, 0, "", fmt.Errorf("%w: forcing %d", ErrBadQueryFlags, b[0])
	}
	n := binary.LittleEndian.Uint32(b[1:])
	b = b[5:]
	if uint64(len(b)) != uint64(n) {
		return 0, 0, 0, "", fmt.Errorf("protocol: text query length %d, have %d bytes", n, len(b))
	}
	return flags, epoch, force, string(b), nil
}

// TextQueryResponse is one server's answer to a MsgTextQuery: the
// standard response (cost, stats, selection, values, trace) plus the
// server's partial histogram of matching values for hist projections.
type TextQueryResponse struct {
	Base QueryResponse
	Hist *histogram.Histogram
}

// Encode serializes the response: u32 baseLen | base | hist marker 0/1
// | [u32 histLen | hist]. The base is appended in place — its length is
// written once it is known — so a reply is built in one buffer, sized
// for everything but a histogram (a hist reply's selection is a count;
// growing that buffer copies a hundred bytes).
func (r *TextQueryResponse) Encode() []byte {
	out := make([]byte, 4, 4+r.Base.encodedLen()+1)
	out = r.Base.encode(out)
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	if r.Hist == nil {
		return append(out, 0)
	}
	hb := r.Hist.Encode()
	out = append(out, 1)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hb)))
	return append(out, hb...)
}

// DecodeTextResult parses a MsgTextResult payload.
func DecodeTextResult(b []byte) (*TextQueryResponse, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("protocol: truncated text result header")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(n) {
		return nil, fmt.Errorf("protocol: truncated text result base")
	}
	base, err := DecodeQueryResponse(b[:n])
	if err != nil {
		return nil, err
	}
	b = b[n:]
	r := &TextQueryResponse{Base: *base}
	if len(b) < 1 {
		return nil, fmt.Errorf("protocol: truncated text result hist marker")
	}
	marker := b[0]
	b = b[1:]
	switch marker {
	case 0:
	case 1:
		if len(b) < 4 {
			return nil, fmt.Errorf("protocol: truncated text result hist length")
		}
		hn := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(len(b)) < uint64(hn) {
			return nil, fmt.Errorf("protocol: truncated text result hist")
		}
		h, err := histogram.Decode(b[:hn])
		if err != nil {
			return nil, err
		}
		r.Hist = h
		b = b[hn:]
	default:
		return nil, fmt.Errorf("protocol: bad text result hist marker %d", marker)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes in text result", len(b))
	}
	return r, nil
}
