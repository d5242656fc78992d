// Package transport is the message layer between PDC clients and servers:
// typed, request-correlated frames over either in-process channel pairs
// (the default deployment, one goroutine per server) or TCP (the
// cmd/pdc-server daemon).
//
// The paper's client library serializes query conditions and broadcasts
// them to all servers, then aggregates responses asynchronously (§III-C);
// this package provides the duplex connections those flows run on, plus
// the modeled wire cost used for virtual-time accounting.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Message is one frame: an application-defined type, a request
// correlation ID, and an opaque payload. Trace carries the telemetry
// TraceID of the query the frame belongs to (zero when untraced); it
// rides in the frame header so servers can correlate spans without
// re-parsing payloads. Deadline is the request's virtual-time budget in
// nanoseconds (zero = none); it also rides in the header so the server's
// scheduler can enforce it without decoding the payload.
type Message struct {
	Type     byte
	ReqID    uint64
	Trace    uint64
	Deadline uint64
	Payload  []byte
}

// Conn is a duplex message connection. Send and Recv may be used
// concurrently with each other; concurrent Sends are serialized.
type Conn interface {
	Send(Message) error
	Recv() (Message, error)
	Close() error
}

// Wire cost model: a Cray-Aries-class interconnect.
const (
	// DefaultLatency is the per-message one-way latency.
	DefaultLatency = 5 * time.Microsecond
	// DefaultBW is the link bandwidth in bytes/second.
	DefaultBW = 10e9
)

// WireCost returns the modeled time to move one message of n payload
// bytes between client and server at the default parameters.
func WireCost(n int) time.Duration {
	return WireCostWith(DefaultLatency, DefaultBW, n)
}

// WireCostWith models a message of n bytes under explicit parameters
// (scaled deployments shrink the latency along with their storage
// latencies; see internal/bench).
func WireCostWith(latency time.Duration, bw float64, n int) time.Duration {
	d := latency
	if bw > 0 {
		d += time.Duration(float64(n) / bw * 1e9)
	}
	return d
}

// --- in-process transport --------------------------------------------------

type pipeConn struct {
	send      chan<- Message
	recv      <-chan Message
	closeOnce sync.Once
	closed    chan struct{}
	peer      *pipeConn
}

// Pipe returns two connected in-process endpoints. Messages sent on one
// side are received on the other, in order.
func Pipe() (Conn, Conn) {
	ab := make(chan Message, 64)
	ba := make(chan Message, 64)
	a := &pipeConn{send: ab, recv: ba, closed: make(chan struct{})}
	b := &pipeConn{send: ba, recv: ab, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *pipeConn) Send(m Message) error {
	// Check for closure first: the select below chooses randomly among
	// ready cases, and a buffered send could otherwise win over a
	// closed-channel case.
	select {
	case <-c.closed:
		return fmt.Errorf("transport: send on closed connection")
	case <-c.peer.closed:
		return fmt.Errorf("transport: peer closed")
	default:
	}
	select {
	case <-c.closed:
		return fmt.Errorf("transport: send on closed connection")
	case <-c.peer.closed:
		return fmt.Errorf("transport: peer closed")
	case c.send <- m:
		return nil
	}
}

func (c *pipeConn) Recv() (Message, error) {
	select {
	case <-c.closed:
		return Message{}, io.EOF
	case m := <-c.recv:
		return m, nil
	case <-c.peer.closed:
		// Drain any messages the peer sent before closing.
		select {
		case m := <-c.recv:
			return m, nil
		default:
			return Message{}, io.EOF
		}
	}
}

func (c *pipeConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// --- TCP transport -----------------------------------------------------------

// maxFrame guards against corrupt length prefixes. It is a variable only
// so framing tests can exercise the oversized-frame path without
// gigabyte scripts.
var maxFrame = 1 << 30

// FrameError reports a malformed but well-delimited frame: the header
// parsed, so the payload boundary is known and the stream stays in sync,
// but the frame itself is unusable. Servers reply with an error frame
// and keep the session alive instead of tearing it down.
type FrameError struct {
	Type   byte
	ReqID  uint64
	Trace  uint64
	Reason string
}

func (e *FrameError) Error() string { return "transport: " + e.Reason }

// TornFrameError reports a connection that died in the middle of a
// frame: some bytes of the header or payload arrived and then the stream
// ended. Unlike a clean EOF between frames, a torn frame means the peer
// (or the network) failed mid-message, so readers surface it as a typed,
// deterministic error — never a clean close, a hang, or a partial-read
// loop. It unwraps to io.ErrUnexpectedEOF so existing truncation checks
// keep matching.
type TornFrameError struct {
	// Stage is the part of the frame that was cut: "header" or "payload".
	Stage string
	// Got and Want count the bytes received vs. expected for that stage.
	Got, Want int
}

func (e *TornFrameError) Error() string {
	return fmt.Sprintf("transport: connection cut mid-frame (%s: %d of %d bytes)", e.Stage, e.Got, e.Want)
}

func (e *TornFrameError) Unwrap() error { return io.ErrUnexpectedEOF }

type tcpConn struct {
	c  net.Conn
	br *bufio.Reader
	// hdr is the header Recv reads each frame into: Recv has one reader,
	// so one buffer per connection needs no lock, and a header read into
	// it does not escape to the heap on every frame.
	hdr [frameHeader]byte
	bw  *bufio.Writer
	mu  sync.Mutex // serializes Send
	buf []byte     // reused frame buffer, guarded by mu
}

// frame layout: u32 payload length | u8 type | u64 reqID | u64 trace |
// u64 deadline | payload.
const frameHeader = 4 + 1 + 8 + 8 + 8

// AppendFrame appends the wire encoding of m — the fixed header followed
// by the payload — to dst and returns it. It grows dst at most once, so
// a connection that reuses its frame buffer encodes without allocating
// after the buffer warms to its peak message size.
func AppendFrame(dst []byte, m Message) []byte {
	if need := frameHeader + len(m.Payload); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(m.Payload)))
	hdr[4] = m.Type
	binary.LittleEndian.PutUint64(hdr[5:13], m.ReqID)
	binary.LittleEndian.PutUint64(hdr[13:21], m.Trace)
	binary.LittleEndian.PutUint64(hdr[21:29], m.Deadline)
	dst = append(dst, hdr[:]...)
	return append(dst, m.Payload...)
}

func (c *tcpConn) Send(m Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = AppendFrame(c.buf[:0], m)
	if _, err := c.bw.Write(c.buf); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *tcpConn) Recv() (Message, error) {
	hdr := &c.hdr
	if n, err := io.ReadFull(c.br, hdr[:]); err != nil {
		// A clean close lands exactly between frames (zero header bytes,
		// io.EOF). Any other cut is a torn frame and must be typed: an EOF
		// after a partial header would otherwise read as a graceful close
		// with a request silently in flight.
		if n > 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			return Message{}, &TornFrameError{Stage: "header", Got: n, Want: frameHeader}
		}
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	m := Message{
		Type:     hdr[4],
		ReqID:    binary.LittleEndian.Uint64(hdr[5:13]),
		Trace:    binary.LittleEndian.Uint64(hdr[13:21]),
		Deadline: binary.LittleEndian.Uint64(hdr[21:29]),
	}
	if int64(n) > int64(maxFrame) {
		// The frame is well-delimited (the peer is sending n payload
		// bytes) but too large to accept. Discard the payload to keep
		// the stream in sync and report a FrameError carrying the header
		// fields, so the server can answer this request with an error
		// frame and keep the session alive.
		if d, err := io.CopyN(io.Discard, c.br, int64(n)); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Message{}, &TornFrameError{Stage: "payload", Got: int(d), Want: int(n)}
			}
			return Message{}, err
		}
		return Message{}, &FrameError{
			Type: m.Type, ReqID: m.ReqID, Trace: m.Trace,
			Reason: fmt.Sprintf("frame of %d bytes exceeds limit", n),
		}
	}
	if n > 0 {
		m.Payload = make([]byte, n)
		if got, err := io.ReadFull(c.br, m.Payload); err != nil {
			// The header promised n payload bytes; any EOF before they all
			// arrive — including at exactly the header/payload boundary,
			// where ReadFull reports a clean io.EOF — is a torn frame.
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Message{}, &TornFrameError{Stage: "payload", Got: got, Want: int(n)}
			}
			return Message{}, err
		}
	}
	return m, nil
}

func (c *tcpConn) Close() error { return c.c.Close() }

func wrapTCP(nc net.Conn) Conn {
	return &tcpConn{c: nc, br: bufio.NewReaderSize(nc, 1<<16), bw: bufio.NewWriterSize(nc, 1<<16)}
}

// NewNetConn wraps an established net.Conn in the framed message
// protocol used by the TCP transport. It lets callers (and failure-path
// tests) supply their own connection — e.g. one with injected faults —
// instead of going through Listen/Dial.
func NewNetConn(nc net.Conn) Conn { return wrapTCP(nc) }

// Listener accepts message connections over TCP.
type Listener struct {
	l net.Listener
}

// Listen starts a TCP listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return wrapTCP(nc), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// Dial connects to a Listener.
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return wrapTCP(nc), nil
}
