package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Length-prefixed framing for the net backend, where the packet/result codec
// becomes an actual wire format between OS processes. A frame is:
//
//	uint32  payload length (big-endian, excludes the header)
//	byte    frame type
//	byte    flags
//	int32   from (ProcID; HostID = -1 is the parent supervisor)
//	int32   to
//	[]byte  payload (length bytes)
//
// The header is fixed-width so a reader can reject a malformed stream before
// allocating: unknown types and oversized lengths fail with ErrFrame, and a
// stream cut mid-frame fails with io.ErrUnexpectedEOF rather than hanging.

// FrameHeaderSize is the fixed wire size of a frame header.
const FrameHeaderSize = 4 + 1 + 1 + 4 + 4

// MaxFramePayload bounds a single frame. Task packets are small (a stamp,
// a function name, scalar arguments); program listings are a few KiB. A
// length field past this bound means a corrupt or hostile stream, not a big
// message.
const MaxFramePayload = 8 << 20

// FrameType enumerates the net-transport frame vocabulary.
type FrameType byte

// Frame types. The zero value is invalid so an all-zero header (a common
// torn-stream shape) never decodes.
const (
	// FrameHello is the child's handshake: payload names its node id and pid.
	FrameHello FrameType = 1 + iota
	// FrameProgram loads a program on a node: payload is a program index and
	// the lang.Format source text (code is shipped once, not per packet).
	FrameProgram
	// FrameSpawn carries a task packet (EncodePacket bytes after a program
	// index) toward a node — the functional checkpoint in flight.
	FrameSpawn
	// FrameResult carries a Result (EncodeResult bytes) back to the parent
	// task's node, or to the supervisor for super-root results.
	FrameResult
	// FrameNodeDown announces a dead node to a survivor (§4.2's
	// error-detection message, as gossip from the supervisor).
	FrameNodeDown
	// FrameHeartbeat is a liveness probe. No backend sends one: the net
	// backend's failure detector is the broken connection. The type keeps
	// its number (and the codec its smallest frame).
	FrameHeartbeat
	// FrameStats is the child's final counter report during graceful shutdown.
	FrameStats
	// FrameShutdown asks a child to report stats and exit (graceful Close
	// only — fault injection is SIGKILL and sends nothing).
	FrameShutdown

	frameTypeEnd // one past the last valid type
)

var frameNames = map[FrameType]string{
	FrameHello: "hello", FrameProgram: "program", FrameSpawn: "spawn",
	FrameResult: "result", FrameNodeDown: "node-down",
	FrameHeartbeat: "heartbeat", FrameStats: "stats", FrameShutdown: "shutdown",
}

func (t FrameType) String() string {
	if s, ok := frameNames[t]; ok {
		return s
	}
	return fmt.Sprintf("FrameType(%d)", byte(t))
}

// Frame flag bits.
const (
	// FlagReissue marks a FrameSpawn that re-executes a retained checkpoint
	// after a failure, so the supervisor can count recovery traffic without
	// decoding payloads.
	FlagReissue byte = 1 << iota
	// FlagFailed marks a FrameResult to the supervisor that reports no value
	// but an evaluation error: Child is the task that failed, Value the
	// error's text.
	FlagFailed
)

// ErrFrame wraps malformed-frame errors.
var ErrFrame = errors.New("proto: frame")

// Frame is one length-prefixed message on a net-transport connection.
type Frame struct {
	Type     FrameType
	Flags    byte
	From, To ProcID
	Payload  []byte
}

// AppendFrame appends the frame's wire encoding to buf.
func AppendFrame(buf []byte, f *Frame) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	buf = append(buf, byte(f.Type), f.Flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(f.From))
	buf = binary.BigEndian.AppendUint32(buf, uint32(f.To))
	return append(buf, f.Payload...)
}

// FrameWriter batches whole frames for one connection, each encoded once in
// the buffer that is written, and hands them over in one Write per Flush: a
// socket costs a system call per wake-up, not per frame. A refused frame and
// a failed Write are both sticky — nothing more is sent. Callers that share
// a connection across goroutines serialize themselves.
type FrameWriter struct {
	w     io.Writer
	buf   []byte
	start int // offset of the frame Begin opened
	err   error
}

// NewFrameWriter returns an empty batch in front of w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Begin opens a frame and returns the batch for the caller to append the
// payload to; End takes the extended buffer back.
func (w *FrameWriter) Begin(t FrameType, flags byte, from, to ProcID) []byte {
	w.start = len(w.buf)
	return AppendFrame(w.buf, &Frame{Type: t, Flags: flags, From: from, To: to})
}

// End closes the frame Begin opened by back-patching its length. What the
// read side would reject is refused here and never enters the batch.
func (w *FrameWriter) End(buf []byte) error {
	n := len(buf) - w.start - FrameHeaderSize
	switch t := FrameType(buf[w.start+4]); {
	case w.err != nil:
	case n > MaxFramePayload:
		w.err = fmt.Errorf("%w: payload %d exceeds %d", ErrFrame, n, MaxFramePayload)
	case t <= 0 || t >= frameTypeEnd:
		w.err = fmt.Errorf("%w: invalid type %d", ErrFrame, t)
	default:
		binary.BigEndian.PutUint32(buf[w.start:], uint32(n))
		w.buf = buf
	}
	return w.err
}

// Append adds one already-built frame to the batch.
func (w *FrameWriter) Append(f *Frame) error {
	return w.End(append(w.Begin(f.Type, f.Flags, f.From, f.To), f.Payload...))
}

// Len is the size of the unflushed batch in bytes.
func (w *FrameWriter) Len() int { return len(w.buf) }

// Flush writes the batch with one Write and empties it.
func (w *FrameWriter) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
		w.buf = w.buf[:0]
	}
	return w.err
}

// ParseFrameHeader decodes a frame's fixed header from the first
// FrameHeaderSize bytes of hdr — where they lie, allocating nothing — into a
// Frame without its payload, and returns the payload length that follows. A
// header whose type or length is invalid fails with ErrFrame.
func ParseFrameHeader(hdr []byte) (f Frame, payload int, err error) {
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFramePayload {
		return f, 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrFrame, n, MaxFramePayload)
	}
	t := FrameType(hdr[4])
	if t <= 0 || t >= frameTypeEnd {
		return f, 0, fmt.Errorf("%w: invalid type %d", ErrFrame, hdr[4])
	}
	return Frame{
		Type:  t,
		Flags: hdr[5],
		From:  ProcID(int32(binary.BigEndian.Uint32(hdr[6:]))),
		To:    ProcID(int32(binary.BigEndian.Uint32(hdr[10:]))),
	}, int(n), nil
}

// ReadFrame reads one frame. A clean EOF at a frame boundary returns io.EOF;
// a stream cut inside a frame returns io.ErrUnexpectedEOF; a header whose
// type or length is invalid returns ErrFrame without reading the payload.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF only at a boundary, io.ErrUnexpectedEOF inside
	}
	f, n, err := ParseFrameHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return &f, nil
}
