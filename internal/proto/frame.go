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

// WriteFrame writes one frame and returns the bytes written. Callers that
// share a connection across goroutines serialize writes themselves.
func WriteFrame(w io.Writer, f *Frame) (int, error) {
	if len(f.Payload) > MaxFramePayload {
		return 0, fmt.Errorf("%w: payload %d exceeds %d", ErrFrame, len(f.Payload), MaxFramePayload)
	}
	if f.Type <= 0 || f.Type >= frameTypeEnd {
		return 0, fmt.Errorf("%w: invalid type %d", ErrFrame, f.Type)
	}
	return w.Write(AppendFrame(nil, f))
}

// ReadFrame reads one frame. A clean EOF at a frame boundary returns io.EOF;
// a stream cut inside a frame returns io.ErrUnexpectedEOF; a header whose
// type or length is invalid returns ErrFrame without reading the payload.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // io.EOF at a boundary stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFramePayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrFrame, n, MaxFramePayload)
	}
	t := FrameType(hdr[4])
	if t <= 0 || t >= frameTypeEnd {
		return nil, fmt.Errorf("%w: invalid type %d", ErrFrame, hdr[4])
	}
	f := &Frame{
		Type:  t,
		Flags: hdr[5],
		From:  ProcID(int32(binary.BigEndian.Uint32(hdr[6:]))),
		To:    ProcID(int32(binary.BigEndian.Uint32(hdr[10:]))),
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
	return f, nil
}
