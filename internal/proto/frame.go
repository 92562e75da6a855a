package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Length-prefixed framing for the net backend, where the packet/result codec
// becomes an actual wire format between OS processes. A frame is:
//
//	uvarint  payload length (excludes the header)
//	byte     frame type (low nibble) | flags << 4
//	varint   from (zigzag, as the codec writes processor ids; HostID = -1
//	         is the parent supervisor)
//	varint   to
//	[]byte   payload (length bytes)
//
// Between processors below 64, a payload under 128 bytes has a 4-byte
// header. A reader rejects a malformed header before allocating (ErrFrame:
// unknown types, undefined flag bits, oversized lengths, ids past int32),
// and a stream cut mid-frame fails with io.ErrUnexpectedEOF, never hangs.

// maxFrameHeader is one byte past the longest header, three varints of
// MaxVarintLen64 bytes and the type byte: one not ended by then is malformed.
const maxFrameHeader = 3*binary.MaxVarintLen64 + 2

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
	// FrameControl carries the rest of what the protocol sends
	// (AppendControl bytes): an abort, a child abort, a refused placement,
	// or the supervisor's announcement of a dead node (§4.2's
	// error-detection message).
	FrameControl
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
	FrameResult: "result", FrameControl: "control",
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
	// but an evaluation error (Msg.EvalErr): Child is the task that failed,
	// Value the error's text.
	FlagFailed

	frameFlags = FlagReissue | FlagFailed // the bits a frame may set
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

// oneByte reports whether a processor id's zigzag varint is one byte.
func oneByte(id ProcID) bool { return uint32(id+64) < 128 }

// zigzag is a one-byte processor id's varint; unzigzag inverts it.
func zigzag(id ProcID) byte  { return byte(id<<1 ^ id>>31) }
func unzigzag(b byte) ProcID { return ProcID(b>>1) ^ -ProcID(b&1) }

// appendHeader appends a frame header announcing a payload of n bytes. A
// payload under 128 bytes between processors below 64, nearly every frame,
// is a header of four single bytes, written straight.
func appendHeader(buf []byte, n int, t FrameType, flags byte, from, to ProcID) []byte {
	if uint(n) < 0x80 && oneByte(from) && oneByte(to) {
		return append(buf, byte(n), byte(t)|flags<<4, zigzag(from), zigzag(to))
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = append(buf, byte(t)|flags<<4)
	buf = binary.AppendVarint(buf, int64(from))
	return binary.AppendVarint(buf, int64(to))
}

// AppendFrame appends the frame's wire encoding to buf.
func AppendFrame(buf []byte, f *Frame) []byte {
	buf = appendHeader(buf, len(f.Payload), f.Type, f.Flags, f.From, f.To)
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
	body  int // offset of its payload
	err   error
}

// NewFrameWriter returns an empty batch in front of w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Begin opens a frame and returns the batch for the caller to append the
// payload to; End takes the extended buffer back. A type or flags the read
// side would reject are refused, and the frame never enters the batch.
func (w *FrameWriter) Begin(t FrameType, flags byte, from, to ProcID) []byte {
	if w.err == nil && (t <= 0 || t >= frameTypeEnd || flags&^frameFlags != 0) {
		w.err = fmt.Errorf("%w: invalid type %d or flags %#x", ErrFrame, t, flags)
	}
	w.start = len(w.buf)
	buf := appendHeader(w.buf, 0, t, flags, from, to) // a one-byte length for End to patch
	w.body = len(buf)
	return buf
}

// End closes the frame Begin opened by back-patching its length, moving the
// payload up when the length takes more than the one byte Begin reserved.
func (w *FrameWriter) End(buf []byte) error {
	n := len(buf) - w.body
	switch {
	case w.err != nil:
	case n > MaxFramePayload:
		w.err = fmt.Errorf("%w: payload %d exceeds %d", ErrFrame, n, MaxFramePayload)
	default:
		var l [binary.MaxVarintLen32]byte
		length := binary.AppendUvarint(l[:0], uint64(n))
		buf = slices.Insert(buf, w.start+1, length[1:]...) // nothing, unless n > 127
		copy(buf[w.start:], length)
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

// ParseFrameHeader decodes the frame header that b starts with — where it
// lies, allocating nothing — into a Frame without its payload, and returns
// the header's length and the payload length that follows. A b that ends
// inside a header valid so far fails with io.ErrUnexpectedEOF; a header whose
// length, type, flags or ids are invalid fails with ErrFrame.
func ParseFrameHeader(b []byte) (f Frame, hdr, payload int, err error) {
	if len(b) >= 4 && b[0] < 0x80 && b[2] < 0x80 && b[3] < 0x80 { // four single bytes
		if err := f.kind(b[1]); err != nil {
			return f, 0, 0, err
		}
		f.From, f.To = unzigzag(b[2]), unzigzag(b[3])
		return f, 4, int(b[0]), nil
	}
	n, k := binary.Uvarint(b)
	switch {
	case k < 0 || n > MaxFramePayload:
		return f, 0, 0, fmt.Errorf("%w: payload length exceeds %d", ErrFrame, MaxFramePayload)
	case k == 0 || k == len(b):
		return f, 0, 0, io.ErrUnexpectedEOF
	}
	if err := f.kind(b[k]); err != nil {
		return f, 0, 0, err
	}
	k++
	for _, id := range [...]*ProcID{&f.From, &f.To} {
		v, w := binary.Varint(b[k:])
		switch {
		case w < 0 || v != int64(int32(v)):
			return f, 0, 0, fmt.Errorf("%w: processor id overflows int32", ErrFrame)
		case w == 0:
			return f, 0, 0, io.ErrUnexpectedEOF
		}
		*id, k = ProcID(v), k+w
	}
	return f, k, int(n), nil
}

// kind sets the frame's type and flags from a header's type byte, refusing
// a type or a flag no frame has.
func (f *Frame) kind(c byte) error {
	f.Type, f.Flags = FrameType(c&0xf), c>>4
	if f.Type <= 0 || f.Type >= frameTypeEnd || f.Flags&^frameFlags != 0 {
		return fmt.Errorf("%w: invalid type %d or flags %#x", ErrFrame, f.Type, f.Flags)
	}
	return nil
}

// ReadFrame reads one frame from r, which must also be an io.ByteReader (a
// bufio.Reader, a bytes.Reader or Buffer): the header is read a byte at a
// time, so no byte past the frame is consumed. A clean EOF at a frame
// boundary returns io.EOF; a stream cut inside a frame returns
// io.ErrUnexpectedEOF; an invalid header returns ErrFrame without reading the
// payload.
func ReadFrame(r io.Reader) (*Frame, error) {
	f := new(Frame)
	if err := ReadFrameInto(r, f); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFrameInto is ReadFrame into f, whose Payload array is reused when it
// has room: a reader that decodes each frame before the next read allocates
// nothing per frame. After an error f holds nothing of use.
func ReadFrameInto(r io.Reader, f *Frame) error {
	br, ok := r.(io.ByteReader)
	if !ok {
		return errors.New("proto: ReadFrame reads an io.ByteReader")
	}
	// Four fields: the length, the type byte and two ids, each but the type
	// byte ending at a byte below 0x80 (or overflowing before hdr is full).
	var hdr [maxFrameHeader]byte
	n := 0
	for field := 0; field < 4 && n < len(hdr); n++ {
		c, err := br.ReadByte()
		if err == io.EOF && n > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err // io.EOF only at a boundary
		}
		if hdr[n] = c; field == 1 || c < 0x80 {
			field++
		}
	}
	g, _, size, err := ParseFrameHeader(hdr[:n])
	if err != nil {
		return err
	}
	if g.Payload = f.Payload[:0]; cap(g.Payload) < size {
		g.Payload = make([]byte, size)
	}
	g.Payload = g.Payload[:size]
	if _, err = io.ReadFull(r, g.Payload); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	*f = g
	return err
}
