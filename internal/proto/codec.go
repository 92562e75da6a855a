package proto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/expr"
	"repro/internal/stamp"
)

// Binary codec for task packets and results. The simulator shares immutable
// values in memory, so this codec is not on the hot path — it exists to
// prove §2.1's claim that "the packet contains all necessary information,
// either directly or indirectly accessible, to activate the child task": a
// packet survives a byte-level round trip with nothing external, which is
// what storing it on a peer processor (§2) requires. The checkpoint and
// message byte accounting uses EncodedSize, which these functions validate
// against in tests.

// ErrPacketCodec wraps packet/result decoding errors.
var ErrPacketCodec = errors.New("proto: codec")

func appendStamp(buf []byte, s stamp.Stamp) []byte {
	raw := s.Key()
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(raw)))
	return append(buf, raw...)
}

func decodeStamp(buf []byte) (stamp.Stamp, []byte, error) {
	if len(buf) < 2 {
		return stamp.Stamp{}, nil, fmt.Errorf("%w: short stamp header", ErrPacketCodec)
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < n {
		return stamp.Stamp{}, nil, fmt.Errorf("%w: short stamp body", ErrPacketCodec)
	}
	s, err := stamp.Decode(string(buf[:n]))
	if err != nil {
		return stamp.Stamp{}, nil, fmt.Errorf("%w: %v", ErrPacketCodec, err)
	}
	return s, buf[n:], nil
}

func appendKey(buf []byte, k TaskKey) []byte {
	buf = appendStamp(buf, k.Stamp)
	return binary.BigEndian.AppendUint64(buf, uint64(k.Rep))
}

func decodeKey(buf []byte) (TaskKey, []byte, error) {
	s, rest, err := decodeStamp(buf)
	if err != nil {
		return TaskKey{}, nil, err
	}
	if len(rest) < 8 {
		return TaskKey{}, nil, fmt.Errorf("%w: short key rep", ErrPacketCodec)
	}
	return TaskKey{Stamp: s, Rep: Rep(binary.BigEndian.Uint64(rest))}, rest[8:], nil
}

func appendAddr(buf []byte, a Addr) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.Proc))
	return appendKey(buf, a.Task)
}

func decodeAddr(buf []byte) (Addr, []byte, error) {
	if len(buf) < 4 {
		return Addr{}, nil, fmt.Errorf("%w: short addr", ErrPacketCodec)
	}
	proc := ProcID(int32(binary.BigEndian.Uint32(buf)))
	key, rest, err := decodeKey(buf[4:])
	if err != nil {
		return Addr{}, nil, err
	}
	return Addr{Proc: proc, Task: key}, rest, nil
}

func appendString16(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func decodeString16(buf []byte) (string, []byte, error) {
	if len(buf) < 2 {
		return "", nil, fmt.Errorf("%w: short string header", ErrPacketCodec)
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < n {
		return "", nil, fmt.Errorf("%w: short string body", ErrPacketCodec)
	}
	return string(buf[:n]), buf[n:], nil
}

// EncodePacket serializes a task packet to bytes.
func EncodePacket(p *TaskPacket) []byte { return AppendPacket(nil, p) }

// AppendPacket appends a task packet's wire form to buf.
func AppendPacket(buf []byte, p *TaskPacket) []byte {
	buf = appendKey(buf, p.Key)
	buf = binary.BigEndian.AppendUint64(buf, p.Gen)
	buf = binary.BigEndian.AppendUint64(buf, p.ParentGen)
	buf = appendString16(buf, p.Fn)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Args)))
	for _, v := range p.Args {
		buf = expr.AppendValue(buf, v)
	}
	buf = appendAddr(buf, p.Parent)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.HoleID))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Ancestors)))
	for _, a := range p.Ancestors {
		buf = appendAddr(buf, a)
	}
	flags := byte(0)
	if p.Twin {
		flags |= 1
	}
	if p.Reissue {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(p.Replicas))
	return buf
}

// DecodePacket inverts EncodePacket.
func DecodePacket(buf []byte) (*TaskPacket, error) {
	p := &TaskPacket{}
	var err error
	p.Key, buf, err = decodeKey(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) < 16 {
		return nil, fmt.Errorf("%w: short generations", ErrPacketCodec)
	}
	p.Gen = binary.BigEndian.Uint64(buf)
	p.ParentGen = binary.BigEndian.Uint64(buf[8:])
	buf = buf[16:]
	p.Fn, buf, err = decodeString16(buf)
	if err != nil {
		return nil, err
	}
	p.Args, buf, err = expr.DecodeValues(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPacketCodec, err)
	}
	p.Parent, buf, err = decodeAddr(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) < 6 {
		return nil, fmt.Errorf("%w: short hole/ancestor header", ErrPacketCodec)
	}
	p.HoleID = int(int32(binary.BigEndian.Uint32(buf)))
	nAnc := int(binary.BigEndian.Uint16(buf[4:]))
	buf = buf[6:]
	for i := 0; i < nAnc; i++ {
		var a Addr
		a, buf, err = decodeAddr(buf)
		if err != nil {
			return nil, err
		}
		p.Ancestors = append(p.Ancestors, a)
	}
	if len(buf) < 3 {
		return nil, fmt.Errorf("%w: short flags", ErrPacketCodec)
	}
	p.Twin = buf[0]&1 != 0
	p.Reissue = buf[0]&2 != 0
	p.Replicas = int(binary.BigEndian.Uint16(buf[1:]))
	if rest := buf[3:]; len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrPacketCodec, len(rest))
	}
	return p, nil
}

// EncodeResult serializes a result payload.
func EncodeResult(r *Result) []byte { return AppendResult(nil, r) }

// AppendResult appends a result's wire form to buf.
func AppendResult(buf []byte, r *Result) []byte {
	buf = appendKey(buf, r.Child)
	buf = appendKey(buf, r.ParentTask)
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.HoleID))
	buf = expr.AppendValue(buf, r.Value)
	buf = appendAddr(buf, r.DeadParent)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Remaining)))
	for _, a := range r.Remaining {
		buf = appendAddr(buf, a)
	}
	return buf
}

// DecodeResult inverts EncodeResult.
func DecodeResult(buf []byte) (*Result, error) {
	r := &Result{}
	var err error
	r.Child, buf, err = decodeKey(buf)
	if err != nil {
		return nil, err
	}
	r.ParentTask, buf, err = decodeKey(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: short hole id", ErrPacketCodec)
	}
	r.HoleID = int(int32(binary.BigEndian.Uint32(buf)))
	buf = buf[4:]
	r.Value, buf, err = expr.DecodeValue(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPacketCodec, err)
	}
	r.DeadParent, buf, err = decodeAddr(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) < 2 {
		return nil, fmt.Errorf("%w: short remaining header", ErrPacketCodec)
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	for i := 0; i < n; i++ {
		var a Addr
		a, buf, err = decodeAddr(buf)
		if err != nil {
			return nil, err
		}
		r.Remaining = append(r.Remaining, a)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrPacketCodec, len(buf))
	}
	return r, nil
}
