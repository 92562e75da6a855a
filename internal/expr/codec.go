package expr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The wire codec serializes values into a compact binary form. The simulated
// machine never actually moves bytes between address spaces — values are
// immutable and shared — but the codec gives honest per-message and
// per-checkpoint byte counts for the cost model, and the net backend really
// ships it. Values are the only binary format: a task packet is a function
// name plus argument values (§2.1 "The packet contains all necessary
// information ... to activate the child task"), and programs travel as source
// (lang.Format → lang.Parse).

// Value tags.
const (
	tagInt byte = iota + 1
	tagBool
	tagStr
	tagUnit
	tagList
)

// ErrCodec is wrapped by all decoding errors.
var ErrCodec = errors.New("expr: codec")

// AppendValue appends the wire form of v to buf and returns the extended
// buffer.
func AppendValue(buf []byte, v Value) []byte {
	switch x := v.(type) {
	case VInt:
		buf = append(buf, tagInt)
		return binary.BigEndian.AppendUint64(buf, uint64(x))
	case VBool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(buf, tagBool, b)
	case VStr:
		buf = append(buf, tagStr)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(x)))
		return append(buf, x...)
	case VUnit:
		return append(buf, tagUnit)
	case VList:
		buf = append(buf, tagList)
		buf = binary.BigEndian.AppendUint32(buf, uint32(x.Len()))
		for c := x.Cell; c != nil; c = c.Tail.Cell {
			buf = AppendValue(buf, c.Head)
		}
		return buf
	default:
		panic(fmt.Sprintf("expr: cannot encode value %T", v))
	}
}

// EncodeValue returns the wire form of v.
func EncodeValue(v Value) []byte { return AppendValue(nil, v) }

// DecodeValue decodes one value from buf, returning it and the remaining
// bytes.
func DecodeValue(buf []byte) (Value, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, fmt.Errorf("%w: empty buffer", ErrCodec)
	}
	tag, rest := buf[0], buf[1:]
	switch tag {
	case tagInt:
		if len(rest) < 8 {
			return nil, nil, fmt.Errorf("%w: short int", ErrCodec)
		}
		return VInt(binary.BigEndian.Uint64(rest)), rest[8:], nil
	case tagBool:
		if len(rest) < 1 {
			return nil, nil, fmt.Errorf("%w: short bool", ErrCodec)
		}
		return VBool(rest[0] != 0), rest[1:], nil
	case tagStr:
		if len(rest) < 4 {
			return nil, nil, fmt.Errorf("%w: short str header", ErrCodec)
		}
		n := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < n {
			return nil, nil, fmt.Errorf("%w: short str body", ErrCodec)
		}
		return VStr(rest[:n]), rest[n:], nil
	case tagUnit:
		return VUnit{}, rest, nil
	case tagList:
		elems, rest, err := DecodeValues(rest)
		if err != nil {
			return nil, nil, err
		}
		return ListOf(elems...), rest, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown value tag %d", ErrCodec, tag)
	}
}

// DecodeValues decodes a value slice: a uint32 count, then that many values
// (a list's body, and a task packet's arguments).
func DecodeValues(buf []byte) ([]Value, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("%w: short values header", ErrCodec)
	}
	n := int(binary.BigEndian.Uint32(buf))
	rest := buf[4:]
	// Every value is at least one byte, so a count beyond the bytes left is
	// already malformed: size by what is there, never by what a frame claims.
	out := make([]Value, 0, min(n, len(rest)))
	for i := 0; i < n; i++ {
		var v Value
		var err error
		v, rest, err = DecodeValue(rest)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, v)
	}
	return out, rest, nil
}

// ValuesEncodedSize returns the wire size of a value slice without
// materializing the encoding.
func ValuesEncodedSize(vals []Value) int {
	n := 4
	for _, v := range vals {
		n += v.EncodedSize()
	}
	return n
}
