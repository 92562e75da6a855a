package expr

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a fully evaluated, immutable value of the applicative language.
// Values are the payloads of result packets and the arguments captured in
// task packets (functional checkpoints).
type Value interface {
	isValue()
	// String renders the value for traces.
	String() string
	// EncodedSize is exactly the number of bytes AppendValue writes for the
	// value (see codec.go); every backend charges message and checkpoint
	// storage costs from it.
	EncodedSize() int
	// Equal reports deep structural equality; it is the comparison the
	// §5.3 majority voter uses.
	Equal(Value) bool
}

// VInt is a 64-bit integer value.
type VInt int64

// VBool is a boolean value.
type VBool bool

// VStr is an immutable string value.
type VStr string

// VUnit is the unit (no-information) value.
type VUnit struct{}

// VList is an immutable singly linked list. The zero value is the empty
// list. Cells are shared, never mutated.
type VList struct{ Cell *Cell }

// Cell is one cons cell of a VList.
type Cell struct {
	Head Value
	Tail VList
}

func (VInt) isValue()  {}
func (VBool) isValue() {}
func (VStr) isValue()  {}
func (VUnit) isValue() {}
func (VList) isValue() {}

func (v VInt) String() string  { return strconv.FormatInt(int64(v), 10) }
func (v VBool) String() string { return strconv.FormatBool(bool(v)) }
func (v VStr) String() string  { return strconv.Quote(string(v)) }
func (VUnit) String() string   { return "unit" }

func (v VList) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for c, first := v.Cell, true; c != nil; c, first = c.Tail.Cell, false {
		if !first {
			b.WriteString(", ")
		}
		b.WriteString(c.Head.String())
	}
	b.WriteByte(']')
	return b.String()
}

func (v VInt) Equal(o Value) bool  { w, ok := o.(VInt); return ok && v == w }
func (v VBool) Equal(o Value) bool { w, ok := o.(VBool); return ok && v == w }
func (v VStr) Equal(o Value) bool  { w, ok := o.(VStr); return ok && v == w }
func (VUnit) Equal(o Value) bool   { _, ok := o.(VUnit); return ok }

func (v VList) Equal(o Value) bool {
	w, ok := o.(VList)
	if !ok {
		return false
	}
	a, b := v.Cell, w.Cell
	for a != nil && b != nil {
		if !a.Head.Equal(b.Head) {
			return false
		}
		a, b = a.Tail.Cell, b.Tail.Cell
	}
	return a == nil && b == nil
}

// IsEmpty reports whether the list has no cells.
func (v VList) IsEmpty() bool { return v.Cell == nil }

// Cons returns a new list with head prepended to v.
func (v VList) Cons(head Value) VList { return VList{&Cell{Head: head, Tail: v}} }

// Len returns the number of elements of the list.
func (v VList) Len() int {
	n := 0
	for c := v.Cell; c != nil; c = c.Tail.Cell {
		n++
	}
	return n
}

// Elems returns the list elements as a Go slice (front first).
func (v VList) Elems() []Value {
	var out []Value
	for c := v.Cell; c != nil; c = c.Tail.Cell {
		out = append(out, c.Head)
	}
	return out
}

// ListOf builds a VList from the given elements, front first.
func ListOf(elems ...Value) VList {
	var l VList
	for i := len(elems) - 1; i >= 0; i-- {
		l = l.Cons(elems[i])
	}
	return l
}

// IntList builds a VList of integers, front first.
func IntList(xs ...int64) VList {
	vals := make([]Value, len(xs))
	for i, x := range xs {
		vals[i] = VInt(x)
	}
	return ListOf(vals...)
}

// TypeName returns a short name of the value's dynamic type for error
// messages ("int", "bool", "str", "unit", "list").
func TypeName(v Value) string {
	switch v.(type) {
	case VInt:
		return "int"
	case VBool:
		return "bool"
	case VStr:
		return "str"
	case VUnit:
		return "unit"
	case VList:
		return "list"
	default:
		return fmt.Sprintf("%T", v)
	}
}
