// Package stamp implements the hierarchical level stamps of §3.1 of
// Lin & Keller, "Distributed Recovery in Applicative Systems" (ICPP 1986).
//
// The root task carries a null (empty) stamp; a task at level one bears a
// one-component identification, and tasks at subsequent levels are stamped
// by appending one more component to the stamp of their parent. The paper
// uses the term "digit" generically; we use unsigned 32-bit components so
// fan-out is effectively unbounded.
//
// A stamp is stored as a fixed-width big-endian byte string, which makes
// stamps comparable with ==, usable as map keys, totally ordered by the
// ordinary string comparison (which coincides with component-wise numeric
// comparison), and ancestor checks become prefix tests. Uniqueness is
// guaranteed by the program structure, not by time: stamping is fully
// asynchronous, exactly as §3.1 requires.
package stamp

import (
	"fmt"
	"strconv"
	"strings"
)

// width is the encoded byte width of one stamp component.
const width = 4

// Stamp identifies a task by its path from the root of the call tree.
// The zero value is the root stamp.
type Stamp struct {
	// p holds the big-endian concatenation of the path components.
	p string
}

// Root returns the stamp of the root task (the null level number).
func Root() Stamp { return Stamp{} }

// Child returns the stamp obtained by appending component i, i.e. the stamp
// of this task's i-th spawned child.
func (s Stamp) Child(i uint32) Stamp {
	var b [width]byte
	b[0] = byte(i >> 24)
	b[1] = byte(i >> 16)
	b[2] = byte(i >> 8)
	b[3] = byte(i)
	return Stamp{p: s.p + string(b[:])}
}

// Parent returns the stamp of the task's parent; the root's is the root.
func (s Stamp) Parent() Stamp { return Stamp{p: s.p[:max(len(s.p)-width, 0)]} }

// Level reports the depth of the task in the call tree; the root is level 0.
func (s Stamp) Level() int { return len(s.p) / width }

// IsRoot reports whether s is the root stamp.
func (s Stamp) IsRoot() bool { return len(s.p) == 0 }

// Component returns the k-th path component (0-based). It panics if k is out
// of range, mirroring slice indexing semantics.
func (s Stamp) Component(k int) uint32 {
	if k < 0 || k >= s.Level() {
		panic(fmt.Sprintf("stamp: component %d out of range for level %d", k, s.Level()))
	}
	o := k * width
	return uint32(s.p[o])<<24 | uint32(s.p[o+1])<<16 | uint32(s.p[o+2])<<8 | uint32(s.p[o+3])
}

// IsAncestorOf reports whether s is a proper ancestor of t: s lies strictly
// above t on the path from the root. Every stamp is an ancestor of its
// descendants but not of itself.
func (s Stamp) IsAncestorOf(t Stamp) bool {
	return len(s.p) < len(t.p) && strings.HasPrefix(t.p, s.p)
}

// Compare totally orders stamps: ancestors sort before their descendants and
// siblings sort by component value, i.e. preorder over the call tree.
// It returns -1, 0, or +1.
func (s Stamp) Compare(t Stamp) int { return strings.Compare(s.p, t.p) }

// String renders the stamp as dot-separated components; the root renders as
// "ε" to keep logs readable.
func (s Stamp) String() string {
	if s.IsRoot() {
		return "ε"
	}
	var b strings.Builder
	for k := 0; k < s.Level(); k++ {
		if k > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(s.Component(k)), 10))
	}
	return b.String()
}

// Key returns the raw encoded path: 4 big-endian bytes per component. It is
// intended for use as a compact map key, and the wire codec reads components
// off it; Decode inverts it.
func (s Stamp) Key() string { return s.p }

// Decode reconstructs a stamp from the raw form produced by Key.
func Decode(raw string) (Stamp, error) {
	if len(raw)%width != 0 {
		return Stamp{}, fmt.Errorf("stamp: raw length %d is not a multiple of %d", len(raw), width)
	}
	return Stamp{p: raw}, nil
}

// Parse parses the textual form produced by String ("ε" or "1.0.2").
func Parse(text string) (Stamp, error) {
	if text == "ε" || text == "" {
		return Root(), nil
	}
	s := Root()
	for _, part := range strings.Split(text, ".") {
		v, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return Stamp{}, fmt.Errorf("stamp: bad component %q: %w", part, err)
		}
		s = s.Child(uint32(v))
	}
	return s, nil
}

// FromPath builds a stamp from explicit path components.
func FromPath(path ...uint32) Stamp {
	s := Root()
	for _, c := range path {
		s = s.Child(c)
	}
	return s
}
