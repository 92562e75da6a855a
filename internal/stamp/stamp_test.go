package stamp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRootProperties(t *testing.T) {
	r := Root()
	if !r.IsRoot() {
		t.Fatal("Root() is not root")
	}
	if r.Level() != 0 {
		t.Fatalf("root level = %d, want 0", r.Level())
	}
	if r.String() != "ε" {
		t.Fatalf("root String = %q", r.String())
	}
	if got := (Stamp{}); got != r {
		t.Fatal("zero value differs from Root()")
	}
}

func TestChildAndParent(t *testing.T) {
	p := Root().Child(3).Child(0)
	s := p.Child(7)
	if s.Level() != 3 {
		t.Fatalf("level = %d, want 3", s.Level())
	}
	if s.String() != "3.0.7" {
		t.Fatalf("String = %q, want 3.0.7", s.String())
	}
	if got := s.Component(2); got != 7 {
		t.Fatalf("Component(2) = %d, want 7", got)
	}
	if !p.IsAncestorOf(s) || p.Level() != 2 {
		t.Fatalf("parent %v is not one level above its child %v", p, s)
	}
	if got := s.Component(1); got != 0 {
		t.Fatalf("Component(1) = %d, want 0", got)
	}
}

func TestComponentOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Component out of range did not panic")
		}
	}()
	Root().Child(1).Component(1)
}

func TestAncestry(t *testing.T) {
	root := Root()
	a := root.Child(1)
	b := a.Child(2)
	c := a.Child(3)
	cases := []struct {
		anc, desc Stamp
		want      bool
	}{
		{root, a, true},
		{root, b, true},
		{a, b, true},
		{a, c, true},
		{b, c, false},
		{c, b, false},
		{a, a, false}, // proper ancestry only
		{b, a, false},
		{b, root, false},
	}
	for _, tc := range cases {
		if got := tc.anc.IsAncestorOf(tc.desc); got != tc.want {
			t.Errorf("IsAncestorOf(%v, %v) = %v, want %v", tc.anc, tc.desc, got, tc.want)
		}
	}
}

func TestCompareIsPreorder(t *testing.T) {
	// Ancestors sort before descendants; siblings sort by component.
	a := FromPath(1)
	ab := FromPath(1, 0)
	b := FromPath(2)
	if a.Compare(ab) >= 0 {
		t.Error("ancestor must sort before descendant")
	}
	if ab.Compare(b) >= 0 {
		t.Error("1.0 must sort before 2")
	}
	if a.Compare(a) != 0 {
		t.Error("Compare(x,x) != 0")
	}
	// Component-wise numeric order must be respected even when encodings
	// have multi-byte components.
	lo := FromPath(255)
	hi := FromPath(256)
	if lo.Compare(hi) >= 0 {
		t.Error("255 must sort before 256")
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	cases := []Stamp{
		Root(),
		FromPath(0),
		FromPath(1, 2, 3),
		FromPath(4294967295, 0, 77),
	}
	for _, s := range cases {
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", s.String(), err)
		}
		if back != s {
			t.Errorf("roundtrip %v -> %q -> %v", s, s.String(), back)
		}
	}
	if _, err := Parse("1.x.2"); err == nil {
		t.Error("Parse accepted garbage component")
	}
}

func TestKeyDecodeRoundTrip(t *testing.T) {
	s := FromPath(7, 0, 9, 123456)
	back, err := Decode(s.Key())
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("Decode(Key) = %v, want %v", back, s)
	}
	if _, err := Decode("abc"); err == nil {
		t.Error("Decode accepted misaligned raw input")
	}
	if len(s.Key()) != 16 {
		t.Errorf("len(Key) = %d, want 16", len(s.Key()))
	}
}

func TestPathRoundTrip(t *testing.T) {
	in := []uint32{5, 0, 2, 1 << 30}
	s := FromPath(in...)
	out := path(s)
	if len(out) != len(in) {
		t.Fatalf("Path length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("Path[%d] = %d, want %d", i, out[i], in[i])
		}
	}
}

// path is s as its components, the oracle the property tests compare with.
func path(s Stamp) []uint32 {
	out := make([]uint32, s.Level())
	for k := range out {
		out[k] = s.Component(k)
	}
	return out
}

// randomStamp builds a stamp with level in [0,6] and small components so
// collisions and ancestor relations actually occur under quick.
func randomStamp(r *rand.Rand) Stamp {
	s := Root()
	for lvl := r.Intn(7); lvl > 0; lvl-- {
		s = s.Child(uint32(r.Intn(4)))
	}
	return s
}

func TestQuickAncestorIffPrefixPath(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomStamp(r), randomStamp(r)
		pa, pb := path(a), path(b)
		isPrefix := len(pa) < len(pb)
		if isPrefix {
			for i := range pa {
				if pa[i] != pb[i] {
					isPrefix = false
					break
				}
			}
		}
		return a.IsAncestorOf(b) == isPrefix
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareMatchesPathOrder(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	less := func(a, b []uint32) int {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				if a[i] < b[i] {
					return -1
				}
				return 1
			}
		}
		switch {
		case len(a) < len(b):
			return -1
		case len(a) > len(b):
			return 1
		}
		return 0
	}
	f := func() bool {
		a, b := randomStamp(r), randomStamp(r)
		return a.Compare(b) == less(path(a), path(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
