package expr

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestExprString(t *testing.T) {
	e := Cond(
		Op("<", V("n"), Int(2)),
		V("n"),
		Op("+", Call("fib", Op("-", V("n"), Int(1))), Call("fib", Op("-", V("n"), Int(2)))),
	)
	s := e.String()
	for _, want := range []string{"if", "then", "else", "fib(", "<(n, 2)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if got := (Hole{ID: 4}).String(); got != "⟨4⟩" {
		t.Errorf("Hole.String = %q", got)
	}
	if got := LetIn("x", Int(1), V("x")).String(); got != "let x = 1 in x" {
		t.Errorf("Let.String = %q", got)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{VInt(-7), "-7"},
		{VBool(true), "true"},
		{VStr("a\"b"), `"a\"b"`},
		{VUnit{}, "unit"},
		{IntList(1, 2, 3), "[1, 2, 3]"},
		{VList{}, "[]"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%T String = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{VInt(1), VInt(1), true},
		{VInt(1), VInt(2), false},
		{VInt(1), VBool(true), false},
		{VBool(true), VBool(true), true},
		{VStr("x"), VStr("x"), true},
		{VUnit{}, VUnit{}, true},
		{IntList(1, 2), IntList(1, 2), true},
		{IntList(1, 2), IntList(1), false},
		{IntList(1), IntList(2), false},
		{VList{}, VList{}, true},
		{VList{}, VInt(0), false},
	}
	for _, tc := range cases {
		if got := tc.a.Equal(tc.b); got != tc.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestListOps(t *testing.T) {
	l := IntList(10, 20, 30)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.IsEmpty() {
		t.Fatal("IsEmpty on non-empty list")
	}
	el := l.Elems()
	if len(el) != 3 || !el[0].Equal(VInt(10)) || !el[2].Equal(VInt(30)) {
		t.Fatalf("Elems = %v", el)
	}
	l2 := l.Cons(VInt(5))
	if l2.Len() != 4 || !l2.Cell.Head.Equal(VInt(5)) {
		t.Fatalf("Cons broken: %v", l2)
	}
	// Persistence: l unchanged by Cons.
	if l.Len() != 3 {
		t.Fatal("Cons mutated the source list")
	}
}

func TestSubstShadowing(t *testing.T) {
	// let x = x+1 in x*x — substituting x affects the bind but not the body.
	e := LetIn("x", Op("+", V("x"), Int(1)), Op("*", V("x"), V("x")))
	got := Subst(e, "x", VInt(10))
	l, ok := got.(Let)
	if !ok {
		t.Fatalf("Subst changed node kind: %T", got)
	}
	if fv := FreeVars(l.Bind); len(fv) != 0 {
		t.Errorf("bind still has free vars %v", fv)
	}
	// The body's x is bound by the let, so it isn't free in the Let, but it
	// must remain a Var, not become a literal.
	if _, isVar := l.Body.(Prim); !isVar {
		t.Fatalf("body rewritten unexpectedly: %v", l.Body)
	}
	if l.Body.(Prim).Args[0].String() != "x" {
		t.Errorf("shadowed body var was substituted: %v", l.Body)
	}
}

func TestSubstInnerLetDifferentName(t *testing.T) {
	e := LetIn("y", V("x"), Op("+", V("x"), V("y")))
	got := Subst(e, "x", VInt(3))
	if fv := FreeVars(got); len(fv) != 0 {
		t.Fatalf("free vars remain after substitution: %v (expr %v)", fv, got)
	}
}

func TestFillHoles(t *testing.T) {
	e := Op("+", Hole{1}, Op("*", Hole{2}, Int(3)))
	got := FillHoles(e, map[int]Value{1: VInt(10), 2: VInt(20)})
	if ids := HoleIDs(got); len(ids) != 0 {
		t.Fatalf("holes remain: %v", ids)
	}
	partial := FillHoles(e, map[int]Value{2: VInt(20)})
	if ids := HoleIDs(partial); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("partial fill holes = %v", ids)
	}
	// No fills: identical structure returned.
	if ids := HoleIDs(FillHoles(e, nil)); len(ids) != 2 {
		t.Fatal("no-op fill changed holes")
	}
}

func TestHoleIDsOrderAndDedup(t *testing.T) {
	e := Op("+", Hole{3}, Op("*", Hole{1}, Hole{3}))
	ids := HoleIDs(e)
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 1 {
		t.Fatalf("HoleIDs = %v, want [3 1]", ids)
	}
}

func TestFreeVars(t *testing.T) {
	e := LetIn("x", V("a"), Op("+", V("x"), Op("*", V("b"), V("a"))))
	fv := FreeVars(e)
	if len(fv) != 2 || fv[0] != "a" || fv[1] != "b" {
		t.Fatalf("FreeVars = %v, want [a b]", fv)
	}
	if fv := FreeVars(Cond(V("c"), V("t"), V("e"))); len(fv) != 3 {
		t.Fatalf("FreeVars(if) = %v", fv)
	}
}

func randomValue(r *rand.Rand, depth int) Value {
	switch k := r.Intn(5); {
	case k == 0:
		return VInt(r.Int63n(1000) - 500)
	case k == 1:
		return VBool(r.Intn(2) == 0)
	case k == 2:
		return VStr(strings.Repeat("a", r.Intn(5)))
	case k == 3:
		return VUnit{}
	default:
		if depth <= 0 {
			return VInt(int64(r.Intn(9)))
		}
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return ListOf(elems...)
	}
}

func randomExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return Lit{randomValue(r, 1)}
		case 1:
			return V("v" + string(rune('a'+r.Intn(3))))
		default:
			return Hole{ID: r.Intn(8)}
		}
	}
	switch r.Intn(5) {
	case 0:
		return Op("+", randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 1:
		return Cond(randomExpr(r, depth-1), randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 2:
		return LetIn("x", randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 3:
		return Call("f", randomExpr(r, depth-1))
	default:
		return Lit{randomValue(r, 2)}
	}
}

func TestQuickValueCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		v := randomValue(r, 3)
		buf := EncodeValue(v)
		back, rest, err := DecodeValue(buf)
		return err == nil && len(rest) == 0 && back.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubstRemovesName(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := func() bool {
		e := randomExpr(r, 4)
		got := Subst(e, "va", VInt(1))
		// After substituting va, it may only remain free if shadowed — and
		// our generator only binds "x", so va must be gone entirely.
		for _, name := range FreeVars(got) {
			if name == "va" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestValuesSliceCodec(t *testing.T) {
	vals := []Value{VInt(1), VStr("hi"), IntList(3, 4)}
	// A slice travels as a list's body: the count, then each value.
	buf := AppendValue(nil, ListOf(vals...))[1:]
	back, rest, err := DecodeValues(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeValues: %v rest=%d", err, len(rest))
	}
	if len(back) != 3 || !back[0].Equal(vals[0]) || !back[1].Equal(vals[1]) || !back[2].Equal(vals[2]) {
		t.Fatalf("DecodeValues = %v", back)
	}
}

func TestDecodeErrors(t *testing.T) {
	// A count the buffer cannot hold must fail like any short buffer, not be
	// believed: 0x7fffffff elements would pre-allocate 32 GiB.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x07}
	for name, buf := range map[string][]byte{
		"empty":          nil,
		"bad tag":        {250},
		"short int":      {tagInt, 0x81},
		"overlong int":   append([]byte{tagInt}, bytes.Repeat([]byte{0xff}, 10)...),
		"short str":      {tagStr, 3, 'a', 'b'},
		"short list":     {tagList, 2, tagUnit},
		"huge list":      append([]byte{tagList}, huge...),
		"huge list body": append(append([]byte{tagList}, huge...), tagUnit, tagUnit),
	} {
		if _, _, err := DecodeValue(buf); !errors.Is(err, ErrCodec) {
			t.Errorf("DecodeValue(%s) = %v, want ErrCodec", name, err)
		}
	}
	for name, buf := range map[string][]byte{
		"short header": {0x80},
		"huge count":   huge,
	} {
		if _, _, err := DecodeValues(buf); !errors.Is(err, ErrCodec) {
			t.Errorf("DecodeValues(%s) = %v, want ErrCodec", name, err)
		}
	}
}

func TestTypeName(t *testing.T) {
	cases := map[string]Value{
		"int": VInt(0), "bool": VBool(false), "str": VStr(""),
		"unit": VUnit{}, "list": VList{},
	}
	for want, v := range cases {
		if got := TypeName(v); got != want {
			t.Errorf("TypeName(%T) = %q, want %q", v, got, want)
		}
	}
}

func BenchmarkSubstFibBody(b *testing.B) {
	body := Cond(
		Op("<", V("n"), Int(2)),
		V("n"),
		Op("+", Call("fib", Op("-", V("n"), Int(1))), Call("fib", Op("-", V("n"), Int(2)))),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Subst(body, "n", VInt(int64(i)))
	}
}
