package lang

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/expr"
)

// normalize runs one format→parse pass.
func normalize(t *testing.T, p *Program) *Program {
	t.Helper()
	src := Format(p)
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("formatted program does not reparse: %v\n%s", err, src)
	}
	return q
}

// TestFormatReparsesToFixpoint: every bundled program is a fixpoint of
// format→parse — the tree a net node process rebuilds from the shipped text
// is the tree the host holds, n-ary sums included.
func TestFormatReparsesToFixpoint(t *testing.T) {
	programs := map[string]*Program{
		"fib":      Fib(),
		"tak":      Tak(),
		"nqueens":  NQueens(),
		"sumrange": SumRange(8),
		"msort":    MergeSort(),
		"binom":    Binomial(),
		"tree1":    TreeSum(1),
		"tree":     TreeSum(3),
		"tree4":    TreeSum(4),
		"critical": CriticalSections(6, 5),
	}
	for name, p := range programs {
		t.Run(name, func(t *testing.T) {
			if q := normalize(t, p); !reflect.DeepEqual(p, q) {
				t.Fatalf("format/parse changed the tree:\n%s\nvs\n%s", Format(p), Format(q))
			}
		})
	}
}

func TestFormatPreservesSemantics(t *testing.T) {
	cases := []struct {
		prog *Program
		fn   string
		args []expr.Value
	}{
		{Fib(), "fib", []expr.Value{expr.VInt(11)}},
		{Tak(), "tak", []expr.Value{expr.VInt(7), expr.VInt(4), expr.VInt(2)}},
		{NQueens(), "nqueens", []expr.Value{expr.VInt(5)}},
		{MergeSort(), "msort", []expr.Value{expr.IntList(5, 2, 8, 1)}},
		{Binomial(), "binom", []expr.Value{expr.VInt(9), expr.VInt(4)}},
	}
	for _, tc := range cases {
		want, err := RefEval(tc.prog, tc.fn, tc.args)
		if err != nil {
			t.Fatal(err)
		}
		re := normalize(t, tc.prog)
		got, err := RefEval(re, tc.fn, tc.args)
		if err != nil {
			t.Fatalf("%s reparsed eval: %v", tc.fn, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: formatted program computes %v, original %v", tc.fn, got, want)
		}
	}
}

func TestFormatParenthesization(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"fn f() = (2 + 3) * 4", 20},
		{"fn f() = 10 - (3 - 2)", 9},
		{"fn f() = 2 * (3 + 4)", 14},
		{"fn f() = -(1 + 2) + 10", 7},
		{"fn f() = (if 1 < 2 then 3 else 4) * 5", 15},
		{"fn f() = (let x = 2 in x) + 1", 3},
	}
	for _, tc := range cases {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		re := normalize(t, p)
		v, err := RefEval(re, "f", nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if !v.Equal(expr.VInt(tc.want)) {
			t.Errorf("%s: reparsed = %v, want %d\nformatted: %s",
				tc.src, v, tc.want, Format(p))
		}
	}
}

func TestFormatRendersReadableSource(t *testing.T) {
	src := Format(Fib())
	for _, want := range []string{"fn fib(n)", "if n < 2 then n else", "fib(n - 1) + fib(n - 2)"} {
		if !strings.Contains(src, want) {
			t.Errorf("formatted fib missing %q:\n%s", want, src)
		}
	}
}

func TestFormatExprHole(t *testing.T) {
	// Residual expressions render holes loudly (not reparseable, by design).
	s := FormatExpr(expr.Op("+", expr.Hole{ID: 3}, expr.Int(1)))
	if !strings.Contains(s, "⟨3⟩") {
		t.Errorf("hole rendering: %q", s)
	}
}

// randomParseableExpr generates closed expressions from the subset the
// concrete syntax can express (no holes, no pre-built list literals in
// expression position — lists appear via cons/nil, as the parser produces).
func randomParseableExpr(r *rand.Rand, depth int, scope []string) expr.Expr {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return expr.Int(int64(r.Intn(100)))
		case 1:
			return expr.Bool(r.Intn(2) == 0)
		case 2:
			return expr.Nil()
		default:
			if len(scope) > 0 {
				return expr.V(scope[r.Intn(len(scope))])
			}
			return expr.Int(int64(r.Intn(9)))
		}
	}
	switch r.Intn(8) {
	case 0, 2:
		// The variadic operators at arities 1-5: an n-ary node and a nest of
		// binary ones over the same operands are different trees, and both
		// must survive the trip.
		args := make([]expr.Expr, 1+r.Intn(5))
		for i := range args {
			args[i] = randomParseableExpr(r, depth-1, scope)
		}
		return expr.Op([]string{"+", "*", "and", "or"}[r.Intn(4)], args...)
	case 1:
		return expr.Op("-", randomParseableExpr(r, depth-1, scope), randomParseableExpr(r, depth-1, scope))
	case 3:
		return expr.Cond(
			expr.Op("<", randomParseableExpr(r, depth-1, scope), randomParseableExpr(r, depth-1, scope)),
			randomParseableExpr(r, depth-1, scope),
			randomParseableExpr(r, depth-1, scope))
	case 4:
		name := "v" + string(rune('a'+len(scope)))
		return expr.LetIn(name,
			randomParseableExpr(r, depth-1, scope),
			randomParseableExpr(r, depth-1, append(scope, name)))
	case 5:
		return expr.Op("cons", randomParseableExpr(r, depth-1, scope), expr.Nil())
	case 6:
		return expr.Op("neg", randomParseableExpr(r, depth-1, scope))
	default:
		return expr.Op("==", randomParseableExpr(r, depth-1, scope), randomParseableExpr(r, depth-1, scope))
	}
}

// TestQuickFormatParseStructuralRoundTrip: formatting any parseable AST and
// reparsing it yields the identical structure — the formatter's
// parenthesization and the parser's precedence rules agree exactly.
func TestQuickFormatParseStructuralRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := func() bool {
		body := randomParseableExpr(r, 4, nil)
		src := "fn f() = " + FormatExpr(body)
		p, err := Parse(src)
		if err != nil {
			t.Logf("unparseable: %s (%v)", src, err)
			return false
		}
		d, _ := p.Func("f")
		return reflect.DeepEqual(d.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}
