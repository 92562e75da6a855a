package lang

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/expr"
)

// goFib is the plain Go oracle for fib.
func goFib(n int64) int64 {
	if n < 2 {
		return n
	}
	return goFib(n-1) + goFib(n-2)
}

// goTak is the plain Go oracle for tak.
func goTak(x, y, z int64) int64 {
	if y < x {
		return goTak(goTak(x-1, y, z), goTak(y-1, z, x), goTak(z-1, x, y))
	}
	return z
}

// goNQueens is the plain Go oracle for n-queens counting.
func goNQueens(n int) int64 {
	var rec func(row int, cols []int) int64
	rec = func(row int, cols []int) int64 {
		if row == n {
			return 1
		}
		var total int64
		for c := 0; c < n; c++ {
			ok := true
			// cols holds previous rows' columns, oldest first.
			for i, q := range cols {
				dist := row - i
				if q == c || abs64(int64(q-c)) == int64(dist) {
					ok = false
					break
				}
			}
			if ok {
				total += rec(row+1, append(cols, c))
				cols = cols[:row]
			}
		}
		return total
	}
	return rec(0, make([]int, 0, n))
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestRefEvalFib(t *testing.T) {
	p := Fib()
	for n := int64(0); n <= 15; n++ {
		got, err := RefEval(p, "fib", []expr.Value{expr.VInt(n)})
		if err != nil {
			t.Fatalf("fib(%d): %v", n, err)
		}
		if want := expr.VInt(goFib(n)); !got.Equal(want) {
			t.Errorf("fib(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestRefEvalTak(t *testing.T) {
	p := Tak()
	cases := [][3]int64{{6, 4, 2}, {8, 4, 2}, {5, 3, 1}, {2, 4, 6}}
	for _, c := range cases {
		got, err := RefEval(p, "tak", []expr.Value{expr.VInt(c[0]), expr.VInt(c[1]), expr.VInt(c[2])})
		if err != nil {
			t.Fatalf("tak%v: %v", c, err)
		}
		if want := expr.VInt(goTak(c[0], c[1], c[2])); !got.Equal(want) {
			t.Errorf("tak%v = %v, want %v", c, got, want)
		}
	}
}

func TestRefEvalNQueens(t *testing.T) {
	p := NQueens()
	want := []int64{1, 1, 0, 0, 2, 10, 4} // n = 0..6
	for n := 0; n <= 6; n++ {
		got, err := RefEval(p, "nqueens", []expr.Value{expr.VInt(int64(n))})
		if err != nil {
			t.Fatalf("nqueens(%d): %v", n, err)
		}
		if !got.Equal(expr.VInt(want[n])) {
			t.Errorf("nqueens(%d) = %v, want %d (go oracle %d)", n, got, want[n], goNQueens(n))
		}
	}
}

func TestRefEvalSumRange(t *testing.T) {
	p := SumRange(4)
	got, err := RefEval(p, "sumrange", []expr.Value{expr.VInt(0), expr.VInt(100)})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(expr.VInt(4950)) {
		t.Fatalf("sumrange(0,100) = %v, want 4950", got)
	}
}

func TestRefEvalBinomial(t *testing.T) {
	p := Binomial()
	got, err := RefEval(p, "binom", []expr.Value{expr.VInt(10), expr.VInt(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(expr.VInt(210)) {
		t.Fatalf("binom(10,4) = %v, want 210", got)
	}
}

func TestRefEvalMergeSort(t *testing.T) {
	p := MergeSort()
	in := expr.IntList(5, 3, 8, 1, 9, 2, 7, 4, 6, 0)
	got, err := RefEval(p, "msort", []expr.Value{in})
	if err != nil {
		t.Fatal(err)
	}
	want := expr.IntList(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	if !got.Equal(want) {
		t.Fatalf("msort = %v, want %v", got, want)
	}
}

func TestRefEvalTreeSum(t *testing.T) {
	p := TreeSum(3)
	got, err := RefEval(p, "tree", []expr.Value{expr.VInt(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(expr.VInt(81)) { // 3^4 leaves
		t.Fatalf("tree(4) = %v, want 81", got)
	}
}

// CountCalls returns the number of function applications the reference
// evaluation of fn(args) performs, including the root call: the size of the
// call tree the distributed machine will unfold.
func CountCalls(prog *Program, fn string, args []expr.Value) (int64, error) {
	var calls int64
	_, err := refRun(prog, fn, args, func(string) { calls++ })
	return calls, err
}

func TestCountCalls(t *testing.T) {
	p := TreeSum(2)
	// Perfect binary tree of depth 3: 1+2+4+8 = 15 applications.
	n, err := CountCalls(p, "tree", []expr.Value{expr.VInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("CountCalls = %d, want 15", n)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		defs []FuncDef
	}{
		{"unbound var", []FuncDef{{Name: "f", Params: []string{"x"}, Body: expr.V("y")}}},
		{"unknown callee", []FuncDef{{Name: "f", Params: nil, Body: expr.Call("g")}}},
		{"bad callee arity", []FuncDef{
			{Name: "f", Params: nil, Body: expr.Call("g", expr.Int(1))},
			{Name: "g", Params: nil, Body: expr.Int(0)},
		}},
		{"unknown prim", []FuncDef{{Name: "f", Params: nil, Body: expr.Op("frob", expr.Int(1))}}},
		{"bad prim arity", []FuncDef{{Name: "f", Params: nil, Body: expr.Op("head")}}},
		{"hole in source", []FuncDef{{Name: "f", Params: nil, Body: expr.Hole{ID: 0}}}},
		{"dup param", []FuncDef{{Name: "f", Params: []string{"x", "x"}, Body: expr.V("x")}}},
		{"dup function", []FuncDef{
			{Name: "f", Params: nil, Body: expr.Int(0)},
			{Name: "f", Params: nil, Body: expr.Int(1)},
		}},
	}
	for _, tc := range cases {
		if _, err := NewProgram(tc.defs...); err == nil {
			t.Errorf("%s: NewProgram accepted invalid program", tc.name)
		}
	}
}

func TestValidateAcceptsShadowingLet(t *testing.T) {
	_, err := NewProgram(FuncDef{
		Name:   "f",
		Params: []string{"x"},
		Body:   expr.LetIn("x", expr.Op("+", expr.V("x"), expr.Int(1)), expr.V("x")),
	})
	if err != nil {
		t.Fatalf("shadowing let rejected: %v", err)
	}
}

func TestFlattenImmediateValue(t *testing.T) {
	p := Fib()
	body, err := p.Instantiate("fib", []expr.Value{expr.VInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	out, err := Flatten(p, body, &next)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Done || !out.Value.Equal(expr.VInt(1)) {
		t.Fatalf("fib(1) flatten: done=%v value=%v", out.Done, out.Value)
	}
	if out.Steps <= 0 {
		t.Error("no steps counted")
	}
	if next != 0 {
		t.Errorf("demand counter advanced to %d for value-only flatten", next)
	}
}

func TestFlattenSpawnsTwoDemands(t *testing.T) {
	p := Fib()
	body, err := p.Instantiate("fib", []expr.Value{expr.VInt(10)})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	out, err := Flatten(p, body, &next)
	if err != nil {
		t.Fatal(err)
	}
	if out.Done {
		t.Fatal("fib(10) flattened to a value without spawning")
	}
	if len(out.Demands) != 2 {
		t.Fatalf("demands = %v, want 2", out.Demands)
	}
	if out.Demands[0].Fn != "fib" || !out.Demands[0].Args[0].Equal(expr.VInt(9)) {
		t.Errorf("demand 0 = %+v", out.Demands[0])
	}
	if out.Demands[1].Fn != "fib" || !out.Demands[1].Args[0].Equal(expr.VInt(8)) {
		t.Errorf("demand 1 = %+v", out.Demands[1])
	}
	if ids := expr.HoleIDs(out.Residual); len(ids) != 2 {
		t.Fatalf("residual holes = %v", ids)
	}
	// Resume with both results: must complete.
	out2, err := Resume(p, out.Residual, map[int]expr.Value{
		out.Demands[0].ID: expr.VInt(34),
		out.Demands[1].ID: expr.VInt(21),
	}, &next)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Done || !out2.Value.Equal(expr.VInt(55)) {
		t.Fatalf("resume: done=%v value=%v", out2.Done, out2.Value)
	}
}

func TestFlattenMultiWaveIf(t *testing.T) {
	// An If whose condition is itself an application: first wave demands
	// only the condition; the chosen branch's applications come in wave two.
	p := MustProgram(
		FuncDef{Name: "cond", Params: []string{"n"}, Body: expr.Op("<", expr.V("n"), expr.Int(5))},
		FuncDef{Name: "leaf", Params: []string{"n"}, Body: expr.Op("*", expr.V("n"), expr.Int(2))},
		FuncDef{Name: "main", Params: []string{"n"}, Body: expr.Cond(
			expr.Call("cond", expr.V("n")),
			expr.Call("leaf", expr.V("n")),
			expr.Int(-1),
		)},
	)
	body, err := p.Instantiate("main", []expr.Value{expr.VInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	w1, err := Flatten(p, body, &next)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Done || len(w1.Demands) != 1 || w1.Demands[0].Fn != "cond" {
		t.Fatalf("wave 1 = %+v", w1)
	}
	w2, err := Resume(p, w1.Residual, map[int]expr.Value{w1.Demands[0].ID: expr.VBool(true)}, &next)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Done || len(w2.Demands) != 1 || w2.Demands[0].Fn != "leaf" {
		t.Fatalf("wave 2 = %+v", w2)
	}
	w3, err := Resume(p, w2.Residual, map[int]expr.Value{w2.Demands[0].ID: expr.VInt(6)}, &next)
	if err != nil {
		t.Fatal(err)
	}
	if !w3.Done || !w3.Value.Equal(expr.VInt(6)) {
		t.Fatalf("wave 3 = %+v", w3)
	}
	// Hole IDs must be distinct across waves.
	if w1.Demands[0].ID == w2.Demands[0].ID {
		t.Error("hole IDs reused across waves")
	}
}

func TestFlattenNestedApplyArguments(t *testing.T) {
	// tak-style: f(g(1), g(2)) — inner applications demand first; the outer
	// application becomes a demand only after both inner results arrive.
	p := MustProgram(
		FuncDef{Name: "g", Params: []string{"x"}, Body: expr.Op("+", expr.V("x"), expr.Int(10))},
		FuncDef{Name: "f", Params: []string{"a", "b"}, Body: expr.Op("*", expr.V("a"), expr.V("b"))},
		FuncDef{Name: "main", Params: nil, Body: expr.Call("f",
			expr.Call("g", expr.Int(1)), expr.Call("g", expr.Int(2)))},
	)
	body, _ := p.Instantiate("main", nil)
	next := 0
	w1, err := Flatten(p, body, &next)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Demands) != 2 || w1.Demands[0].Fn != "g" || w1.Demands[1].Fn != "g" {
		t.Fatalf("wave 1 demands = %+v", w1.Demands)
	}
	w2, err := Resume(p, w1.Residual, map[int]expr.Value{
		w1.Demands[0].ID: expr.VInt(11), w1.Demands[1].ID: expr.VInt(12),
	}, &next)
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.Demands) != 1 || w2.Demands[0].Fn != "f" {
		t.Fatalf("wave 2 demands = %+v", w2.Demands)
	}
	if !w2.Demands[0].Args[0].Equal(expr.VInt(11)) || !w2.Demands[0].Args[1].Equal(expr.VInt(12)) {
		t.Fatalf("outer demand args = %+v", w2.Demands[0].Args)
	}
}

func TestFlattenPartialResume(t *testing.T) {
	// Filling only one of two holes must not complete the task and must not
	// re-demand the unfilled hole.
	p := Fib()
	body, _ := p.Instantiate("fib", []expr.Value{expr.VInt(10)})
	next := 0
	w1, _ := Flatten(p, body, &next)
	w2, err := Resume(p, w1.Residual, map[int]expr.Value{w1.Demands[0].ID: expr.VInt(34)}, &next)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Done {
		t.Fatal("completed with an unfilled hole")
	}
	if len(w2.Demands) != 0 {
		t.Fatalf("partial resume created demands: %+v", w2.Demands)
	}
	if ids := expr.HoleIDs(w2.Residual); len(ids) != 1 || ids[0] != w1.Demands[1].ID {
		t.Fatalf("residual holes after partial fill = %v", ids)
	}
}

func TestFlattenErrors(t *testing.T) {
	p := MustProgram(
		FuncDef{Name: "div0", Params: nil, Body: expr.Op("/", expr.Int(1), expr.Int(0))},
		FuncDef{Name: "badif", Params: nil, Body: expr.Cond(expr.Int(1), expr.Int(2), expr.Int(3))},
	)
	next := 0
	body, _ := p.Instantiate("div0", nil)
	if _, err := Flatten(p, body, &next); !errors.Is(err, ErrEval) {
		t.Errorf("div0 error = %v", err)
	}
	body, _ = p.Instantiate("badif", nil)
	if _, err := Flatten(p, body, &next); !errors.Is(err, ErrEval) {
		t.Errorf("badif error = %v", err)
	}
}

// driveFlatten runs a full evaluation locally by recursively satisfying
// demands with driveCall, simulating the machine without any distribution.
func driveCall(t *testing.T, p *Program, fn string, args []expr.Value, depth int) expr.Value {
	t.Helper()
	if depth > 10000 {
		t.Fatal("driveCall runaway recursion")
	}
	body, err := p.Instantiate(fn, args)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	out, err := Flatten(p, body, &next)
	if err != nil {
		t.Fatal(err)
	}
	for !out.Done {
		if len(out.Demands) == 0 {
			t.Fatalf("blocked with no demands: %v", out.Residual)
		}
		fills := map[int]expr.Value{}
		for _, d := range out.Demands {
			fills[d.ID] = driveCall(t, p, d.Fn, d.Args, depth+1)
		}
		out, err = Resume(p, out.Residual, fills, &next)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out.Value
}

func TestFlattenDriverMatchesRefEval(t *testing.T) {
	cases := []struct {
		prog *Program
		fn   string
		args []expr.Value
	}{
		{Fib(), "fib", []expr.Value{expr.VInt(12)}},
		{Tak(), "tak", []expr.Value{expr.VInt(7), expr.VInt(4), expr.VInt(2)}},
		{NQueens(), "nqueens", []expr.Value{expr.VInt(5)}},
		{SumRange(8), "sumrange", []expr.Value{expr.VInt(0), expr.VInt(64)}},
		{MergeSort(), "msort", []expr.Value{expr.IntList(9, 1, 8, 2, 7, 3)}},
		{Binomial(), "binom", []expr.Value{expr.VInt(8), expr.VInt(3)}},
		{TreeSum(2), "tree", []expr.Value{expr.VInt(5)}},
	}
	for _, tc := range cases {
		want, err := RefEval(tc.prog, tc.fn, tc.args)
		if err != nil {
			t.Fatalf("%s ref: %v", tc.fn, err)
		}
		got := driveCall(t, tc.prog, tc.fn, tc.args, 0)
		if !got.Equal(want) {
			t.Errorf("%s: flatten-driver %v, ref %v", tc.fn, got, want)
		}
	}
}

// TestQuickFlattenDeterminism verifies §2.1: different re-executions of the
// same task packet produce identical demand sequences, and results are
// independent of fill order (here: resume with fills split into two steps in
// random order equals resume all at once).
func TestQuickFlattenDeterminism(t *testing.T) {
	p := Fib()
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		n := int64(4 + r.Intn(8))
		body, err := p.Instantiate("fib", []expr.Value{expr.VInt(n)})
		if err != nil {
			return false
		}
		nextA, nextB := 0, 0
		a, errA := Flatten(p, body, &nextA)
		b, errB := Flatten(p, body, &nextB)
		if errA != nil || errB != nil {
			return false
		}
		if len(a.Demands) != len(b.Demands) || a.Steps != b.Steps {
			return false
		}
		for i := range a.Demands {
			if a.Demands[i].ID != b.Demands[i].ID ||
				a.Demands[i].Fn != b.Demands[i].Fn ||
				!a.Demands[i].Args[0].Equal(b.Demands[i].Args[0]) {
				return false
			}
		}
		// Split resume in random order vs batch resume.
		v0 := expr.VInt(goFib(n - 1))
		v1 := expr.VInt(goFib(n - 2))
		batch, err := Resume(p, a.Residual, map[int]expr.Value{
			a.Demands[0].ID: v0, a.Demands[1].ID: v1,
		}, &nextA)
		if err != nil || !batch.Done {
			return false
		}
		first, second := a.Demands[0].ID, a.Demands[1].ID
		fv, sv := expr.Value(v0), expr.Value(v1)
		if r.Intn(2) == 0 {
			first, second = second, first
			fv, sv = sv, fv
		}
		mid, err := Resume(p, b.Residual, map[int]expr.Value{first: fv}, &nextB)
		if err != nil || mid.Done {
			return false
		}
		fin, err := Resume(p, mid.Residual, map[int]expr.Value{second: sv}, &nextB)
		if err != nil || !fin.Done {
			return false
		}
		return fin.Value.Equal(batch.Value) && fin.Value.Equal(expr.VInt(goFib(n)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInstantiateClosesBody(t *testing.T) {
	p := Fib()
	body, err := p.Instantiate("fib", []expr.Value{expr.VInt(30)})
	if err != nil {
		t.Fatal(err)
	}
	if fv := expr.FreeVars(body); len(fv) != 0 {
		t.Fatalf("instantiated body has free vars %v", fv)
	}
	if _, err := p.Instantiate("fib", nil); err == nil {
		t.Error("Instantiate accepted wrong arity")
	}
	if _, err := p.Instantiate("nosuch", nil); err == nil {
		t.Error("Instantiate accepted unknown function")
	}
}
