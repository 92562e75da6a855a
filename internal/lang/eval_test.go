package lang

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/expr"
)

// mustCompile compiles prog under the named evaluator or fails the test.
func mustCompile(t testing.TB, name string, prog *Program) EvalProgram {
	t.Helper()
	ev, err := EvaluatorByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := ev.Compile(prog)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	return ep
}

// errBudget aborts a lock-step run that outgrew the task budget (fuzz inputs
// can demand large call trees; parity was still checked on every pass run).
var errBudget = errors.New("task budget exhausted")

// twinRun evaluates fn(args) on two compiled programs lock-step, asserting
// after every pass that the outcomes agree in Done, Value, Steps, demand
// order, and the task's demand counter. Each demand is evaluated recursively
// as its own twin task (mirroring the machine's task tree) and filled one
// result at a time — which also exercises the partial-fill Resume paths the
// machine itself never takes.
func twinRun(t testing.TB, iEP, cEP EvalProgram, fn string, args []expr.Value, budget *int) (expr.Value, error) {
	t.Helper()
	*budget--
	if *budget < 0 {
		return nil, errBudget
	}
	var iNext, cNext int
	iOut, iSt, iErr := iEP.Flatten(fn, args, &iNext)
	cOut, cSt, cErr := cEP.Flatten(fn, args, &cNext)
	compareErrs(t, fn, "flatten", iErr, cErr)
	if iErr != nil {
		return nil, iErr
	}
	compareOutcomes(t, fn, "flatten", iOut, cOut, iNext, cNext)
	pending := append([]Demand(nil), iOut.Demands...)
	for !iOut.Done {
		if len(pending) == 0 {
			t.Fatalf("%s: blocked with no pending demands", fn)
		}
		d := pending[0]
		pending = pending[1:]
		v, err := twinRun(t, iEP, cEP, d.Fn, d.Args, budget)
		if err != nil {
			return nil, err // child failed: the machine never resumes the parent
		}
		fills := map[int]expr.Value{d.ID: v}
		iOut, iSt, iErr = iEP.Resume(iSt, fills, &iNext)
		cOut, cSt, cErr = cEP.Resume(cSt, fills, &cNext)
		compareErrs(t, fn, "resume", iErr, cErr)
		if iErr != nil {
			return nil, iErr
		}
		compareOutcomes(t, fn, "resume", iOut, cOut, iNext, cNext)
		pending = append(pending, iOut.Demands...)
	}
	return iOut.Value, nil
}

func compareErrs(t testing.TB, fn, phase string, iErr, cErr error) {
	t.Helper()
	switch {
	case iErr == nil && cErr == nil:
	case iErr == nil || cErr == nil:
		t.Fatalf("%s %s: error divergence: interp=%v compiled=%v", fn, phase, iErr, cErr)
	case iErr.Error() != cErr.Error():
		t.Fatalf("%s %s: error text divergence:\n interp:   %v\n compiled: %v", fn, phase, iErr, cErr)
	}
}

func compareOutcomes(t testing.TB, fn, phase string, iOut, cOut Outcome, iNext, cNext int) {
	t.Helper()
	if iOut.Done != cOut.Done {
		t.Fatalf("%s %s: Done divergence: interp=%v compiled=%v", fn, phase, iOut.Done, cOut.Done)
	}
	if iOut.Steps != cOut.Steps {
		t.Fatalf("%s %s: Steps divergence: interp=%d compiled=%d", fn, phase, iOut.Steps, cOut.Steps)
	}
	if iNext != cNext {
		t.Fatalf("%s %s: demand counter divergence: interp=%d compiled=%d", fn, phase, iNext, cNext)
	}
	if iOut.Done {
		if !iOut.Value.Equal(cOut.Value) {
			t.Fatalf("%s %s: value divergence: interp=%v compiled=%v", fn, phase, iOut.Value, cOut.Value)
		}
		return
	}
	if len(iOut.Demands) != len(cOut.Demands) {
		t.Fatalf("%s %s: demand count divergence: interp=%v compiled=%v", fn, phase, iOut.Demands, cOut.Demands)
	}
	for i := range iOut.Demands {
		di, dc := iOut.Demands[i], cOut.Demands[i]
		if di.ID != dc.ID || di.Fn != dc.Fn || len(di.Args) != len(dc.Args) {
			t.Fatalf("%s %s: demand %d divergence: interp=%+v compiled=%+v", fn, phase, i, di, dc)
		}
		for j := range di.Args {
			if !di.Args[j].Equal(dc.Args[j]) {
				t.Fatalf("%s %s: demand %d arg %d divergence: interp=%v compiled=%v",
					fn, phase, i, j, di.Args[j], dc.Args[j])
			}
		}
	}
}

// twinCase runs one program lock-step on both evaluators and checks the
// final answer against the reference evaluator.
func twinCase(t testing.TB, prog *Program, fn string, args []expr.Value) {
	t.Helper()
	iEP := mustCompile(t, "interp", prog)
	cEP := mustCompile(t, "compiled", prog)
	budget := 200000
	v, err := twinRun(t, iEP, cEP, fn, args, &budget)
	if err != nil {
		if errors.Is(err, errBudget) {
			t.Fatalf("%s: task budget exhausted", fn)
		}
		t.Fatalf("%s: %v", fn, err)
	}
	want, err := RefEval(prog, fn, args)
	if err != nil {
		t.Fatalf("%s: RefEval: %v", fn, err)
	}
	if !v.Equal(want) {
		t.Fatalf("%s: answer %v != reference %v", fn, v, want)
	}
}

// TestCompiledMatchesInterpOnStdPrograms locks the bytecode VM to the
// tree-walker across every standard workload program: identical values,
// steps, and demand sequences on every pass of every task in the tree.
func TestCompiledMatchesInterpOnStdPrograms(t *testing.T) {
	ints := func(vs ...int64) []expr.Value {
		out := make([]expr.Value, len(vs))
		for i, v := range vs {
			out[i] = expr.VInt(v)
		}
		return out
	}
	list := func(vs ...int64) expr.Value {
		l := expr.VList{}
		for i := len(vs) - 1; i >= 0; i-- {
			l = l.Cons(expr.VInt(vs[i]))
		}
		return l
	}
	cases := []struct {
		name string
		prog *Program
		fn   string
		args []expr.Value
	}{
		{"fib", Fib(), "fib", ints(10)},
		{"tak", Tak(), "tak", ints(6, 4, 2)},
		{"sumrange", SumRange(4), "sumrange", ints(0, 40)},
		{"binom", Binomial(), "binom", ints(9, 4)},
		{"nqueens", NQueens(), "nqueens", ints(5)},
		{"msort", MergeSort(), "msort", []expr.Value{list(9, 4, 7, 1, 8, 2, 6, 3, 5)}},
		{"tree", TreeSum(3), "tree", ints(4)},
		{"critical", CriticalSections(4, 3), "main", nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) { twinCase(t, c.prog, c.fn, c.args) })
	}
}

// TestCompiledRootStateMatchesInterp pins the super-root pseudo-task: both
// evaluators resume a bare-hole state in one step to the filled answer, and
// leave it blocked when the fill is missing.
func TestCompiledRootStateMatchesInterp(t *testing.T) {
	prog := Fib()
	for _, name := range []string{"interp", "compiled"} {
		ep := mustCompile(t, name, prog)
		next := 1
		out, st, err := ep.Resume(ep.RootState(0), map[int]expr.Value{0: expr.VInt(42)}, &next)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Done || out.Steps != 1 || !out.Value.Equal(expr.VInt(42)) || st != nil {
			t.Fatalf("%s: filled root resume = %+v (state %v), want Done in 1 step", name, out, st)
		}
		next = 1
		out, st, err = ep.Resume(ep.RootState(0), map[int]expr.Value{}, &next)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Done || out.Steps != 1 || len(out.Demands) != 0 || st == nil {
			t.Fatalf("%s: unfilled root resume = %+v, want blocked in 1 step with no demands", name, out)
		}
	}
}

// TestCompiledErrorParity pins runtime error text across evaluators for the
// failures Validate cannot rule out statically.
func TestCompiledErrorParity(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
		fn   string
		args []expr.Value
	}{
		{"div-by-zero", MustProgram(FuncDef{Name: "f", Params: []string{"n"},
			Body: expr.Op("/", expr.Int(1), expr.V("n"))}), "f", []expr.Value{expr.VInt(0)}},
		{"if-not-bool", MustProgram(FuncDef{Name: "f", Params: []string{"n"},
			Body: expr.Cond(expr.V("n"), expr.Int(1), expr.Int(2))}), "f", []expr.Value{expr.VInt(0)}},
		{"type-error", MustProgram(FuncDef{Name: "f", Params: []string{"n"},
			Body: expr.Op("+", expr.V("n"), expr.Bool(true))}), "f", []expr.Value{expr.VInt(0)}},
		{"head-of-empty", MustProgram(FuncDef{Name: "f",
			Body: expr.Op("head", expr.Nil())}), "f", nil},
		{"undefined-fn", Fib(), "nope", nil},
		{"bad-arity", Fib(), "fib", nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			iEP := mustCompile(t, "interp", c.prog)
			cEP := mustCompile(t, "compiled", c.prog)
			var iNext, cNext int
			_, _, iErr := iEP.Flatten(c.fn, c.args, &iNext)
			_, _, cErr := cEP.Flatten(c.fn, c.args, &cNext)
			if iErr == nil {
				t.Fatalf("expected an error from %s", c.name)
			}
			compareErrs(t, c.fn, "flatten", iErr, cErr)
			if !errors.Is(iErr, ErrEval) || !errors.Is(cErr, ErrEval) {
				t.Fatalf("errors must wrap ErrEval: interp=%v compiled=%v", iErr, cErr)
			}
		})
	}
}

// TestEvaluatorRegistry pins the evaluator vocabulary, its sorted order and
// the unknown-name error text.
func TestEvaluatorRegistry(t *testing.T) {
	want := []string{"compiled", "interp"}
	got := Evaluators()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Evaluators() = %v, want %v", got, want)
	}
	if ev, err := EvaluatorByName(DefaultEvaluator); err != nil || ev.Name() != "interp" {
		t.Fatalf("default evaluator %q must resolve to interp: %v", DefaultEvaluator, err)
	}
	if _, err := EvaluatorByName("nope"); err == nil ||
		err.Error() != `lang: unknown evaluator "nope" (known: compiled, interp)` {
		t.Fatalf("unknown-evaluator error text: %v", err)
	}
}

// TestCompileMemoized pins the once-per-program contract: compiling the same
// program twice returns the identical compiled form.
func TestCompileMemoized(t *testing.T) {
	ev, err := EvaluatorByName("compiled")
	if err != nil {
		t.Fatal(err)
	}
	prog := Fib()
	a, err := ev.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.(*cprog) != b.(*cprog) {
		t.Fatal("compiled form not memoized by program identity")
	}
}

// TestCountCallsPinned pins the deduplicated CountCalls (now a hook on the
// single reference evaluator) on the canonical call trees.
func TestCountCallsPinned(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
		fn   string
		args []expr.Value
		want int64
	}{
		{"fib(10)", Fib(), "fib", []expr.Value{expr.VInt(10)}, 177},
		{"tree2(4)", TreeSum(2), "tree", []expr.Value{expr.VInt(4)}, 31},
		{"tree3(3)", TreeSum(3), "tree", []expr.Value{expr.VInt(3)}, 40},
		{"tak(6,4,2)", Tak(), "tak", []expr.Value{expr.VInt(6), expr.VInt(4), expr.VInt(2)}, 53},
	}
	for _, c := range cases {
		got, err := CountCalls(c.prog, c.fn, c.args)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("CountCalls %s = %d, want %d", c.name, got, c.want)
		}
	}
}
