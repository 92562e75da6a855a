package lang

import (
	"fmt"
	"strings"

	"repro/internal/expr"
)

// This file is the pluggable evaluation API. The machine (and the live and
// net backends) no longer call Flatten/Resume on ASTs directly: they pick an
// Evaluator by name, compile each submitted program once at Open/admission
// time, and drive the compiled form. There are two:
//
//	interp   — the tree-walking partial reducer (the reference semantics)
//	compiled — a register-bytecode VM (compile.go / vm.go)
//
// Every evaluator must preserve the partial-reduction contract exactly:
// the same Outcome shape, the same Demands order, the same Steps counts,
// and the same hole/fill semantics on Resume — so event traces, golden
// fingerprints, and EXPERIMENTS.md are byte-identical whichever evaluator
// runs. FuzzCompiledVsInterp and the golden-trace tests pin this.

// TaskState is the opaque per-task evaluation state an EvalProgram threads
// between passes: the blocked residual of a task plus whatever bookkeeping
// the evaluator keeps alongside it. A nil TaskState means "no pass has run
// yet" — the machine's cue to call Flatten instead of Resume — so blocked
// states are always non-nil.
type TaskState = any

// Evaluator turns validated programs into executable form. Implementations
// are stateless handles (safe for concurrent use) and may memoize
// compilation by program identity: programs are immutable once built.
type Evaluator interface {
	// Name is the name EvaluatorByName resolves ("interp", "compiled").
	Name() string
	// Compile lowers a validated program. It is called once per program at
	// Open/admission time, never on the per-task hot path.
	Compile(p *Program) (EvalProgram, error)
}

// EvalProgram is one compiled program: the per-task evaluation entry points
// the machine drives. Implementations must be safe for concurrent use by
// independent tasks (the live and net backends evaluate on real threads);
// the TaskState values they return are single-task and not shared.
type EvalProgram interface {
	// Flatten runs the first reduction pass of fn(args): reduce until
	// blocked on function applications, which become Demands. nextID is the
	// task's demand counter (persists across passes; determinacy makes hole
	// IDs identical across re-executions of the same packet). The returned
	// TaskState is nil when the Outcome is Done.
	Flatten(fn string, args []expr.Value, nextID *int) (Outcome, TaskState, error)
	// Resume fills holes in a blocked task's state and reduces again.
	// Unfilled holes remain blocked without re-demanding.
	Resume(st TaskState, fills map[int]expr.Value, nextID *int) (Outcome, TaskState, error)
	// RootState is the state of a pseudo-task blocked on a single bare hole
	// — the super-root that demands a submitted request's root application
	// and resumes when its answer arrives.
	RootState(holeID int) TaskState
	// Source is the program this was compiled from.
	Source() *Program
}

// DefaultEvaluator is the evaluator the machine uses when none is named.
const DefaultEvaluator = "interp"

// evaluators is the closed set of evaluators, in the sorted order that
// Evaluators, the -eval help strings and the unknown-name error all show.
var evaluators = []Evaluator{newVMEvaluator(), interpEvaluator{}}

// Evaluators lists the evaluator names in sorted order.
func Evaluators() []string {
	names := make([]string, len(evaluators))
	for i, e := range evaluators {
		names[i] = e.Name()
	}
	return names
}

// EvaluatorByName resolves an evaluator; the error text lists the known
// names so callers can surface it verbatim.
func EvaluatorByName(name string) (Evaluator, error) {
	for _, e := range evaluators {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("lang: unknown evaluator %q (known: %s)", name, strings.Join(Evaluators(), ", "))
}

// --- interp: the tree-walking reference evaluator ---

// interpEvaluator adapts the existing tree-walking partial reducer to the
// Evaluator API. "Compilation" is the identity: the compiled form holds the
// program and the TaskState is the residual expression itself.
type interpEvaluator struct{}

// Name implements Evaluator.
func (interpEvaluator) Name() string { return "interp" }

// Compile implements Evaluator.
func (interpEvaluator) Compile(p *Program) (EvalProgram, error) {
	return interpProgram{prog: p}, nil
}

// interpProgram is a program under the tree-walker.
type interpProgram struct{ prog *Program }

// Flatten implements EvalProgram: instantiate the definition body and run
// the free-function Flatten over the AST.
func (ip interpProgram) Flatten(fn string, args []expr.Value, nextID *int) (Outcome, TaskState, error) {
	body, err := ip.prog.Instantiate(fn, args)
	if err != nil {
		return Outcome{}, nil, err
	}
	out, err := Flatten(ip.prog, body, nextID)
	if err != nil || out.Done {
		return out, nil, err
	}
	return out, out.Residual, nil
}

// Resume implements EvalProgram.
func (ip interpProgram) Resume(st TaskState, fills map[int]expr.Value, nextID *int) (Outcome, TaskState, error) {
	out, err := Resume(ip.prog, st.(expr.Expr), fills, nextID)
	if err != nil || out.Done {
		return out, nil, err
	}
	return out, out.Residual, nil
}

// Source implements EvalProgram.
func (ip interpProgram) Source() *Program { return ip.prog }

// RootState implements EvalProgram: a bare hole expression.
func (ip interpProgram) RootState(holeID int) TaskState { return expr.Hole{ID: holeID} }
