package lang

import (
	"fmt"

	"repro/internal/expr"
)

// Demand is a function application that must be evaluated as a child task
// before the blocked parent can continue. It corresponds one-to-one with a
// task packet: §2.1 — "A task packet is formed for the new function and then
// waits for execution."
type Demand struct {
	// ID is the hole the child's result fills; it doubles as the level-stamp
	// component appended for the child (§3.1).
	ID int
	Fn string
	// Index is Fn's index in the program's function table
	// (Program.FuncIndex), the form a task packet carries it in.
	Index int32
	Args  []expr.Value
}

// Outcome is the result of one Flatten pass over a task's expression.
type Outcome struct {
	// Done is true when the expression reduced to a value.
	Done bool
	// Value holds the result when Done.
	Value expr.Value
	// Residual is the blocked expression containing holes when !Done.
	Residual expr.Expr
	// Demands lists the child applications to spawn, in hole order.
	Demands []Demand
	// Steps counts reduction steps performed; the machine charges
	// Steps × StepCost of virtual compute time for the pass.
	Steps int
}

// flattener carries the mutable pass state.
type flattener struct {
	prog    *Program
	nextID  *int
	demands []Demand
	steps   int
}

// Flatten reduces e as far as possible without the values of outstanding
// holes. nextID is the task's demand counter; it persists across passes so
// hole IDs are unique within the task and — because the language is
// determinate — identical across re-executions of the same packet.
//
// The returned Outcome either carries a final value or a residual expression
// plus the new demands discovered in this pass. Holes already present in e
// (from earlier passes, still unfilled) remain in the residual without
// generating new demands.
func Flatten(prog *Program, e expr.Expr, nextID *int) (Outcome, error) {
	f := &flattener{prog: prog, nextID: nextID}
	red, _, err := f.reduce(e)
	if err != nil {
		return Outcome{}, err
	}
	if lit, ok := red.(expr.Lit); ok {
		return Outcome{Done: true, Value: lit.V, Steps: f.steps}, nil
	}
	return Outcome{Residual: red, Demands: f.demands, Steps: f.steps}, nil
}

// reduce returns a reduced expression: either a Lit or a blocked expression
// containing holes. Every invocation accounts one step. Expressions are
// immutable, so reduce shares unchanged subtrees instead of rebuilding them
// (the hot resume passes re-walk residuals in which most nodes are already
// irreducible); the changed flag reports whether the result differs from e,
// so parents can share too. Allocation happens only where reduction makes
// progress.
func (f *flattener) reduce(e expr.Expr) (expr.Expr, bool, error) {
	f.steps++
	switch n := e.(type) {
	case expr.Lit:
		return n, false, nil
	case expr.Hole:
		return n, false, nil
	case expr.Var:
		// Instantiate substitutes parameters and Let substitutes bindings
		// before their bodies are reduced, so a Var here is a bug in the
		// program or the interpreter.
		return nil, false, fmt.Errorf("%w: unbound variable %q at reduction time", ErrEval, n.Name)
	case expr.Prim:
		args, argsChanged, blocked, err := f.reduceArgs(n.Args)
		if err != nil {
			return nil, false, err
		}
		if blocked {
			if !argsChanged {
				return e, false, nil // nothing reduced: share the node
			}
			return expr.Prim{Op: n.Op, Args: args}, true, nil
		}
		vals := make([]expr.Value, len(args))
		for i, a := range args {
			vals[i] = a.(expr.Lit).V
		}
		v, err := applyPrim(n.Op, vals)
		if err != nil {
			return nil, false, err
		}
		return expr.Lit{V: v}, true, nil
	case expr.If:
		c, cc, err := f.reduce(n.Cond)
		if err != nil {
			return nil, false, err
		}
		lit, ok := c.(expr.Lit)
		if !ok {
			// Condition blocked: branches stay unreduced (non-strict) until
			// the condition value arrives.
			if !cc {
				return e, false, nil
			}
			return expr.If{Cond: c, Then: n.Then, Else: n.Else}, true, nil
		}
		b, ok := lit.V.(expr.VBool)
		if !ok {
			return nil, false, fmt.Errorf("%w: if condition is %s, not bool", ErrEval, expr.TypeName(lit.V))
		}
		// Committing to a branch always changes the node.
		var r expr.Expr
		if b {
			r, _, err = f.reduce(n.Then)
		} else {
			r, _, err = f.reduce(n.Else)
		}
		return r, true, err
	case expr.Let:
		bind, bc, err := f.reduce(n.Bind)
		if err != nil {
			return nil, false, err
		}
		if lit, ok := bind.(expr.Lit); ok {
			r, _, err := f.reduce(expr.Subst(n.Body, n.Name, lit.V))
			return r, true, err
		}
		// Bind blocked: keep the body unreduced behind the binder.
		if !bc {
			return e, false, nil
		}
		return expr.Let{Name: n.Name, Bind: bind, Body: n.Body}, true, nil
	case expr.Apply:
		args, argsChanged, blocked, err := f.reduceArgs(n.Args)
		if err != nil {
			return nil, false, err
		}
		if blocked {
			// Arguments themselves contain demands or unfilled holes; the
			// application waits for them before becoming a demand itself.
			if !argsChanged {
				return e, false, nil
			}
			return expr.Apply{Fn: n.Fn, Args: args}, true, nil
		}
		// All arguments are values: this application becomes a child task.
		// DEMAND_IT (§4.2): create a task packet, level-stamp it, checkpoint
		// it — the machine does the last three; we record the demand.
		vals := make([]expr.Value, len(args))
		for i, a := range args {
			vals[i] = a.(expr.Lit).V
		}
		idx, ok := f.prog.FuncIndex(n.Fn)
		if !ok {
			return nil, false, fmt.Errorf("%w: undefined function %q", ErrEval, n.Fn)
		}
		id := *f.nextID
		*f.nextID = id + 1
		f.demands = append(f.demands, Demand{ID: id, Fn: n.Fn, Index: int32(idx), Args: vals})
		return expr.Hole{ID: id}, true, nil
	default:
		return nil, false, fmt.Errorf("%w: unknown node %T", ErrEval, e)
	}
}

// reduceArgs reduces an argument list copy-on-write: the input slice is
// returned untouched (changed=false) when no argument made progress, and
// blocked reports whether any reduced argument is still not a literal.
func (f *flattener) reduceArgs(in []expr.Expr) (out []expr.Expr, changed, blocked bool, err error) {
	out = in
	for i, a := range in {
		r, rc, err := f.reduce(a)
		if err != nil {
			return nil, false, false, err
		}
		if rc && !changed {
			fresh := make([]expr.Expr, len(in))
			copy(fresh, in[:i])
			out, changed = fresh, true
		}
		if changed {
			out[i] = r
		}
		if _, ok := r.(expr.Lit); !ok {
			blocked = true
		}
	}
	return out, changed, blocked, nil
}

// Resume fills holes in a residual expression and flattens again. It is the
// processing a waiting task performs when the last outstanding result
// arrives ("Place data at the location indicated by the level stamp. If a
// task can be continued, resume the task." — §4.2).
func Resume(prog *Program, residual expr.Expr, fills map[int]expr.Value, nextID *int) (Outcome, error) {
	return Flatten(prog, expr.FillHoles(residual, fills), nextID)
}
