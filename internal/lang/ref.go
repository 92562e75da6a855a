package lang

import (
	"fmt"

	"repro/internal/expr"
)

// RefEval is the reference sequential evaluator: a direct recursive
// interpreter with an environment. It defines the meaning of programs and
// serves as the oracle for the distributed machine — determinacy (§2.1)
// demands the machine produce exactly this value under every schedule,
// placement, and fault plan.
func RefEval(prog *Program, fn string, args []expr.Value) (expr.Value, error) {
	return refRun(prog, fn, args, nil)
}

// refRun drives one reference evaluation of fn(args), invoking onApply (when
// non-nil) at every function application including the root.
func refRun(prog *Program, fn string, args []expr.Value, onApply func(fn string)) (expr.Value, error) {
	d, ok := prog.Func(fn)
	if !ok {
		return nil, fmt.Errorf("%w: undefined function %q", ErrEval, fn)
	}
	if len(args) != len(d.Params) {
		return nil, fmt.Errorf("%w: %q expects %d args, got %d", ErrEval, fn, len(d.Params), len(args))
	}
	env := make(map[string]expr.Value, len(d.Params))
	for i, p := range d.Params {
		env[p] = args[i]
	}
	if onApply != nil {
		onApply(fn) // the root application itself
	}
	r := &refEvaluator{prog: prog, onApply: onApply}
	return r.eval(d.Body, env, 0)
}

// maxRefDepth bounds recursion so a buggy program fails loudly instead of
// overflowing the goroutine stack.
const maxRefDepth = 1 << 17

// refEvaluator carries the per-run hook so RefEval and the tests' call
// counter share one interpreter instead of two divergent copies.
type refEvaluator struct {
	prog    *Program
	onApply func(fn string) // nil when nobody is counting
}

func (r *refEvaluator) eval(e expr.Expr, env map[string]expr.Value, depth int) (expr.Value, error) {
	if depth > maxRefDepth {
		return nil, fmt.Errorf("%w: reference evaluator exceeded depth %d", ErrEval, maxRefDepth)
	}
	switch n := e.(type) {
	case expr.Lit:
		return n.V, nil
	case expr.Var:
		v, ok := env[n.Name]
		if !ok {
			return nil, fmt.Errorf("%w: unbound variable %q", ErrEval, n.Name)
		}
		return v, nil
	case expr.Hole:
		return nil, fmt.Errorf("%w: hole in source program", ErrEval)
	case expr.Prim:
		vals := make([]expr.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := r.eval(a, env, depth+1)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return applyPrim(n.Op, vals)
	case expr.If:
		c, err := r.eval(n.Cond, env, depth+1)
		if err != nil {
			return nil, err
		}
		b, ok := c.(expr.VBool)
		if !ok {
			return nil, fmt.Errorf("%w: if condition is %s, not bool", ErrEval, expr.TypeName(c))
		}
		if b {
			return r.eval(n.Then, env, depth+1)
		}
		return r.eval(n.Else, env, depth+1)
	case expr.Let:
		v, err := r.eval(n.Bind, env, depth+1)
		if err != nil {
			return nil, err
		}
		shadowed, had := env[n.Name]
		env[n.Name] = v
		out, err := r.eval(n.Body, env, depth+1)
		if had {
			env[n.Name] = shadowed
		} else {
			delete(env, n.Name)
		}
		return out, err
	case expr.Apply:
		vals := make([]expr.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := r.eval(a, env, depth+1)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		if r.onApply != nil {
			r.onApply(n.Fn)
		}
		d, ok := r.prog.Func(n.Fn)
		if !ok {
			return nil, fmt.Errorf("%w: undefined function %q", ErrEval, n.Fn)
		}
		callEnv := make(map[string]expr.Value, len(d.Params))
		for i, p := range d.Params {
			callEnv[p] = vals[i]
		}
		return r.eval(d.Body, callEnv, depth+1)
	default:
		return nil, fmt.Errorf("%w: unknown node %T", ErrEval, e)
	}
}
