package lang

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
)

// FuncDef is one named function of a program.
type FuncDef struct {
	Name   string
	Params []string
	Body   expr.Expr
}

// Program is a set of mutually recursive first-order function definitions.
// A Program is immutable after Validate succeeds and is shared read-only by
// every simulated processor, the way program code would be resident on every
// node of the machine.
//
// Its function table is the definitions in name order, so every node that
// holds the program's source derives the same index for each function
// (FuncIndex): a task packet names its function by that index.
type Program struct {
	defs  []FuncDef
	index map[string]int
}

// NewProgram builds a program from definitions. Duplicate names are
// rejected.
func NewProgram(defs ...FuncDef) (*Program, error) {
	p := &Program{defs: slices.Clone(defs), index: make(map[string]int, len(defs))}
	slices.SortFunc(p.defs, func(a, b FuncDef) int { return strings.Compare(a.Name, b.Name) })
	for i, d := range p.defs {
		if i > 0 && p.defs[i-1].Name == d.Name {
			return nil, fmt.Errorf("lang: duplicate function %q", d.Name)
		}
		if d.Body == nil {
			return nil, fmt.Errorf("lang: function %q has no body", d.Name)
		}
		p.index[d.Name] = i
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustProgram is NewProgram that panics on error; intended for the
// statically known standard programs.
func MustProgram(defs ...FuncDef) *Program {
	p, err := NewProgram(defs...)
	if err != nil {
		panic(err)
	}
	return p
}

// Func returns the definition of the named function.
func (p *Program) Func(name string) (FuncDef, bool) {
	i, ok := p.index[name]
	if !ok {
		return FuncDef{}, false
	}
	return p.defs[i], true
}

// FuncIndex returns the named function's index in the function table.
func (p *Program) FuncIndex(name string) (int, bool) {
	i, ok := p.index[name]
	return i, ok
}

// FuncName returns the name of the function at index i, if the table has one.
func (p *Program) FuncName(i int) (string, bool) {
	if i < 0 || i >= len(p.defs) {
		return "", false
	}
	return p.defs[i].Name, true
}

// CheckEntry validates a root application — the program exists and defines
// fn — with the one error text every backend's Submit reports. A nil
// receiver is the missing program.
func (p *Program) CheckEntry(fn string) error {
	if p == nil {
		return errors.New("lang: program required")
	}
	if _, ok := p.index[fn]; !ok {
		return fmt.Errorf("lang: entry function %q not in program", fn)
	}
	return nil
}

// Names returns the sorted function names.
func (p *Program) Names() []string {
	out := make([]string, len(p.defs))
	for i, d := range p.defs {
		out[i] = d.Name
	}
	return out
}

// Validate checks static sanity: every Apply targets a defined function with
// the right argument count, every Var is bound by a parameter or enclosing
// Let, primitives exist with plausible arity, and no Holes appear in source.
func (p *Program) Validate() error {
	for _, d := range p.defs {
		name := d.Name
		bound := map[string]bool{}
		for _, param := range d.Params {
			if bound[param] {
				return fmt.Errorf("lang: function %q: duplicate parameter %q", name, param)
			}
			bound[param] = true
		}
		if err := p.check(name, d.Body, bound); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) check(fn string, e expr.Expr, bound map[string]bool) error {
	switch n := e.(type) {
	case expr.Lit:
		return nil
	case expr.Hole:
		return fmt.Errorf("lang: function %q: hole in source program", fn)
	case expr.Var:
		if !bound[n.Name] {
			return fmt.Errorf("lang: function %q: unbound variable %q", fn, n.Name)
		}
		return nil
	case expr.Prim:
		prim, ok := primitives[n.Op]
		if !ok {
			return fmt.Errorf("lang: function %q: unknown primitive %q", fn, n.Op)
		}
		if prim.Arity >= 0 && len(n.Args) != prim.Arity {
			return fmt.Errorf("lang: function %q: %s expects %d args, got %d",
				fn, n.Op, prim.Arity, len(n.Args))
		}
		for _, a := range n.Args {
			if err := p.check(fn, a, bound); err != nil {
				return err
			}
		}
		return nil
	case expr.If:
		for _, sub := range []expr.Expr{n.Cond, n.Then, n.Else} {
			if err := p.check(fn, sub, bound); err != nil {
				return err
			}
		}
		return nil
	case expr.Let:
		if err := p.check(fn, n.Bind, bound); err != nil {
			return err
		}
		shadowed := bound[n.Name]
		bound[n.Name] = true
		err := p.check(fn, n.Body, bound)
		if !shadowed {
			delete(bound, n.Name)
		}
		return err
	case expr.Apply:
		callee, ok := p.Func(n.Fn)
		if !ok {
			return fmt.Errorf("lang: function %q: call to undefined function %q", fn, n.Fn)
		}
		if len(n.Args) != len(callee.Params) {
			return fmt.Errorf("lang: function %q: %q expects %d args, got %d",
				fn, n.Fn, len(callee.Params), len(n.Args))
		}
		for _, a := range n.Args {
			if err := p.check(fn, a, bound); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("lang: function %q: unknown node %T", fn, e)
	}
}

// Instantiate returns the body of fn with argument values substituted for
// parameters: the starting expression of a task executing the application
// fn(args). The result is closed (no free variables).
func (p *Program) Instantiate(fn string, args []expr.Value) (expr.Expr, error) {
	d, ok := p.Func(fn)
	if !ok {
		return nil, fmt.Errorf("%w: undefined function %q", ErrEval, fn)
	}
	if len(args) != len(d.Params) {
		return nil, fmt.Errorf("%w: %q expects %d args, got %d", ErrEval, fn, len(d.Params), len(args))
	}
	return expr.SubstMany(d.Body, d.Params, args), nil
}
