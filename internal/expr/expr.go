// Package expr defines the abstract syntax and value domain of the strict,
// first-order applicative language executed by the simulated multiprocessor.
//
// The language is deliberately side-effect free: programs are determinate
// (referentially transparent), which is the property §2.1 of the paper
// relies on — any invocation of a function application with the same
// arguments yields the same result, so a retained task packet is a complete
// checkpoint.
//
// Expressions are immutable once built; evaluation never mutates an Expr, it
// produces new residual expressions. Values are likewise immutable and may
// be freely shared between simulated processors (the simulation models a
// partitioned-memory machine, so sharing is a simulation convenience, not a
// semantic channel).
package expr

import (
	"fmt"
	"strings"
)

// Expr is an expression of the applicative language.
type Expr interface {
	isExpr()
	// String renders source-like text, used in traces and error messages.
	String() string
}

// Lit is a literal value.
type Lit struct{ V Value }

// Var is a reference to a let- or parameter-bound name.
type Var struct{ Name string }

// Prim applies a strict primitive operator (arithmetic, comparison, list
// construction and access...) to argument expressions.
type Prim struct {
	Op   string
	Args []Expr
}

// If is the conditional special form: only the condition is strict.
type If struct{ Cond, Then, Else Expr }

// Let binds Name to the value of Bind within Body. Bind is strict.
type Let struct {
	Name string
	Bind Expr
	Body Expr
}

// Apply is the application of a named, program-defined function to argument
// expressions. Applications are the task-spawn points of the machine: §2.1
// identifies "when a parent task spawns a child function" as the functional
// checkpoint moment.
type Apply struct {
	Fn   string
	Args []Expr
}

// Hole is a placeholder for the not-yet-available result of a spawned child
// task. Holes never appear in source programs; the interpreter introduces
// them when it suspends an evaluation (the residual expression of a blocked
// task), and fills them when result packets arrive.
type Hole struct{ ID int }

func (Lit) isExpr()   {}
func (Var) isExpr()   {}
func (Prim) isExpr()  {}
func (If) isExpr()    {}
func (Let) isExpr()   {}
func (Apply) isExpr() {}
func (Hole) isExpr()  {}

func (e Lit) String() string { return e.V.String() }
func (e Var) String() string { return e.Name }

func (e Prim) String() string {
	var b strings.Builder
	b.WriteString(e.Op)
	b.WriteByte('(')
	for i, a := range e.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (e If) String() string {
	return fmt.Sprintf("if %s then %s else %s", e.Cond, e.Then, e.Else)
}

func (e Let) String() string {
	return fmt.Sprintf("let %s = %s in %s", e.Name, e.Bind, e.Body)
}

func (e Apply) String() string {
	var b strings.Builder
	b.WriteString(e.Fn)
	b.WriteByte('(')
	for i, a := range e.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (e Hole) String() string { return fmt.Sprintf("⟨%d⟩", e.ID) }

// Convenience constructors keep program definitions readable.

// Int builds an integer literal expression.
func Int(v int64) Expr { return Lit{VInt(v)} }

// Bool builds a boolean literal expression.
func Bool(v bool) Expr { return Lit{VBool(v)} }

// Str builds a string literal expression.
func Str(v string) Expr { return Lit{VStr(v)} }

// Nil builds an empty-list literal expression.
func Nil() Expr { return Lit{VList{}} }

// V builds a variable reference.
func V(name string) Expr { return Var{name} }

// Op builds a primitive application.
func Op(op string, args ...Expr) Expr { return Prim{Op: op, Args: args} }

// Call builds a function application.
func Call(fn string, args ...Expr) Expr { return Apply{Fn: fn, Args: args} }

// Cond builds a conditional.
func Cond(c, t, e Expr) Expr { return If{Cond: c, Then: t, Else: e} }

// LetIn builds a let binding.
func LetIn(name string, bind, body Expr) Expr { return Let{Name: name, Bind: bind, Body: body} }

// HoleIDs returns the IDs of all holes in e, in left-to-right order,
// without duplicates.
func HoleIDs(e Expr) []int {
	var out []int
	seen := map[int]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case Hole:
			if !seen[n.ID] {
				seen[n.ID] = true
				out = append(out, n.ID)
			}
		case Prim:
			for _, a := range n.Args {
				walk(a)
			}
		case If:
			walk(n.Cond)
			walk(n.Then)
			walk(n.Else)
		case Let:
			walk(n.Bind)
			walk(n.Body)
		case Apply:
			for _, a := range n.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

// FreeVars returns the free variable names of e in first-occurrence order.
func FreeVars(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Expr, map[string]bool)
	walk = func(e Expr, bound map[string]bool) {
		switch n := e.(type) {
		case Var:
			if !bound[n.Name] && !seen[n.Name] {
				seen[n.Name] = true
				out = append(out, n.Name)
			}
		case Prim:
			for _, a := range n.Args {
				walk(a, bound)
			}
		case If:
			walk(n.Cond, bound)
			walk(n.Then, bound)
			walk(n.Else, bound)
		case Let:
			walk(n.Bind, bound)
			if bound[n.Name] {
				walk(n.Body, bound)
			} else {
				bound[n.Name] = true
				walk(n.Body, bound)
				delete(bound, n.Name)
			}
		case Apply:
			for _, a := range n.Args {
				walk(a, bound)
			}
		}
	}
	walk(e, map[string]bool{})
	return out
}
