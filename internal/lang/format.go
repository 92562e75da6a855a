package lang

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
)

// Format renders a program back into the concrete syntax accepted by Parse.
// It is the form programs travel in (the net backend ships this text to its
// node processes), so parsing it back yields the identical tree for every
// tree Parse can produce: an operator prints infix only with exactly two
// operands, and a variadic + * and or node of any other arity prints in call
// form, +(a, b, c), which Parse reads back n-ary. The two literals only a
// hand-built AST can hold — a non-empty list and a negative integer — come
// back desugared (cons chain, neg) with the same meaning. Functions are
// emitted in sorted-name order.
func Format(p *Program) string {
	var b strings.Builder
	for i, name := range p.Names() {
		d, _ := p.Func(name)
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString("fn ")
		b.WriteString(d.Name)
		b.WriteByte('(')
		b.WriteString(strings.Join(d.Params, ", "))
		b.WriteString(") = ")
		b.WriteString(FormatExpr(d.Body))
		b.WriteByte('\n')
	}
	return b.String()
}

// Operator precedence levels, loosest binding first.
const (
	precExpr = iota // if / let bodies
	precOr
	precAnd
	precCmp
	precAdd
	precMul
	precUnary
	precCons
	precAtom
)

// infixOps is the one table of the infix operators: primitive name to
// (token, binding level). Format parenthesises by it and the parser climbs
// it (parseInfix).
var infixOps = map[string]struct {
	sym  string
	prec int
}{
	"or": {"||", precOr}, "and": {"&&", precAnd},
	"==": {"==", precCmp}, "!=": {"!=", precCmp},
	"<": {"<", precCmp}, "<=": {"<=", precCmp},
	">": {">", precCmp}, ">=": {">=", precCmp},
	"+": {"+", precAdd}, "-": {"-", precAdd},
	"*": {"*", precMul}, "/": {"/", precMul}, "%": {"%", precMul},
}

// FormatExpr renders one expression in parseable syntax.
func FormatExpr(e expr.Expr) string {
	return formatPrec(e, precExpr)
}

func formatPrec(e expr.Expr, min int) string {
	s, prec := format1(e)
	if prec < min {
		return "(" + s + ")"
	}
	return s
}

// format1 renders e and reports its natural precedence.
func format1(e expr.Expr) (string, int) {
	switch n := e.(type) {
	case expr.Lit:
		return formatValue(n.V)
	case expr.Var:
		return n.Name, precAtom
	case expr.Hole:
		// Holes never appear in source programs; render them loudly so a
		// formatted residual is recognizable (it will not reparse).
		return fmt.Sprintf("⟨%d⟩", n.ID), precAtom
	case expr.If:
		return fmt.Sprintf("if %s then %s else %s",
			formatPrec(n.Cond, precExpr),
			formatPrec(n.Then, precExpr),
			formatPrec(n.Else, precExpr)), precExpr
	case expr.Let:
		return fmt.Sprintf("let %s = %s in %s",
			n.Name,
			formatPrec(n.Bind, precExpr),
			formatPrec(n.Body, precExpr)), precExpr
	case expr.Apply:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = formatPrec(a, precExpr)
		}
		return n.Fn + "(" + strings.Join(args, ", ") + ")", precAtom
	case expr.Prim:
		return formatPrim(n)
	default:
		return fmt.Sprintf("/*%T*/", e), precAtom
	}
}

func formatPrim(n expr.Prim) (string, int) {
	if op, ok := infixOps[n.Op]; ok && len(n.Args) == 2 {
		lmin := op.prec
		if op.prec == precCmp {
			// Comparisons are non-associative in the grammar (one per
			// level), so a comparison operand needs parentheses on the
			// left as well: (a < b) == c, never a < b == c.
			lmin = op.prec + 1
		}
		// The right operand binds one level tighter: the operators are
		// left associative, so 10-(3-2) keeps its parentheses.
		return formatPrec(n.Args[0], lmin) + " " + op.sym + " " + formatPrec(n.Args[1], op.prec+1), op.prec
	}
	switch n.Op {
	case "neg":
		return "-" + formatPrec(n.Args[0], precUnary), precUnary
	case "not":
		return "!" + formatPrec(n.Args[0], precUnary), precUnary
	case "cons":
		// Right associative: h : t.
		return formatPrec(n.Args[0], precCons+1) + " : " + formatPrec(n.Args[1], precCons), precCons
	case "unit":
		return "unit()", precAtom
	default:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = formatPrec(a, precExpr)
		}
		return n.Op + "(" + strings.Join(args, ", ") + ")", precAtom
	}
}

func formatValue(v expr.Value) (string, int) {
	switch x := v.(type) {
	case expr.VInt:
		if x < 0 {
			return strconv.FormatInt(int64(x), 10), precUnary
		}
		return strconv.FormatInt(int64(x), 10), precAtom
	case expr.VBool:
		return strconv.FormatBool(bool(x)), precAtom
	case expr.VStr:
		return strconv.Quote(string(x)), precAtom
	case expr.VList:
		elems := x.Elems()
		parts := make([]string, len(elems))
		for i, e := range elems {
			s, _ := formatValue(e)
			parts[i] = s
		}
		return "[" + strings.Join(parts, ", ") + "]", precAtom
	case expr.VUnit:
		return "unit()", precAtom
	default:
		return fmt.Sprintf("/*%T*/", v), precAtom
	}
}
