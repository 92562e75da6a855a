package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/expr"
)

// Parse reads a program in the concrete syntax used by cmd/apsim:
//
//	fn fib(n) = if n < 2 then n else fib(n-1) + fib(n-2)
//	fn main() = fib(16)
//
// Grammar (precedence climbing, loosest first):
//
//	program  := { "fn" ident "(" [params] ")" "=" expr }
//	expr     := ifexpr | letexpr | or
//	ifexpr   := "if" expr "then" expr "else" expr
//	letexpr  := "let" ident "=" expr "in" expr
//	or       := and { "||" and }
//	and      := cmp { "&&" cmp }
//	cmp      := add [ ("=="|"!="|"<"|"<="|">"|">=") add ]
//	add      := mul { ("+"|"-") mul }
//	mul      := unary { ("*"|"/"|"%") unary }
//	unary    := "-" unary | "!" unary | postfix
//	postfix  := atom { ":" postfix }          (cons, right associative)
//	atom     := int | "true" | "false" | string | "[" [expr {"," expr}] "]"
//	          | ident [ "(" [args] ")" ] | ("+"|"*") "(" [args] ")"
//	          | "(" expr ")"
//
// Identifiers applied with parentheses are primitive calls when the name is
// a known primitive (head, tail, isnil, len, append, abs, min, max, not,
// cons, unit, and, or) and user-function calls otherwise. An infix chain is
// nested binary applications, a + b + c = +(+(a, b), c); the call form of the
// variadic operators, +(a, b, c), *(a), and(a, b, c), is one n-ary
// application. Comments run from "#" or "//" to end of line.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var defs []FuncDef
	for !p.atEOF() {
		d, err := p.parseFn()
		if err != nil {
			return nil, err
		}
		defs = append(defs, d)
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("lang: parse: no function definitions")
	}
	return NewProgram(defs...)
}

// MustParse panics on error; for the bundled programs, whose source is
// fixed at build time.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// --- lexer ---

type tokKind int

const (
	tkEOF tokKind = iota
	tkIdent
	tkInt
	tkString
	tkPunct // operators and delimiters
)

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tkEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// puncts are matched longest-first.
var puncts = []string{
	"==", "!=", "<=", ">=", "&&", "||",
	"(", ")", "[", "]", ",", "+", "-", "*", "/", "%", "<", ">", "=", "!", ":",
}

func lex(src string) ([]token, error) {
	var out []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#' || (c == '/' && i+1 < len(src) && src[i+1] == '/'):
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && unicode.IsDigit(rune(src[j])) {
				j++
			}
			out = append(out, token{tkInt, src[i:j], line})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			out = append(out, token{tkIdent, src[i:j], line})
			i = j
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
					switch src[j] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					default:
						sb.WriteByte(src[j])
					}
				} else {
					sb.WriteByte(src[j])
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("lang: parse: line %d: unterminated string", line)
			}
			out = append(out, token{tkString, sb.String(), line})
			i = j + 1
		default:
			matched := false
			for _, p := range puncts {
				if strings.HasPrefix(src[i:], p) {
					out = append(out, token{tkPunct, p, line})
					i += len(p)
					matched = true
					break
				}
			}
			if !matched {
				return nil, fmt.Errorf("lang: parse: line %d: unexpected character %q", line, c)
			}
		}
	}
	out = append(out, token{kind: tkEOF, line: line})
	return out, nil
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tkEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("lang: parse: line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

// accept consumes the token if it matches exactly.
func (p *parser) accept(kind tokKind, text string) bool {
	t := p.peek()
	if t.kind == kind && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) error {
	if !p.accept(kind, text) {
		return p.errf("expected %q, found %s", text, p.peek())
	}
	return nil
}

func (p *parser) parseFn() (FuncDef, error) {
	if !p.accept(tkIdent, "fn") {
		return FuncDef{}, p.errf("expected \"fn\", found %s", p.peek())
	}
	name := p.peek()
	if name.kind != tkIdent {
		return FuncDef{}, p.errf("expected function name, found %s", name)
	}
	p.next()
	if err := p.expect(tkPunct, "("); err != nil {
		return FuncDef{}, err
	}
	var params []string
	for !p.accept(tkPunct, ")") {
		if len(params) > 0 {
			if err := p.expect(tkPunct, ","); err != nil {
				return FuncDef{}, err
			}
		}
		t := p.peek()
		if t.kind != tkIdent {
			return FuncDef{}, p.errf("expected parameter name, found %s", t)
		}
		params = append(params, t.text)
		p.next()
	}
	if err := p.expect(tkPunct, "="); err != nil {
		return FuncDef{}, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return FuncDef{}, err
	}
	return FuncDef{Name: name.text, Params: params, Body: body}, nil
}

func (p *parser) parseExpr() (expr.Expr, error) {
	switch {
	case p.accept(tkIdent, "if"):
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.accept(tkIdent, "then") {
			return nil, p.errf("expected \"then\", found %s", p.peek())
		}
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.accept(tkIdent, "else") {
			return nil, p.errf("expected \"else\", found %s", p.peek())
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return expr.Cond(c, t, e), nil
	case p.accept(tkIdent, "let"):
		name := p.peek()
		if name.kind != tkIdent {
			return nil, p.errf("expected binding name, found %s", name)
		}
		p.next()
		if err := p.expect(tkPunct, "="); err != nil {
			return nil, err
		}
		bind, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.accept(tkIdent, "in") {
			return nil, p.errf("expected \"in\", found %s", p.peek())
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return expr.LetIn(name.text, bind, body), nil
	default:
		return p.parseInfix(precOr)
	}
}

// parseInfix parses one binding level of infixOps and everything tighter:
// left-associative chains of the level's operators over operands of the
// next level, except that comparisons do not chain.
func (p *parser) parseInfix(prec int) (expr.Expr, error) {
	if prec > precMul {
		return p.parseUnary()
	}
	lhs, err := p.parseInfix(prec + 1)
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.acceptInfix(prec)
		if !ok {
			return lhs, nil
		}
		rhs, err := p.parseInfix(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = expr.Op(op, lhs, rhs)
		if prec == precCmp {
			return lhs, nil
		}
	}
}

// acceptInfix consumes an operator of the given level and names its
// primitive. Tokens are whole operators, so at most one entry matches.
func (p *parser) acceptInfix(prec int) (string, bool) {
	for name, op := range infixOps {
		if op.prec == prec && p.accept(tkPunct, op.sym) {
			return name, true
		}
	}
	return "", false
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.accept(tkPunct, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return expr.Op("neg", e), nil
	}
	if p.accept(tkPunct, "!") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return expr.Op("not", e), nil
	}
	return p.parseCons()
}

// parseCons handles the right-associative list constructor `h : t`.
func (p *parser) parseCons() (expr.Expr, error) {
	head, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	if p.accept(tkPunct, ":") {
		tail, err := p.parseCons()
		if err != nil {
			return nil, err
		}
		return expr.Op("cons", head, tail), nil
	}
	return head, nil
}

// parseList reads comma-separated expressions up to and including the
// closing delimiter; the opening one is already consumed.
func (p *parser) parseList(closing string) ([]expr.Expr, error) {
	var out []expr.Expr
	for !p.accept(tkPunct, closing) {
		if len(out) > 0 {
			if err := p.expect(tkPunct, ","); err != nil {
				return nil, err
			}
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func (p *parser) parseAtom() (expr.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tkInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return expr.Int(v), nil
	case t.kind == tkString:
		p.next()
		return expr.Str(t.text), nil
	case t.kind == tkPunct && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tkPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tkPunct && (t.text == "+" || t.text == "*"):
		// Call form of a variadic operator: + and * never start an operand
		// otherwise, so this is unambiguous.
		p.next()
		if err := p.expect(tkPunct, "("); err != nil {
			return nil, err
		}
		args, err := p.parseList(")")
		if err != nil {
			return nil, err
		}
		return expr.Op(t.text, args...), nil
	case t.kind == tkPunct && t.text == "[":
		p.next()
		elems, err := p.parseList("]")
		if err != nil {
			return nil, err
		}
		// Desugar [a, b, c] to cons chains ending in nil.
		out := expr.Nil()
		for i := len(elems) - 1; i >= 0; i-- {
			out = expr.Op("cons", elems[i], out)
		}
		return out, nil
	case t.kind == tkIdent:
		p.next()
		switch t.text {
		case "true":
			return expr.Bool(true), nil
		case "false":
			return expr.Bool(false), nil
		case "nil":
			return expr.Nil(), nil
		case "if", "then", "else", "let", "in", "fn":
			return nil, p.errf("keyword %q cannot start an expression here", t.text)
		}
		if !p.accept(tkPunct, "(") {
			return expr.V(t.text), nil
		}
		args, err := p.parseList(")")
		if err != nil {
			return nil, err
		}
		if _, isPrim := LookupPrim(t.text); isPrim {
			return expr.Op(t.text, args...), nil
		}
		return expr.Call(t.text, args...), nil
	default:
		return nil, p.errf("unexpected %s", t)
	}
}
