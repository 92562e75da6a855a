package lang

import (
	"fmt"

	"repro/internal/expr"
)

// This file lowers a validated Program to the flat per-function form the
// bytecode VM (vm.go) executes. Compilation happens once per program at
// Open/admission time; after it, the per-task hot path touches no maps and
// no AST nodes — variables are environment-slot loads, primitives are
// pre-resolved operator structs, and call targets are interned names.
//
// The lowering is deliberately shape-preserving: one cnode per AST node,
// children by index into the function's flat node slice. That is what makes
// the VM's step accounting provably identical to the tree-walker's (see the
// equivalence argument in ARCHITECTURE.md): the tree-walker charges one step
// per reduce() invocation per node visited, and the VM charges one step per
// cnode visited on exactly the same traversal.

// cop is a compiled-node opcode.
type cop uint8

const (
	cLit   cop = iota // load consts[arg]
	cVar              // load env[arg] (a parameter or committed let slot)
	cPrim             // strict primitive: evaluate kids, run prim
	cIf               // kids = cond, then, else; branches non-strict
	cLet              // write env[arg] from kids[0], then evaluate kids[1]
	cApply            // demand site: evaluate kids, spawn child task
)

// cnode is one compiled expression node.
type cnode struct {
	op   cop
	arg  int32     // cLit: consts index; cVar/cLet: env slot; cApply: callee's function index; else unused
	name string    // cVar: source name (errors); cApply: target function
	prim Primitive // cPrim: the resolved operator (Fn nil = unknown op)
	kids []int32   // child node indices, in source order
}

// cfunc is one compiled function definition.
type cfunc struct {
	name   string
	params int
	nodes  []cnode      // flat; children precede parents
	consts []expr.Value // cLit pool
	root   int32        // body node index
	nslots int          // env size: params first, then one slot per Let
	slots  []string     // slot -> source name, for error messages
	// applies counts the cApply nodes: no pass demands more, since a
	// demand site fires at most once per task.
	applies int
}

// cprog is a compiled program: the VM-executable form of a lang.Program.
type cprog struct {
	prog  *Program // source identity, for RefEval cross-checks and errors
	funcs map[string]*cfunc
}

// compileProgram lowers every function of a validated program.
func compileProgram(p *Program) (*cprog, error) {
	cp := &cprog{prog: p, funcs: make(map[string]*cfunc, len(p.Names()))}
	for _, name := range p.Names() {
		d, _ := p.Func(name)
		cf, err := compileFunc(p, d)
		if err != nil {
			return nil, err
		}
		cp.funcs[name] = cf
	}
	return cp, nil
}

// scopeEntry is one lexically visible binding during compilation.
type scopeEntry struct {
	name string
	slot int32
}

// compiler lowers one function body.
type compiler struct {
	prog  *Program // resolves call targets to function indices
	f     *cfunc
	scope []scopeEntry // innermost binding last; shadowing = later entry wins
}

// compileFunc lowers one definition. Parameters take env slots 0..n-1; every
// Let binder gets its own fresh slot (never reused), so one persistent
// per-task env array works across passes: a slot is written at most once per
// task, exactly when the tree-walker would have substituted the value.
func compileFunc(p *Program, d FuncDef) (*cfunc, error) {
	c := &compiler{prog: p, f: &cfunc{name: d.Name, params: len(d.Params)}}
	for i, p := range d.Params {
		c.scope = append(c.scope, scopeEntry{name: p, slot: int32(i)})
		c.f.slots = append(c.f.slots, p)
	}
	c.f.nslots = len(d.Params)
	root, err := c.lower(d.Body)
	if err != nil {
		return nil, err
	}
	c.f.root = root
	return c.f, nil
}

// lower emits the nodes for e (children first) and returns e's node index.
func (c *compiler) lower(e expr.Expr) (int32, error) {
	switch n := e.(type) {
	case expr.Lit:
		idx := int32(len(c.f.consts))
		c.f.consts = append(c.f.consts, n.V)
		return c.emit(cnode{op: cLit, arg: idx}), nil
	case expr.Var:
		// Resolve innermost-first so shadowing works; an unbound name
		// compiles to a poisoned slot that fails at evaluation time with the
		// tree-walker's exact error (Validate rejects it anyway).
		for i := len(c.scope) - 1; i >= 0; i-- {
			if c.scope[i].name == n.Name {
				return c.emit(cnode{op: cVar, arg: c.scope[i].slot, name: n.Name}), nil
			}
		}
		return c.emit(cnode{op: cVar, arg: -1, name: n.Name}), nil
	case expr.Prim:
		kids, err := c.lowerAll(n.Args)
		if err != nil {
			return 0, err
		}
		// An unknown operator keeps prim.Fn nil and fails at evaluation
		// time, matching the tree-walker's lazy lookup: a program whose bad
		// node is never reached still runs.
		p, _ := LookupPrim(n.Op)
		p.Name = n.Op
		return c.emit(cnode{op: cPrim, name: n.Op, prim: p, kids: kids}), nil
	case expr.If:
		kids, err := c.lowerAll([]expr.Expr{n.Cond, n.Then, n.Else})
		if err != nil {
			return 0, err
		}
		return c.emit(cnode{op: cIf, kids: kids}), nil
	case expr.Let:
		bind, err := c.lower(n.Bind)
		if err != nil {
			return 0, err
		}
		slot := int32(c.f.nslots)
		c.f.nslots++
		c.f.slots = append(c.f.slots, n.Name)
		c.scope = append(c.scope, scopeEntry{name: n.Name, slot: slot})
		body, err := c.lower(n.Body)
		c.scope = c.scope[:len(c.scope)-1]
		if err != nil {
			return 0, err
		}
		return c.emit(cnode{op: cLet, arg: slot, name: n.Name, kids: []int32{bind, body}}), nil
	case expr.Apply:
		kids, err := c.lowerAll(n.Args)
		if err != nil {
			return 0, err
		}
		idx, _ := c.prog.FuncIndex(n.Fn) // Validate saw every callee defined
		c.f.applies++
		return c.emit(cnode{op: cApply, arg: int32(idx), name: n.Fn, kids: kids}), nil
	case expr.Hole:
		// Validate rejects holes in source programs; nothing to lower.
		return 0, fmt.Errorf("%w: hole in source program", ErrEval)
	default:
		return 0, fmt.Errorf("%w: unknown node %T", ErrEval, e)
	}
}

// lowerAll lowers an argument list in source order.
func (c *compiler) lowerAll(args []expr.Expr) ([]int32, error) {
	kids := make([]int32, len(args))
	for i, a := range args {
		k, err := c.lower(a)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	return kids, nil
}

// emit appends a node and returns its index.
func (c *compiler) emit(n cnode) int32 {
	c.f.nodes = append(c.f.nodes, n)
	return int32(len(c.f.nodes) - 1)
}
