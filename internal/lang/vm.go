package lang

import (
	"fmt"
	"sync"

	"repro/internal/expr"
)

// This file is the "compiled" evaluator: a loop-free recursive VM over the
// flat node form of compile.go. It preserves the tree-walker's partial-
// reduction contract exactly — Outcome shape, Demands order, Steps counts,
// hole/fill semantics — while touching no maps and no AST on the per-task
// hot path.
//
// Step parity with flatten.go, case by case (the tree-walker charges one
// step per reduce() invocation):
//
//   - fresh evaluation: one step per compiled node visited. A cVar load is
//     one step, exactly like the substituted Lit it replaces (Instantiate
//     and committed Lets substitute values before bodies are walked, so a
//     source Var is always a Lit by the time reduce sees it).
//   - blocked If/Let: the untaken branches / the body are not visited (the
//     tree-walker keeps them unreduced behind the blocked condition/binder),
//     so they cost nothing until the commit pass.
//   - resume re-walk: one step per residual node visited, plus one step per
//     already-reduced value argument (the tree-walker re-reduces residual
//     Lit arguments at one step each), plus one step per hole (filled holes
//     were turned into Lits by the zero-cost FillHoles pre-pass; unfilled
//     holes re-reduce as Holes — one step either way).
//   - commit on resume: a condition/binder that completes evaluates the
//     chosen branch/body fresh — identical to the tree-walker reducing the
//     substituted source subtree, because every enclosing binder's slot has
//     been written by the time the subtree runs.
//
// Residual state is a tree of rnodes that reference compiled nodes by index;
// Resume mutates it in place, which is safe because a task's state is owned
// by that task and never re-read after the pass that consumed it (recovery
// re-executes from retained packets, not from old residuals).

// rkind classifies a residual node.
type rkind uint8

const (
	rHole  rkind = iota // blocked on a child task's answer
	rPrim               // operator with at least one blocked argument
	rIf                 // blocked condition; branches still unevaluated
	rLet                // blocked binder; body still unevaluated
	rApply              // demand site with at least one blocked argument
)

// rv is one argument position of a residual node: either an already-reduced
// value (v non-nil) or a blocked sub-residual.
type rv struct {
	v expr.Value
	r *rnode
}

// rnode is one blocked node of a task's residual.
type rnode struct {
	kind rkind
	id   int   // rHole: the demand id this hole waits for
	node int32 // compiled-node index (rPrim/rIf/rLet/rApply)
	args []rv  // rPrim/rApply: argument list; rIf/rLet: [cond]/[bind]
}

// cstate is the VM's TaskState: the persistent environment plus the blocked
// residual. env slots are written at most once per task (see compile.go), so
// one array serves every pass.
type cstate struct {
	fn   *cfunc
	env  []expr.Value
	root *rnode
}

// vm carries one reduction pass's mutable state, mirroring flattener.
type vm struct {
	fn      *cfunc
	env     []expr.Value
	nextID  *int
	demands []Demand
	steps   int
	// scratch is the argument-value stack for primitive applications: a
	// primitive consumes its argument values synchronously, so they live in
	// one pass-long buffer instead of a fresh slice per node. Demand (Apply)
	// arguments escape the pass inside Demand records and always get their
	// own allocation.
	scratch []expr.Value
}

// scratchPool recycles scratch stacks across passes: a pass returns its
// stack (cleared, so no value outlives its pass) on every exit path. Tasks
// run passes from many goroutines in the live backends, hence a Pool rather
// than a per-evaluator buffer.
var scratchPool = sync.Pool{New: func() any { return new([]expr.Value) }}

func getScratch() []expr.Value {
	return (*scratchPool.Get().(*[]expr.Value))[:0]
}

func putScratch(s []expr.Value) {
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	scratchPool.Put(&s)
}

// vmEvaluator is the "compiled" evaluator. Compilation is
// memoized by program identity: programs are immutable once built, and
// Open/admission may compile the same program from several sessions.
type vmEvaluator struct {
	mu    sync.Mutex
	cache map[*Program]*cprog
}

func newVMEvaluator() *vmEvaluator {
	return &vmEvaluator{cache: map[*Program]*cprog{}}
}

// Name implements Evaluator.
func (*vmEvaluator) Name() string { return "compiled" }

// Compile implements Evaluator.
func (v *vmEvaluator) Compile(p *Program) (EvalProgram, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if cp, ok := v.cache[p]; ok {
		return cp, nil
	}
	cp, err := compileProgram(p)
	if err != nil {
		return nil, err
	}
	v.cache[p] = cp
	return cp, nil
}

// Flatten implements EvalProgram: the first reduction pass of fn(args).
// Entry errors match Instantiate's text exactly.
func (cp *cprog) Flatten(fn string, args []expr.Value, nextID *int) (Outcome, TaskState, error) {
	cf, ok := cp.funcs[fn]
	if !ok {
		return Outcome{}, nil, fmt.Errorf("%w: undefined function %q", ErrEval, fn)
	}
	if len(args) != cf.params {
		return Outcome{}, nil, fmt.Errorf("%w: %q expects %d args, got %d", ErrEval, fn, cf.params, len(args))
	}
	env := make([]expr.Value, cf.nslots)
	copy(env, args)
	m := &vm{fn: cf, env: env, nextID: nextID, scratch: getScratch()}
	v, r, err := m.evalNode(cf.root)
	putScratch(m.scratch)
	if err != nil {
		return Outcome{}, nil, err
	}
	if r == nil {
		return Outcome{Done: true, Value: v, Steps: m.steps}, nil, nil
	}
	return Outcome{Demands: m.demands, Steps: m.steps},
		&cstate{fn: cf, env: env, root: r}, nil
}

// Resume implements EvalProgram: fill holes and re-walk the residual.
func (cp *cprog) Resume(st TaskState, fills map[int]expr.Value, nextID *int) (Outcome, TaskState, error) {
	cs := st.(*cstate)
	m := &vm{fn: cs.fn, env: cs.env, nextID: nextID, scratch: getScratch()}
	v, r, err := m.rewalk(cs.root, fills)
	putScratch(m.scratch)
	if err != nil {
		return Outcome{}, nil, err
	}
	if r == nil {
		return Outcome{Done: true, Value: v, Steps: m.steps}, nil, nil
	}
	cs.root = r
	return Outcome{Demands: m.demands, Steps: m.steps}, cs, nil
}

// RootState implements EvalProgram: a pseudo-task blocked on one bare hole.
// Resuming it costs one step and completes — identical to the tree-walker
// flattening a filled Hole expression.
func (cp *cprog) RootState(holeID int) TaskState {
	return &cstate{root: &rnode{kind: rHole, id: holeID}}
}

// evalNode evaluates compiled node i fresh, returning exactly one of a value
// or a blocked residual. One step per node visited.
func (m *vm) evalNode(i int32) (expr.Value, *rnode, error) {
	n := &m.fn.nodes[i]
	m.steps++
	switch n.op {
	case cLit:
		return m.fn.consts[n.arg], nil, nil
	case cVar:
		if n.arg < 0 || m.env[n.arg] == nil {
			return nil, nil, fmt.Errorf("%w: unbound variable %q at reduction time", ErrEval, n.name)
		}
		return m.env[n.arg], nil, nil
	case cPrim:
		base := len(m.scratch)
		blocked, err := m.evalPrimArgs(n, i)
		if err != nil || blocked != nil {
			m.scratch = m.scratch[:base]
			return nil, blocked, err
		}
		v, err := m.callPrimNode(n, m.scratch[base:])
		m.scratch = m.scratch[:base]
		if err != nil {
			return nil, nil, err
		}
		return v, nil, nil
	case cIf:
		cv, cr, err := m.evalNode(n.kids[0])
		if err != nil {
			return nil, nil, err
		}
		if cr != nil {
			// Condition blocked: branches stay unevaluated (non-strict)
			// until the condition value arrives.
			return nil, &rnode{kind: rIf, node: i, args: []rv{{r: cr}}}, nil
		}
		b, ok := cv.(expr.VBool)
		if !ok {
			return nil, nil, fmt.Errorf("%w: if condition is %s, not bool", ErrEval, expr.TypeName(cv))
		}
		if b {
			return m.evalNode(n.kids[1])
		}
		return m.evalNode(n.kids[2])
	case cLet:
		bv, br, err := m.evalNode(n.kids[0])
		if err != nil {
			return nil, nil, err
		}
		if br != nil {
			// Binder blocked: the body stays unevaluated behind it.
			return nil, &rnode{kind: rLet, node: i, args: []rv{{r: br}}}, nil
		}
		m.env[n.arg] = bv
		return m.evalNode(n.kids[1])
	case cApply:
		vals, blocked, err := m.evalArgs(n, i)
		if err != nil {
			return nil, nil, err
		}
		if blocked != nil {
			return nil, blocked, nil
		}
		return nil, m.demand(n, vals), nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown opcode %d", ErrEval, n.op)
	}
}

// evalArgs evaluates every child of a cApply node in source order — all of
// them, even after one blocks, exactly like reduceArgs. A nil rnode result
// means all arguments reduced to the returned values, which get their own
// allocation because Demand records outlive the pass.
func (m *vm) evalArgs(n *cnode, i int32) ([]expr.Value, *rnode, error) {
	vals := make([]expr.Value, len(n.kids))
	var rvs []rv
	for idx, kid := range n.kids {
		v, r, err := m.evalNode(kid)
		if err != nil {
			return nil, nil, err
		}
		if r != nil {
			if rvs == nil {
				rvs = make([]rv, len(n.kids))
				for j := 0; j < idx; j++ {
					rvs[j] = rv{v: vals[j]}
				}
			}
			rvs[idx] = rv{r: r}
			continue
		}
		vals[idx] = v
		if rvs != nil {
			rvs[idx] = rv{v: v}
		}
	}
	if rvs != nil {
		k := rPrim
		if n.op == cApply {
			k = rApply
		}
		return nil, &rnode{kind: k, node: i, args: rvs}, nil
	}
	return vals, nil, nil
}

// evalPrimArgs is evalArgs for cPrim nodes: reduced values are pushed onto
// the scratch stack (the caller passes them to the primitive and pops them
// before returning — no primitive retains its argument slice). A blocked
// child still evaluates every sibling, with the blocked position holding a
// nil placeholder to keep the stack aligned.
func (m *vm) evalPrimArgs(n *cnode, i int32) (*rnode, error) {
	base := len(m.scratch)
	var rvs []rv
	for idx, kid := range n.kids {
		v, r, err := m.evalNode(kid)
		if err != nil {
			return nil, err
		}
		if r != nil {
			if rvs == nil {
				rvs = make([]rv, len(n.kids))
				for j := 0; j < idx; j++ {
					rvs[j] = rv{v: m.scratch[base+j]}
				}
			}
			rvs[idx] = rv{r: r}
			m.scratch = append(m.scratch, nil)
			continue
		}
		m.scratch = append(m.scratch, v)
		if rvs != nil {
			rvs[idx] = rv{v: v}
		}
	}
	if rvs != nil {
		return &rnode{kind: rPrim, node: i, args: rvs}, nil
	}
	return nil, nil
}

// demand turns a ready application into a child task, exactly like the
// tree-walker's DEMAND_IT case: allocate the next hole id, record the
// demand, and leave a hole in the residual.
func (m *vm) demand(n *cnode, vals []expr.Value) *rnode {
	id := *m.nextID
	*m.nextID = id + 1
	m.demands = append(m.demands, Demand{ID: id, Fn: n.name, Args: vals})
	return &rnode{kind: rHole, id: id}
}

// callPrimNode runs a pre-resolved primitive, with the tree-walker's lazy
// unknown-operator error for nodes compiled against an unregistered op.
func (m *vm) callPrimNode(n *cnode, vals []expr.Value) (expr.Value, error) {
	if n.prim.Fn == nil {
		return nil, fmt.Errorf("%w: unknown primitive %q", ErrEval, n.name)
	}
	return callPrim(n.prim, vals)
}

// rewalk re-reduces a residual after fills arrive, mirroring the
// tree-walker's Resume: FillHoles costs nothing, then the whole residual is
// re-walked — one step per residual node, one step per already-reduced
// value argument, one step per hole (filled or not).
func (m *vm) rewalk(r *rnode, fills map[int]expr.Value) (expr.Value, *rnode, error) {
	m.steps++
	switch r.kind {
	case rHole:
		if v, ok := fills[r.id]; ok {
			return v, nil, nil
		}
		return nil, r, nil
	case rPrim, rApply:
		blocked := false
		for idx := range r.args {
			a := &r.args[idx]
			if a.r == nil {
				// A residual Lit argument: the tree-walker re-reduces it at
				// one step.
				m.steps++
				continue
			}
			v, rr, err := m.rewalk(a.r, fills)
			if err != nil {
				return nil, nil, err
			}
			if rr != nil {
				a.r = rr
				blocked = true
			} else {
				a.v, a.r = v, nil
			}
		}
		if blocked {
			return nil, r, nil
		}
		n := &m.fn.nodes[r.node]
		if r.kind == rApply {
			vals := make([]expr.Value, len(r.args))
			for idx := range r.args {
				vals[idx] = r.args[idx].v
			}
			return nil, m.demand(n, vals), nil
		}
		base := len(m.scratch)
		for idx := range r.args {
			m.scratch = append(m.scratch, r.args[idx].v)
		}
		v, err := m.callPrimNode(n, m.scratch[base:])
		m.scratch = m.scratch[:base]
		if err != nil {
			return nil, nil, err
		}
		return v, nil, nil
	case rIf:
		cv, cr, err := m.rewalk(r.args[0].r, fills)
		if err != nil {
			return nil, nil, err
		}
		if cr != nil {
			r.args[0].r = cr
			return nil, r, nil
		}
		b, ok := cv.(expr.VBool)
		if !ok {
			return nil, nil, fmt.Errorf("%w: if condition is %s, not bool", ErrEval, expr.TypeName(cv))
		}
		n := &m.fn.nodes[r.node]
		if b {
			return m.evalNode(n.kids[1])
		}
		return m.evalNode(n.kids[2])
	case rLet:
		bv, br, err := m.rewalk(r.args[0].r, fills)
		if err != nil {
			return nil, nil, err
		}
		if br != nil {
			r.args[0].r = br
			return nil, r, nil
		}
		n := &m.fn.nodes[r.node]
		m.env[n.arg] = bv
		return m.evalNode(n.kids[1])
	default:
		return nil, nil, fmt.Errorf("%w: unknown residual kind %d", ErrEval, r.kind)
	}
}
