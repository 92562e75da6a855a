// Package scenario reproduces the paper's figures as executable scenarios:
//
//   - Figure 1 (§2–3): the call tree mapped onto processors A–D, its
//     checkpoint distribution, the three fragments created by the failure of
//     processor B, and rollback's topmost-only reissue (B5 suppressed).
//   - Figures 2–3 (§4.1): grandparent pointers and twin inheritance — task
//     B2′ created by C1 inherits the orphan results of B2's offspring.
//   - Figures 4–5 (§4.1): the eight possible orderings of a child's
//     completion relative to the failure and the twin's progress.
//   - Figures 6–7 (§4.3.2): the spawn state diagram a–g and the residue-
//     freedom of recovery at every state.
//
// Each scenario builds a purpose-made program and pins tasks to processors
// exactly as the figure prescribes; the experiment itself is written once
// (replay): dry-run to locate precise virtual times, inject the fault, and
// compare the answer with the sequential reference. The result structs —
// one shared Outcome plus what the figure observes — are consumed by both
// the test suite and cmd/experiments.
//
// Scenarios are the narrative complement to the quantitative drivers in
// internal/experiments: a figure replay asserts *which* protocol actions
// happened (B5 suppressed, the twin inherited B2's orphans), while a table
// measures how much they cost. Both are listed in internal/runner's catalog
// and render into EXPERIMENTS.md through the same pipeline.
//
// The service layer has its own narrative counterpart: the admission tests
// in internal/core pin *which* requests a bounded stream admits, queues,
// and sheds (ServiceReport.Render byte-compared across shard counts and
// Submit interleavings), playing the same role for the open-loop load path
// — seeded arrival schedules from internal/workload, the saturation sweep
// S5 in internal/experiments — that the figure replays play for the
// recovery protocol.
package scenario

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/stamp"
	"repro/internal/topology"
	"repro/internal/trace"
)

// chain builds a right-nested addition chain that costs ~2n+1 reduction
// steps and evaluates to 1 — deterministic "compute time" with no spawns.
func chain(n int) expr.Expr {
	e := expr.Int(1)
	for i := 0; i < n; i++ {
		e = expr.Op("+", expr.Int(0), e)
	}
	return e
}

// TreeNode is one task of a figure call tree.
type TreeNode struct {
	Name     string
	Parent   string // "" for the root
	Proc     proto.ProcID
	Children []string // in demand order (assigned during build)
}

// Tree is a named call tree with pinned placement.
type Tree struct {
	Nodes map[string]*TreeNode
	Order []string // insertion order; the first entry is the root
	Root  string
}

// NewTree builds a tree from (name, parent, proc) triples. Children keep
// the order in which they are declared, which fixes their demand IDs and
// therefore their level stamps.
func NewTree(rows [][3]string, procs map[string]proto.ProcID) (*Tree, error) {
	t := &Tree{Nodes: map[string]*TreeNode{}}
	for _, r := range rows {
		name, parent := r[0], r[1]
		if _, dup := t.Nodes[name]; dup {
			return nil, fmt.Errorf("scenario: duplicate node %q", name)
		}
		n := &TreeNode{Name: name, Parent: parent, Proc: procs[name]}
		t.Nodes[name] = n
		t.Order = append(t.Order, name)
		if parent == "" {
			if t.Root != "" {
				return nil, fmt.Errorf("scenario: two roots (%q, %q)", t.Root, name)
			}
			t.Root = name
		} else {
			p, ok := t.Nodes[parent]
			if !ok {
				return nil, fmt.Errorf("scenario: node %q declared before parent %q", name, parent)
			}
			p.Children = append(p.Children, name)
		}
	}
	if t.Root == "" {
		return nil, fmt.Errorf("scenario: no root")
	}
	return t, nil
}

// Program compiles the tree into a lang program: each internal node sums
// its children's values; each leaf demands a dedicated "spin" child that
// performs a chain of leafCost additions. Delegating the compute keeps every
// figure task simultaneously resident (waiting) while the spin tasks burn
// processor time — the machine serializes tasks per processor, so a leaf
// computing inline would block later placements on the same processor.
// Function names are "t"+node name; spin functions are "s"+leaf name.
func (t *Tree) Program(leafCost int) (*lang.Program, error) {
	var defs []lang.FuncDef
	for _, name := range t.Order {
		n := t.Nodes[name]
		var body expr.Expr
		if len(n.Children) == 0 {
			body = expr.Op("+", expr.Int(0), expr.Call("s"+name))
			defs = append(defs, lang.FuncDef{Name: "s" + name, Body: chain(leafCost)})
		} else {
			args := make([]expr.Expr, len(n.Children))
			for i, c := range n.Children {
				args[i] = expr.Call("t" + c)
			}
			if len(args) == 1 {
				body = expr.Op("+", expr.Int(0), args[0])
			} else {
				body = expr.Op("+", args...)
			}
		}
		defs = append(defs, lang.FuncDef{Name: "t" + name, Body: body})
	}
	return lang.NewProgram(defs...)
}

// Stamps derives the level stamp of every node: the root task is the host's
// first demand (stamp "0"); each child appends its demand index.
func (t *Tree) Stamps() map[string]stamp.Stamp {
	out := map[string]stamp.Stamp{t.Root: stamp.FromPath(0)}
	var walk func(name string)
	walk = func(name string) {
		n := t.Nodes[name]
		for i, c := range n.Children {
			out[c] = out[name].Child(uint32(i))
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// PinMap returns the stamp-keyed placement map for balance.NewPinned.
// Spin children (demand 0 of each leaf) are pinned to dedicated processors
// starting at spinBase, one per leaf in declaration order: the machine runs
// one task at a time per processor, so spins sharing a figure processor
// would starve the figure tasks' short reduction passes.
func (t *Tree) PinMap(spinBase proto.ProcID) map[string]proto.ProcID {
	stamps := t.Stamps()
	out := make(map[string]proto.ProcID, 2*len(stamps))
	next := spinBase
	for _, name := range t.Order {
		s := stamps[name]
		out[s.Key()] = t.Nodes[name].Proc
		if len(t.Nodes[name].Children) == 0 {
			out[s.Child(0).Key()] = next
			next++
		}
	}
	return out
}

// LeafCount returns the number of leaves (each needs a spin processor).
func (t *Tree) LeafCount() int {
	n := 0
	for _, node := range t.Nodes {
		if len(node.Children) == 0 {
			n++
		}
	}
	return n
}

// NameOf inverts Stamps for trace inspection.
func (t *Tree) NameOf() map[stamp.Stamp]string {
	stamps := t.Stamps()
	out := make(map[stamp.Stamp]string, len(stamps))
	for name, s := range stamps {
		out[s] = name
	}
	return out
}

// Fragments computes the connected components of the tree after removing
// every node pinned to the failed processor — the paper's broken pieces
// ("the call tree is thus fragmented into three pieces").
func (t *Tree) Fragments(failed proto.ProcID) [][]string {
	var frags [][]string
	var collect func(name string, frag *[]string)
	collect = func(name string, frag *[]string) {
		n := t.Nodes[name]
		if n.Proc == failed {
			// Severed here; each surviving child subtree starts a new
			// fragment.
			for _, c := range n.Children {
				if t.Nodes[c].Proc == failed {
					collect(c, nil)
					continue
				}
				nf := []string{}
				collect(c, &nf)
				if len(nf) > 0 {
					frags = append(frags, nf)
				}
			}
			return
		}
		if frag != nil {
			*frag = append(*frag, name)
			for _, c := range n.Children {
				if t.Nodes[c].Proc == failed {
					collect(c, nil)
				} else {
					collect(c, frag)
				}
			}
		}
	}
	rootFrag := []string{}
	if t.Nodes[t.Root].Proc == failed {
		collect(t.Root, nil)
	} else {
		collect(t.Root, &rootFrag)
		frags = append([][]string{rootFrag}, frags...)
	}
	return frags
}

// eventTime returns the time of the n-th (1-based) event of the given kind
// for the given stamp, or -1.
func eventTime(log *trace.Log, kind trace.Kind, s stamp.Stamp, n int) int64 {
	label := s.String()
	for _, e := range log.Events {
		if e.Kind == kind && e.Task == label {
			if n--; n == 0 {
				return e.Time
			}
		}
	}
	return -1
}

// countEvents counts events of a kind for a stamp.
func countEvents(log *trace.Log, kind trace.Kind, s stamp.Stamp) int {
	label := s.String()
	n := 0
	for _, e := range log.Events {
		if e.Kind == kind && e.Task == label {
			n++
		}
	}
	return n
}

// completeTopo builds a fully connected topology of n processors; figure
// scenarios use it so every link is one hop and timing is uniform.
func completeTopo(n int) topology.Topology {
	topo, err := topology.Complete(n)
	if err != nil {
		panic(err)
	}
	return topo
}

// Outcome is the part of a figure replay every figure reports: whether the
// faulted run still produced the sequential reference answer (§2.1
// determinacy), and where the fault went.
type Outcome struct {
	Completed bool   // finished, and the answer equals lang.RefEval's
	Answer    string // observed answer
	FaultAt   int64  // injected failure time, read off the fault-free trace
	Metrics   trace.Metrics
}

// replay is the one experiment every figure is an instance of: run the
// program fault-free, let window read the fault time off that trace, run
// again with plan(at) injected, and compare the answer with the sequential
// reference.
type replay struct {
	prog   *lang.Program
	entry  string
	scheme string
	// config supplies topology, placement and any figure-specific knobs. It
	// is called once per run: placement policies carry state.
	config func() machine.Config
	window func(dry *machine.Report) (int64, error)
	plan   func(at int64) *faults.Plan
}

// run executes the replay and returns the outcome with the faulted run's
// report, from whose trace each figure reads its own observations.
func (r replay) run() (Outcome, *machine.Report, error) {
	dry, err := r.once(nil)
	if err != nil {
		return Outcome{}, nil, err
	}
	if !dry.Completed {
		return Outcome{}, nil, fmt.Errorf("scenario: dry run did not complete")
	}
	at, err := r.window(dry)
	if err != nil {
		return Outcome{}, nil, err
	}
	rep, err := r.once(r.plan(at))
	if err != nil {
		return Outcome{}, nil, err
	}
	want, err := lang.RefEval(r.prog, r.entry, nil)
	if err != nil {
		return Outcome{}, nil, err
	}
	out := Outcome{
		Completed: rep.Completed && rep.Answer != nil && rep.Answer.Equal(want),
		FaultAt:   at,
		Metrics:   rep.Metrics,
	}
	if rep.Answer != nil {
		out.Answer = rep.Answer.String()
	}
	return out, rep, nil
}

// once builds a traced, seed-1 machine under the replay's scheme and runs
// the program with the given plan.
func (r replay) once(plan *faults.Plan) (*machine.Report, error) {
	cfg := r.config()
	var err error
	if cfg.Scheme, err = recovery.ByName(r.scheme); err != nil {
		return nil, err
	}
	cfg.Seed, cfg.Trace = 1, trace.NewLog()
	m, err := machine.New(cfg, r.prog)
	if err != nil {
		return nil, err
	}
	return m.Run(r.entry, nil, plan)
}

// config pins the tree onto a complete topology: figure processors first,
// then one spin processor per leaf.
func (t *Tree) config(figureProcs int) machine.Config {
	return machine.Config{
		Topo:      completeTopo(figureProcs + t.LeafCount()),
		Placement: balance.NewPinned(t.PinMap(proto.ProcID(figureProcs)), balance.NewRandom()),
	}
}

// named maps the figure names of the tasks that have an event of the given
// kind in the log to the processor of that event.
func (t *Tree) named(log *trace.Log, kind trace.Kind) map[string]proto.ProcID {
	names := t.NameOf()
	out := map[string]proto.ProcID{}
	for _, e := range log.Events {
		if e.Kind != kind {
			continue
		}
		if s, err := stamp.Parse(e.Task); err == nil {
			if name, ok := names[s]; ok {
				out[name] = proto.ProcID(e.Proc)
			}
		}
	}
	return out
}
