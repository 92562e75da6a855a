package scenario

import (
	"repro/internal/balance"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/proto"
	"repro/internal/stamp"
	"repro/internal/trace"
)

// The G→P→C micro-tree of §4.1 and §4.3.2: grandparent task G spawns parent
// task P, which spawns child task C (Figure 4). Knobs control how long each
// phase computes, which realizes every ordering of Figure 5 and every state
// of Figure 6.
//
// Processor layout (complete topology):
//
//	0: G      1: P      2: C      3: filler      4,5: spares
const (
	gpcProcG      proto.ProcID = 0
	gpcProcP      proto.ProcID = 1
	gpcProcC      proto.ProcID = 2
	gpcProcFiller proto.ProcID = 3
	gpcSpare1     proto.ProcID = 4
	gpcSpare2     proto.ProcID = 5
	gpcProcs                   = 6
)

// gpcSpec parameterizes the micro-tree.
type gpcSpec struct {
	gPre        int  // G's pre-chain before demanding P
	gPost       int  // G's final pass after all holes fill
	pPre        int  // P's first pass (before demanding C)
	pPost       int  // P's second pass (after C's result arrives)
	cCost       int  // C's computation
	filler      int  // extra G child pinned to gpcProcFiller (0 = none)
	fillerFirst bool // filler demanded before P (so it queues ahead of C
	// when both are pinned to the same processor)
	fillerOnC bool // pin the filler onto C's processor (delays C's start)
	fillerOnP bool // pin the filler onto P's processor (delays P's start)
	cOnP      bool // pin C onto P's processor (case 2: C dies with P)
	// cSeq overrides C's placement sequence (scripted placement, case 7).
	cSeq []proto.ProcID
	// pSeq overrides P's placement sequence.
	pSeq []proto.ProcID
}

// gpcStamps returns the stamps of G, P, C and the filler under the spec.
func (sp gpcSpec) gpcStamps() (g, p, c, filler stamp.Stamp) {
	g = stamp.FromPath(0)
	pIdx, fIdx := uint32(0), uint32(1)
	if sp.filler > 0 && sp.fillerFirst {
		pIdx, fIdx = 1, 0
	}
	p = g.Child(pIdx)
	c = p.Child(0)
	filler = g.Child(fIdx)
	return
}

// program builds the G/P/C lang program for the spec.
func (sp gpcSpec) program() (*lang.Program, error) {
	pCall := expr.Call("p")
	var gBody expr.Expr
	switch {
	case sp.filler > 0 && sp.fillerFirst:
		gBody = expr.Op("+", expr.Call("fil"), pCall)
	case sp.filler > 0:
		gBody = expr.Op("+", pCall, expr.Call("fil"))
	default:
		gBody = expr.Op("+", expr.Int(0), pCall)
	}
	if sp.gPost > 0 {
		// Post-work: a Let keeps the tail chain unreduced until the demands
		// of the bind fill, giving G a second compute pass.
		gBody = expr.LetIn("s", gBody, expr.Op("+", chain(sp.gPost), expr.V("s")))
	}
	if sp.gPre > 0 {
		gBody = expr.LetIn("gpre", chain(sp.gPre), expr.Op("+", gBody, expr.Op("*", expr.Int(0), expr.V("gpre"))))
	}
	pBody := expr.LetIn("pre", chain(sp.pPre),
		expr.LetIn("x", expr.Call("c"),
			expr.Op("+", chain(sp.pPost), expr.Op("+", expr.V("x"), expr.V("pre")))))
	defs := []lang.FuncDef{
		{Name: "g", Body: gBody},
		{Name: "p", Body: pBody},
		{Name: "c", Body: chain(sp.cCost)},
	}
	if sp.filler > 0 {
		defs = append(defs, lang.FuncDef{Name: "fil", Body: chain(sp.filler)})
	}
	return lang.NewProgram(defs...)
}

// placement scripts where each incarnation of G, P, C and the filler goes:
// one processor each unless the spec redirects it.
func (sp gpcSpec) placement() balance.Policy {
	gS, pS, cS, fS := sp.gpcStamps()
	seq := map[string][]proto.ProcID{
		gS.Key(): {gpcProcG},
		pS.Key(): {gpcProcP},
		cS.Key(): {gpcProcC},
		fS.Key(): {gpcProcFiller},
	}
	if sp.cOnP {
		seq[cS.Key()] = []proto.ProcID{gpcProcP}
	}
	if sp.fillerOnC {
		seq[fS.Key()] = []proto.ProcID{gpcProcC}
	}
	if sp.fillerOnP {
		seq[fS.Key()] = []proto.ProcID{gpcProcP}
	}
	if sp.pSeq != nil {
		seq[pS.Key()] = sp.pSeq
	}
	if sp.cSeq != nil {
		seq[cS.Key()] = sp.cSeq
	}
	return newScripted(seq, balance.NewRandom())
}

// scripted is a placement policy that consumes a per-stamp sequence of
// destinations: the n-th placement request for a stamp goes to the n-th
// processor of its sequence (the last entry repeats). It lets a scenario
// place a task's re-incarnation somewhere other than the original — e.g.
// Figure 5 case 7, where the twin's child must run on an idle processor
// while the original crawls behind a filler.
type scripted struct {
	seq      map[string][]proto.ProcID
	used     map[string]int
	fallback balance.Policy
}

func newScripted(seq map[string][]proto.ProcID, fallback balance.Policy) *scripted {
	return &scripted{seq: seq, used: map[string]int{}, fallback: fallback}
}

func (s *scripted) Name() string       { return "scripted" }
func (s *scripted) Mode() balance.Mode { return balance.Direct }

func (s *scripted) PickDest(v balance.View, key proto.TaskKey) proto.ProcID {
	if list, ok := s.seq[key.Stamp.Key()]; ok && len(list) > 0 {
		i := s.used[key.Stamp.Key()]
		s.used[key.Stamp.Key()]++
		if i >= len(list) {
			i = len(list) - 1
		}
		if d := list[i]; !v.IsFaulty(d) {
			return d
		}
	}
	return s.fallback.PickDest(v, key)
}

func (s *scripted) Step(v balance.View, hops int) proto.ProcID {
	return s.fallback.Step(v, hops)
}

// gpcTimes is the reference timeline of a dry (fault-free) run.
type gpcTimes struct {
	spawnP, placeP, startP int64
	spawnC, placeC, startC int64
	completeC, startP2     int64
	completeP, fillG       int64
}

func (sp gpcSpec) times(dry *machine.Report) *gpcTimes {
	gS, pS, cS, _ := sp.gpcStamps()
	return &gpcTimes{
		spawnP:    eventTime(dry.Log, trace.KSpawn, pS, 1),
		placeP:    eventTime(dry.Log, trace.KPlace, pS, 1),
		startP:    eventTime(dry.Log, trace.KStart, pS, 1),
		spawnC:    eventTime(dry.Log, trace.KSpawn, cS, 1),
		placeC:    eventTime(dry.Log, trace.KPlace, cS, 1),
		startC:    eventTime(dry.Log, trace.KStart, cS, 1),
		completeC: eventTime(dry.Log, trace.KComplete, cS, 1),
		startP2:   eventTime(dry.Log, trace.KStart, pS, 2),
		completeP: eventTime(dry.Log, trace.KComplete, pS, 1),
		fillG:     eventTime(dry.Log, trace.KResult, gS, 1),
	}
}

// gpcFault is one way of failing P's processor: when, read off the
// fault-free timeline, and how the failure is discovered.
type gpcFault struct {
	window func(t *gpcTimes) int64
	// silent turns heartbeats and the crash announcement off and allows one
	// result retry, so only C's result timeout discovers the failure (the
	// fault-free timeline is the same either way).
	silent bool
}

// replay fails P's processor as f prescribes under the given scheme.
func (sp gpcSpec) replay(scheme string, f gpcFault) (Outcome, *machine.Report, error) {
	prog, err := sp.program()
	if err != nil {
		return Outcome{}, nil, err
	}
	return replay{
		prog: prog, entry: "g", scheme: scheme,
		config: func() machine.Config {
			cfg := machine.Config{Topo: completeTopo(gpcProcs), Placement: sp.placement(), Deadline: 4_000_000}
			if f.silent {
				cfg.HeartbeatEvery, cfg.ResultRetryLimit = -1, 1
			}
			return cfg
		},
		window: func(dry *machine.Report) (int64, error) { return f.window(sp.times(dry)), nil },
		plan:   func(at int64) *faults.Plan { return faults.Crash(gpcProcP, at, !f.silent) },
	}.run()
}
