package scenario

import (
	"fmt"

	"repro/internal/proto"
	"repro/internal/trace"
)

// Fig5Result is the outcome of one of the eight orderings of Figure 5; the
// twin, prefill, duplicate, orphan, relay and late-result counters of the
// case analysis are in Metrics.
type Fig5Result struct {
	Case int
	Desc string
	Outcome
	// PlacesC / CompletesC count placements / completions of C's stamp
	// (originals plus re-incarnations).
	PlacesC, CompletesC int
}

// Fault windows on the G→P→C timeline that more than one figure row uses.
func whileCRuns(t *gpcTimes) int64     { return (t.startC + t.completeC) / 2 }
func inPsSecondPass(t *gpcTimes) int64 { return (t.startP2 + t.completeP) / 2 }
func whileCIsQueued(t *gpcTimes) int64 { return t.placeC + 40 }

// onSpares sends the twin P′ and its child C′ to idle spare processors.
func onSpares(sp gpcSpec) gpcSpec {
	sp.pSeq = []proto.ProcID{gpcProcP, gpcSpare1}
	sp.cSeq = []proto.ProcID{gpcProcC, gpcSpare2}
	return sp
}

// fig5Cases realizes the eight orderings; desc quotes the paper's
// enumeration (§4.1).
var fig5Cases = [8]struct {
	desc  string
	spec  gpcSpec
	fault gpcFault
}{
	// P dies during its first pass, before C was ever demanded. The twin P′
	// is the only task that ever spawns C.
	{"C has never been invoked",
		gpcSpec{pPre: 2000, pPost: 100, cCost: 300},
		gpcFault{window: func(t *gpcTimes) int64 { return (t.startP + t.spawnC) / 2 }}},
	// C is lost together with P (pinned to the same processor) while
	// running; neither the original P nor the original C ever completes.
	{"C will never complete",
		gpcSpec{pPre: 200, pPost: 100, cCost: 2000, cOnP: true}, gpcFault{window: whileCRuns}},
	// C completes and returns to P; P dies afterwards, during its second
	// pass. The result of C was stored inside P and is lost with it: "The
	// recovery task P' must recalculate C by activating task C'."
	{"C completes before P dies",
		gpcSpec{pPre: 200, pPost: 4000, cCost: 300}, gpcFault{window: inPsSecondPass}},
	// P dies silently while C runs; C's undeliverable result reaches
	// grandparent G before any failure announcement, so G creates the
	// step-parent in response to the grandchild result ("the grandparent has
	// to reproduce P' first") and the inherited answer pre-fills P′'s demand
	// — C′ is never spawned.
	{"C completes after P dies, but before P' is invoked",
		gpcSpec{pPre: 12000, pPost: 100, cCost: 2000}, gpcFault{window: whileCRuns, silent: true}},
	// P's death is announced while C runs, so P′ exists before C completes;
	// C's orphan result still arrives before P′ finishes its long first
	// pass, so the answer is inherited and C′ never spawned.
	{"C completes after P' is invoked, but before C' is invoked",
		gpcSpec{pPre: 12000, pPost: 100, cCost: 2000}, gpcFault{window: whileCRuns}},
	// P′ progresses quickly and spawns C′ while the original C still runs;
	// the original has a head start, so its result arrives first, and P′'s
	// long second pass keeps it resident for the twin child's duplicate to
	// be observed ("the second copy is simply ignored").
	{"C completes after C' is invoked",
		onSpares(gpcSpec{pPre: 10, pPost: 30000, cCost: 6000}), gpcFault{window: whileCRuns}},
	// The reciprocal of case 6 — the late incarnation C′ finishes before the
	// original C, which is stuck behind a filler task on its processor
	// ("late invocation of an identical task may yield a result faster than
	// the earlier invocation"). P is killed while C waits in that queue.
	{"C completes after C' has completed",
		onSpares(gpcSpec{pPre: 10, pPost: 30000, cCost: 600,
			filler: 20000, fillerFirst: true, fillerOnC: true}), gpcFault{window: whileCIsQueued}},
	// The original C completes only after P′ has already completed and G's
	// hole is filled; the old result arrives with nobody to use it and is
	// discarded ("The result is discarded.").
	{"C completes after P' has completed",
		onSpares(gpcSpec{pPre: 10, pPost: 50, cCost: 600, gPost: 8000,
			filler: 30000, fillerFirst: true, fillerOnC: true}), gpcFault{window: whileCIsQueued}},
}

// RunFig5Case realizes ordering c (1..8) of Figure 5 under splice recovery
// and reports what happened. Every case must end with the correct answer;
// the per-case assertions live in the tests.
func RunFig5Case(c int) (*Fig5Result, error) {
	if c < 1 || c > len(fig5Cases) {
		return nil, fmt.Errorf("scenario: Figure 5 has cases 1..8, not %d", c)
	}
	k := fig5Cases[c-1]
	out, rep, err := k.spec.replay("splice", k.fault)
	if err != nil {
		return nil, err
	}
	_, _, cS, _ := k.spec.gpcStamps()
	return &Fig5Result{
		Case: c, Desc: k.desc, Outcome: out,
		PlacesC:    countEvents(rep.Log, trace.KPlace, cS),
		CompletesC: countEvents(rep.Log, trace.KComplete, cS),
	}, nil
}
