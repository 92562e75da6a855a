package scenario

import (
	"fmt"

	"repro/internal/trace"
)

// Fig67Result is the outcome of failing P's processor at one of the seven
// states of Figure 6 (spawning and reduction of task G → P → C).
// §4.3.2's residue-freedom criterion: "A residue-free fault tolerant
// measure must assure that tasks G and C are not affected by the failure of
// P from state a through state g" — operationally, the program always
// finishes with the correct answer. Orphan suicides (state d: "C commits
// suicide") are Metrics.TasksAborted.
type Fig67Result struct {
	State  byte   // 'a'..'g'
	Scheme string // rollback or splice
	Desc   string
	Outcome
	// PlacesP / PlacesC count placements of P's and C's stamps.
	PlacesP, PlacesC int
	// Recovered counts reissues (rollback) or twins (splice).
	Recovered int64
}

// fig67Spec is the common micro-tree for the state scenarios: G has a
// pre-pass (window for state a), P has distinct pre/post passes (windows
// for d/e and f), C computes long enough to hit mid-flight windows, and a
// filler pinned ahead of P provides the queued window for state c.
func fig67Spec(state byte) gpcSpec {
	sp := gpcSpec{gPre: 600, pPre: 500, pPost: 2500, cCost: 2500}
	if state == 'c' {
		// Filler ahead of P on P's processor keeps P queued (placed, not
		// started).
		sp.filler = 2000
		sp.fillerFirst = true
		sp.fillerOnP = true
	}
	return sp
}

// fig67States names the states per Figure 6 and says where in the
// fault-free timeline each one is.
var fig67States = [7]struct {
	desc   string
	window func(t *gpcTimes) int64
}{
	// During G's pre-pass, before P's packet exists.
	{"before P is spawned", func(t *gpcTimes) int64 { return max(t.spawnP/2, 1) }},
	// Between P's spawn (packet sent) and its placement.
	{"P's packet in flight, unacknowledged", func(t *gpcTimes) int64 { return t.spawnP + 1 }},
	// P is placed but queued behind the filler.
	{"P settled and acknowledged, not yet running", func(t *gpcTimes) int64 { return t.placeP + 20 }},
	// Between C's spawn and C's placement.
	{"P running, C's packet in flight", func(t *gpcTimes) int64 { return t.spawnC + 1 }},
	// While C computes remotely and P waits.
	{"P running, C settled and computing", whileCRuns},
	// After C's result returned into P, during P's tail pass.
	{"C returned its result into P; P computing its tail", inPsSecondPass},
	// After P's result reached G.
	{"P completed; its result already delivered to G", func(t *gpcTimes) int64 { return t.fillG + 10 }},
}

// RunFig67State fails P's processor at state ('a'..'g') under the given
// scheme ("rollback" or "splice") and reports the outcome.
func RunFig67State(state byte, scheme string) (*Fig67Result, error) {
	if state < 'a' || state > 'g' {
		return nil, fmt.Errorf("scenario: Figure 6 has states a..g, not %q", state)
	}
	st, sp := fig67States[state-'a'], fig67Spec(state)
	out, rep, err := sp.replay(scheme, gpcFault{window: st.window})
	if err != nil {
		return nil, err
	}
	_, pS, cS, _ := sp.gpcStamps()
	return &Fig67Result{
		State: state, Scheme: scheme, Desc: st.desc, Outcome: out,
		PlacesP:   countEvents(rep.Log, trace.KPlace, pS),
		PlacesC:   countEvents(rep.Log, trace.KPlace, cS),
		Recovered: rep.Metrics.Reissues + rep.Metrics.Twins,
	}, nil
}
