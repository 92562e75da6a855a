package scenario

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/proto"
	"repro/internal/trace"
)

// Processor letters of Figure 1.
const (
	ProcA proto.ProcID = 0
	ProcB proto.ProcID = 1
	ProcC proto.ProcID = 2
	ProcD proto.ProcID = 3
)

// Fig1Tree reconstructs the call tree of Figure 1. The paper prescribes:
//
//   - task Ai runs on processor A, Bi on B, etc. (§3);
//   - "Processor A contains the functional checkpoint for B1, processor C
//     contains checkpoints for B2, B3 and B5, and processor D contains
//     checkpoints for B7" — so B1's parent is on A, B2/B3/B5's parents on C,
//     B7's parent on D;
//   - B5's checkpoint is held by task C4 and B5 is a genealogical dependent
//     of B2 through antecedent A2 (§3: "antecedent task A2 cannot report its
//     result to B2");
//   - the grandparent pointer of B3 points to A1 and that of D4 to C1
//     (Figure 2), so B3's parent is a child of A1 on C, and D4's parent is
//     B2 whose parent is C1;
//   - B2's offspring that survive are D4 and A2 (Figure 3);
//   - failing B fragments the tree into {A1,C1,C2,C3,D3}, {A2,D1,D2,C4} and
//     {D4,D5,A5}.
func Fig1Tree() (*Tree, error) {
	procs := map[string]proto.ProcID{
		"A1": ProcA, "A2": ProcA, "A5": ProcA,
		"B1": ProcB, "B2": ProcB, "B3": ProcB, "B5": ProcB, "B7": ProcB,
		"C1": ProcC, "C2": ProcC, "C3": ProcC, "C4": ProcC,
		"D1": ProcD, "D2": ProcD, "D3": ProcD, "D4": ProcD, "D5": ProcD,
	}
	rows := [][3]string{
		{"A1", "", ""},
		{"B1", "A1", ""},
		{"C1", "A1", ""},
		{"C2", "A1", ""},
		{"B2", "C1", ""},
		{"D4", "B2", ""},
		{"A2", "B2", ""},
		{"D5", "D4", ""},
		{"A5", "D5", ""},
		{"D1", "A2", ""},
		{"D2", "A2", ""},
		{"C4", "D2", ""},
		{"B5", "C4", ""},
		{"B3", "C2", ""},
		{"C3", "C2", ""},
		{"D3", "C3", ""},
		{"B7", "D3", ""},
	}
	return NewTree(rows, procs)
}

// Fig1Result captures everything the Figure 1 rollback scenario observed.
type Fig1Result struct {
	// Outcome: completed with the correct answer despite the failure of B.
	Outcome
	// CheckpointHolders maps each B-task to the processor that held its
	// functional checkpoint when B failed (§2.2's distribution).
	CheckpointHolders map[string]proto.ProcID
	// Reissued maps reissued task names to the reissuing processor.
	Reissued map[string]proto.ProcID
	// Suppressed lists checkpointed tasks NOT reissued (the B5 case).
	Suppressed []string
	// Fragments are the statically computed broken pieces.
	Fragments [][]string
}

// leafCostFig1 keeps leaves computing long enough that every task of the
// figure is simultaneously resident when B fails.
const leafCostFig1 = 3000

// replayFig1 builds the Figure 1 tree, waits until the whole tree is placed
// and fails processor B (announced) before the first leaf completes.
func replayFig1(scheme string) (*Tree, Outcome, *machine.Report, error) {
	tree, err := Fig1Tree()
	if err != nil {
		return nil, Outcome{}, nil, err
	}
	prog, err := tree.Program(leafCostFig1)
	if err != nil {
		return nil, Outcome{}, nil, err
	}
	out, rep, err := replay{
		prog: prog, entry: "tA1", scheme: scheme,
		config: func() machine.Config { return tree.config(4) },
		window: func(dry *machine.Report) (int64, error) {
			lastPlace, firstComplete := int64(-1), int64(1<<62)
			for _, e := range dry.Log.Events {
				switch e.Kind {
				case trace.KPlace:
					lastPlace = max(lastPlace, e.Time)
				case trace.KComplete:
					firstComplete = min(firstComplete, e.Time)
				}
			}
			if lastPlace < 0 || lastPlace >= firstComplete {
				return 0, fmt.Errorf("scenario: no fault window (lastPlace=%d firstComplete=%d)", lastPlace, firstComplete)
			}
			return (lastPlace + firstComplete) / 2, nil
		},
		plan: func(at int64) *faults.Plan { return faults.Crash(ProcB, at, true) },
	}.run()
	return tree, out, rep, err
}

// RunFig1Rollback executes the Figure 1 scenario under rollback recovery
// (§3) and observes the checkpoint distribution, the topmost reissues, and
// the B5 suppression.
func RunFig1Rollback() (*Fig1Result, error) {
	tree, out, rep, err := replayFig1("rollback")
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{
		Outcome:           out,
		CheckpointHolders: map[string]proto.ProcID{},
		Reissued:          tree.named(rep.Log, trace.KReissue),
		Fragments:         tree.Fragments(ProcB),
	}
	// Checkpoint holders at fault time: for each task pinned on B, the
	// processor of its parent (who retains the packet).
	for name, n := range tree.Nodes {
		if n.Proc == ProcB && n.Parent != "" {
			res.CheckpointHolders[name] = tree.Nodes[n.Parent].Proc
		}
	}
	res.Suppressed = slices.Sorted(maps.Keys(tree.named(rep.Log, trace.KSuppress)))
	return res, nil
}

// Fig23Result captures the splice walk-through of Figures 2–3; the orphan
// results escalated to ancestors, relayed to twins, inherited without
// respawning and ignored as duplicates are in Metrics.
type Fig23Result struct {
	Outcome
	// Twinned maps twinned task names to the processor that created the
	// step-parent (the parent task's processor).
	Twinned map[string]proto.ProcID
}

// RunFig23Splice executes Figures 2–3: the same tree and fault under splice
// recovery. C1 must create twin B2′; the orphan results of B2's offspring
// (D4, A2) must be relayed through their grandparent pointers and spliced
// into the recovered structure.
func RunFig23Splice() (*Fig23Result, error) {
	tree, out, rep, err := replayFig1("splice")
	if err != nil {
		return nil, err
	}
	return &Fig23Result{Outcome: out, Twinned: tree.named(rep.Log, trace.KTwin)}, nil
}
