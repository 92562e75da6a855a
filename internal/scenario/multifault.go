package scenario

import (
	"errors"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/proto"
	"repro/internal/trace"
)

// MultiFaultResult is the outcome of the §5.2 same-branch double failure:
// the processors of a task's parent AND grandparent fail while the task
// computes. Metrics.Stranded counts orphan results with no live ancestor to
// escalate to, Metrics.Relayed the ones salvaged via an ancestor relay.
type MultiFaultResult struct {
	AncestorDepth int
	Outcome
	// PlacesC counts placements of the bottom task's stamp (1 = the orphan
	// result was inherited; 2 = the subtree was recomputed).
	PlacesC int
}

// RunMultiFaultBranch realizes §5.2's hard case with ancestor-pointer depth
// K: "if both the parent and grandparent processors of a task fail
// simultaneously, the orphan task would be stranded. It is noted that the
// resilient structure concept can be further extended to include pointers
// to the great grandparent and beyond."
//
// The chain is G → M → P → C on four distinct processors (M is the
// great-grandparent link target holder; G the root), where C is a slow leaf
// and the others are pass-through sums. P's and M's processors fail at the
// same instant while C computes. With K=2 C's eventual result can only name
// its dead parent and dead grandparent, so it strands and the twins
// recompute the subtree; with K=3 the result escalates to G's processor and
// is spliced in.
func RunMultiFaultBranch(ancestorDepth int) (*MultiFaultResult, error) {
	tree, err := NewTree([][3]string{
		{"G", "", ""},
		{"M", "G", ""},
		{"P", "M", ""},
		{"C", "P", ""},
	}, map[string]proto.ProcID{
		"G": 0, "M": 1, "P": 2, "C": 3,
	})
	if err != nil {
		return nil, err
	}
	prog, err := tree.Program(6000)
	if err != nil {
		return nil, err
	}
	stampC := tree.Stamps()["C"]
	out, rep, err := replay{
		prog: prog, entry: "tG", scheme: "splice",
		config: func() machine.Config {
			cfg := tree.config(4)
			cfg.AncestorDepth = ancestorDepth
			cfg.Deadline = 4_000_000
			return cfg
		},
		// Fault while C's spin child is computing (C itself waits).
		window: func(dry *machine.Report) (int64, error) {
			start := eventTime(dry.Log, trace.KStart, stampC.Child(0), 1)
			done := eventTime(dry.Log, trace.KComplete, stampC.Child(0), 1)
			if start < 0 || done <= start {
				return 0, errors.New("scenario: no fault window for multi-fault branch")
			}
			return (start + done) / 2, nil
		},
		// Simultaneous announced crashes of P's and M's processors.
		plan: func(at int64) *faults.Plan {
			return faults.None().
				Add(faults.Fault{At: at, Proc: 1, Kind: faults.CrashAnnounced}).
				Add(faults.Fault{At: at, Proc: 2, Kind: faults.CrashAnnounced})
		},
	}.run()
	if err != nil {
		return nil, err
	}
	return &MultiFaultResult{
		AncestorDepth: ancestorDepth,
		Outcome:       out,
		PlacesC:       countEvents(rep.Log, trace.KPlace, stampC),
	}, nil
}
