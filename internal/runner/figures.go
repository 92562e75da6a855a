package runner

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/proto"
	"repro/internal/scenario"
)

// The figure drivers render the fixed fault scenarios of the paper as
// markdown. They were previously inlined in cmd/experiments; living here,
// the CLI, the benchmarks and the tests all regenerate the same text.

// Fig1Markdown renders F1 — Figure 1's call tree and rollback recovery.
func Fig1Markdown() (string, error) {
	res, err := scenario.RunFig1Rollback()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("### F1 — Figure 1: call tree on processors A–D, rollback recovery\n\n")
	b.WriteString("**Paper claim (§2.2, §3).** Checkpoints live with the spawning parents:\n")
	b.WriteString("A holds B1; C holds B2, B3, B5; D holds B7. Failing B fragments the tree\n")
	b.WriteString("into three pieces; recovery reissues only the topmost checkpoints and\n")
	b.WriteString("suppresses B5 (\"Reactivation of B5 only increases the system overhead\").\n\n")
	fmt.Fprintf(&b, "- fault: announced crash of processor B at t=%d\n", res.FaultAt)
	fmt.Fprintf(&b, "- completed with correct answer: %v (answer %s)\n", res.Completed, res.Answer)
	fmt.Fprintf(&b, "- checkpoint holders: %s\n", holderString(res.CheckpointHolders))
	fmt.Fprintf(&b, "- fragments: %v\n", res.Fragments)
	fmt.Fprintf(&b, "- reissued: %s\n", holderString(res.Reissued))
	fmt.Fprintf(&b, "- suppressed: %v\n", res.Suppressed)
	fmt.Fprintf(&b, "- tasks lost with B: %d; reissues: %d; suppressed: %d\n",
		res.Metrics.TasksLost, res.Metrics.Reissues, res.Metrics.Suppressed)
	b.WriteString("\n")
	return b.String(), nil
}

// Fig23Markdown renders F2 — Figures 2–3's twin inheritance under splice.
func Fig23Markdown() (string, error) {
	res, err := scenario.RunFig23Splice()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("### F2 — Figures 2–3: grandparent pointers and twin inheritance, splice recovery\n\n")
	b.WriteString("**Paper claim (§4.1).** \"A twin task of B2, say B2', is created by the\n")
	b.WriteString("parent C1 to inherit tasks D4 and A2\"; orphan results flow through the\n")
	b.WriteString("grandparent relay to the step-parent.\n\n")
	fmt.Fprintf(&b, "- fault: announced crash of processor B at t=%d\n", res.FaultAt)
	fmt.Fprintf(&b, "- completed with correct answer: %v (answer %s)\n", res.Completed, res.Answer)
	fmt.Fprintf(&b, "- twins created: %s\n", holderString(res.Twinned))
	fmt.Fprintf(&b, "- orphan results escalated: %d; relayed to twins: %d; inherited without respawn: %d; duplicates ignored: %d\n",
		res.Metrics.OrphanResults, res.Metrics.Relayed, res.Metrics.Prefills, res.Metrics.DupResults)
	b.WriteString("\n")
	return b.String(), nil
}

// Fig5Markdown renders F5 — the eight orderings of C's completion.
func Fig5Markdown() (string, error) {
	var b strings.Builder
	b.WriteString("### F5 — Figure 5: the eight orderings of C's completion\n\n")
	b.WriteString("**Paper claim (§4.1).** Every ordering of C's completion relative to the\n")
	b.WriteString("failure of P and the twin's progress resolves to the correct answer with\n")
	b.WriteString("duplicates ignored and late results discarded.\n\n")
	b.WriteString("| case | ordering | correct | C placements | prefills | dups | lates |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for c := 1; c <= 8; c++ {
		res, err := scenario.RunFig5Case(c)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "| %d | %s | %v | %d | %d | %d | %d |\n",
			c, res.Desc, res.Completed, res.PlacesC, res.Metrics.Prefills, res.Metrics.DupResults, res.Metrics.LateResults)
	}
	b.WriteString("\n")
	return b.String(), nil
}

// Fig67Markdown renders F6 — the spawn-state sweep of Figures 6–7.
func Fig67Markdown() (string, error) {
	var b strings.Builder
	b.WriteString("### F6 — Figures 6–7: spawn states a–g and residue freedom\n\n")
	b.WriteString("**Paper claim (§4.3.2).** \"A residue-free fault tolerant measure must\n")
	b.WriteString("assure that tasks G and C are not affected by the failure of P from state\n")
	b.WriteString("a through state g.\"\n\n")
	b.WriteString("| state | situation | scheme | correct | recoveries | P places | C places |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, scheme := range []string{"rollback", "splice"} {
		for st := byte('a'); st <= 'g'; st++ {
			res, err := scenario.RunFig67State(st, scheme)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "| %c | %s | %s | %v | %d | %d | %d |\n",
				st, res.Desc, scheme, res.Completed, res.Recovered, res.PlacesP, res.PlacesC)
		}
	}
	b.WriteString("\n")
	return b.String(), nil
}

// MultiFaultMarkdown renders F7 — §5.2's ancestor-depth sweep.
func MultiFaultMarkdown() (string, error) {
	var b strings.Builder
	b.WriteString("### F7 — §5.2: simultaneous parent + grandparent failure vs ancestor depth K\n\n")
	b.WriteString("**Paper claim (§5.2).** \"if both the parent and grandparent processors of\n")
	b.WriteString("a task fail simultaneously, the orphan task would be stranded. It is noted\n")
	b.WriteString("that the resilient structure concept can be further extended to include\n")
	b.WriteString("pointers to the great grandparent and beyond.\"\n\n")
	b.WriteString("| ancestor depth K | correct | stranded results | relayed results | C placements |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, k := range []int{2, 3, 4} {
		res, err := scenario.RunMultiFaultBranch(k)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "| %d | %v | %d | %d | %d |\n",
			k, res.Completed, res.Metrics.Stranded, res.Metrics.Relayed, res.PlacesC)
	}
	b.WriteString("\n")
	b.WriteString("**Measured.** K=2 strands the orphan's result (both named ancestors are\n")
	b.WriteString("dead) and the twins recompute the subtree; K≥3 escalates past the dead pair\n")
	b.WriteString("and splices the partial result in. The answer is correct at every K.\n\n")
	return b.String(), nil
}

// holderString renders a checkpoint/twin holder map as "B2→C, B7→D".
func holderString(m map[string]proto.ProcID) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s→%s", k, m[k].Letter()))
	}
	return strings.Join(parts, ", ")
}
