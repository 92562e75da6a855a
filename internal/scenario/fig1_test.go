package scenario

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/proto"
)

func TestFig1TreeMatchesPaperStructure(t *testing.T) {
	tree, err := Fig1Tree()
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 17 {
		t.Fatalf("tree has %d nodes, want 17", len(tree.Nodes))
	}
	// Checkpoint distribution of §3: A holds B1; C holds B2, B3, B5;
	// D holds B7.
	wantHolders := map[string]proto.ProcID{
		"B1": ProcA, "B2": ProcC, "B3": ProcC, "B5": ProcC, "B7": ProcD,
	}
	for task, wantProc := range wantHolders {
		parent := tree.Nodes[task].Parent
		if got := tree.Nodes[parent].Proc; got != wantProc {
			t.Errorf("checkpoint holder of %s = proc %d, want %d", task, got, wantProc)
		}
	}
	// Grandparent pointers of Figure 2: B3 → A1, D4 → C1.
	gp := func(task string) string {
		return tree.Nodes[tree.Nodes[task].Parent].Parent
	}
	if gp("B3") != "A1" {
		t.Errorf("grandparent of B3 = %s, want A1", gp("B3"))
	}
	if gp("D4") != "C1" {
		t.Errorf("grandparent of D4 = %s, want C1", gp("D4"))
	}
	// B5 is a genealogical dependent of B2 through A2 (§3).
	stamps := tree.Stamps()
	if !stamps["B2"].IsAncestorOf(stamps["B5"]) {
		t.Error("B5 is not a descendant of B2")
	}
	if !stamps["A2"].IsAncestorOf(stamps["B5"]) {
		t.Error("B5 is not a descendant of A2")
	}
}

func TestFig1FragmentsMatchPaper(t *testing.T) {
	tree, err := Fig1Tree()
	if err != nil {
		t.Fatal(err)
	}
	frags := tree.Fragments(ProcB)
	want := [][]string{
		{"A1", "C1", "C2", "C3", "D3"},
		{"A2", "D1", "D2", "C4"},
		{"D4", "D5", "A5"},
	}
	norm := func(fs [][]string) []string {
		var out []string
		for _, f := range fs {
			g := append([]string(nil), f...)
			sort.Strings(g)
			out = append(out, joinNames(g))
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(norm(frags), norm(want)) {
		t.Fatalf("fragments = %v, want %v", norm(frags), norm(want))
	}
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		out += n
	}
	return out
}

func TestRunFig1Rollback(t *testing.T) {
	res, err := RunFig1Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("Figure 1 run did not complete correctly; metrics:\n%s", res.Metrics.String())
	}
	// §3.2: "command processor A to respawn B1, and command processor C to
	// regenerate B2 and B3" — and completeness also requires D to reissue
	// B7, which the paper's narration omits.
	wantReissue := map[string]proto.ProcID{
		"B1": ProcA, "B2": ProcC, "B3": ProcC, "B7": ProcD,
	}
	if !reflect.DeepEqual(res.Reissued, wantReissue) {
		t.Errorf("reissued = %v, want %v", res.Reissued, wantReissue)
	}
	// §3: "Reactivation of B5 only increases the system overhead" — the
	// topmost rule suppresses it.
	if len(res.Suppressed) != 1 || res.Suppressed[0] != "B5" {
		t.Errorf("suppressed = %v, want [B5]", res.Suppressed)
	}
	if res.Metrics.Reissues != 4 {
		t.Errorf("reissues = %d, want 4", res.Metrics.Reissues)
	}
	if res.Metrics.Suppressed != 1 {
		t.Errorf("suppressed counter = %d, want 1", res.Metrics.Suppressed)
	}
	// Rollback abandons the A2 fragment: at least some of {A2,D1,D2,C4}
	// must be aborted (eager scoped garbage collection).
	if res.Metrics.TasksAborted == 0 {
		t.Error("no tasks aborted; the doomed fragment was not collected")
	}
	// Exactly B1, B2, B3, B5, B7 are lost with processor B; spins live on
	// dedicated processors.
	if res.Metrics.TasksLost != 5 {
		t.Errorf("tasks lost = %d, want 5", res.Metrics.TasksLost)
	}
}

func TestRunFig23Splice(t *testing.T) {
	res, err := RunFig23Splice()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("Figures 2-3 run did not complete correctly; metrics:\n%s", res.Metrics.String())
	}
	// Every parent of a task lost on B twins it: A1→B1′, C1→B2′, C2→B3′,
	// C4→B5′, D3→B7′.
	wantTwins := map[string]proto.ProcID{
		"B1": ProcA, "B2": ProcC, "B3": ProcC, "B5": ProcC, "B7": ProcD,
	}
	if !reflect.DeepEqual(res.Twinned, wantTwins) {
		t.Errorf("twinned = %v, want %v", res.Twinned, wantTwins)
	}
	// Orphan results (D4's and A2's, at least) must flow through the
	// grandparent relay into the twins.
	if res.Metrics.OrphanResults == 0 {
		t.Error("no orphan results escalated")
	}
	if res.Metrics.Relayed == 0 {
		t.Error("no orphan results relayed to twins")
	}
	// Splice must not perform rollback reissues or abort survivors.
	if res.Metrics.Reissues != 0 {
		t.Errorf("splice performed %d reissues", res.Metrics.Reissues)
	}
	if res.Metrics.TasksAborted != 0 {
		t.Errorf("splice aborted %d tasks", res.Metrics.TasksAborted)
	}
}
