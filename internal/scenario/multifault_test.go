package scenario

import "testing"

// TestMultiFaultBranchAncestorDepth verifies §5.2's stranding analysis: with
// the base design (K=2, parent + grandparent pointers) a simultaneous
// failure of both ancestors strands the orphan's result, forcing the twins
// to recompute the subtree; extending the chain to great-grandparents (K=3)
// salvages it. Completion with the correct answer is required either way.
func TestMultiFaultBranchAncestorDepth(t *testing.T) {
	k2, err := RunMultiFaultBranch(2)
	if err != nil {
		t.Fatal(err)
	}
	if !k2.Completed {
		t.Fatalf("K=2 did not complete:\n%s", k2.Metrics.String())
	}
	if k2.Metrics.Stranded == 0 {
		t.Error("K=2: orphan result was not stranded despite both ancestors dying")
	}
	k3, err := RunMultiFaultBranch(3)
	if err != nil {
		t.Fatal(err)
	}
	if !k3.Completed {
		t.Fatalf("K=3 did not complete:\n%s", k3.Metrics.String())
	}
	if k3.Metrics.Stranded != 0 {
		t.Errorf("K=3 stranded %d results; the great-grandparent pointer should salvage them", k3.Metrics.Stranded)
	}
	if k3.Metrics.Relayed == 0 {
		t.Error("K=3: no orphan result was relayed through the surviving ancestor")
	}
}
