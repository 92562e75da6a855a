package scenario

import "testing"

// TestFig5AllCasesRecover asserts the universal invariant of §4.1: whatever
// the ordering of C's completion relative to the failure and the twin, the
// program finishes with the correct answer and no duplicate value is ever
// consumed twice.
func TestFig5AllCasesRecover(t *testing.T) {
	for c := 1; c <= 8; c++ {
		res, err := RunFig5Case(c)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if !res.Completed {
			t.Errorf("case %d (%s): did not complete correctly; answer=%q\n%s",
				c, res.Desc, res.Answer, res.Metrics.String())
		}
	}
}

func TestFig5Case1NeverInvoked(t *testing.T) {
	res, err := RunFig5Case(1)
	if err != nil {
		t.Fatal(err)
	}
	// "Task C is practically nonexistent ... Only C' may produce an answer."
	if res.PlacesC != 1 {
		t.Errorf("C placed %d times, want 1 (only the twin's C')", res.PlacesC)
	}
	if res.Metrics.Twins != 1 {
		t.Errorf("twins = %d, want 1", res.Metrics.Twins)
	}
	if res.Metrics.Prefills != 0 || res.Metrics.OrphanResults != 0 {
		t.Errorf("case 1 should see no inheritance: prefills=%d orphans=%d", res.Metrics.Prefills, res.Metrics.OrphanResults)
	}
}

func TestFig5Case2NeverCompletes(t *testing.T) {
	res, err := RunFig5Case(2)
	if err != nil {
		t.Fatal(err)
	}
	// Original C dies with P; the twin respawns it.
	if res.PlacesC != 2 {
		t.Errorf("C placed %d times, want 2 (original + twin's)", res.PlacesC)
	}
	if res.CompletesC != 1 {
		t.Errorf("C completed %d times, want 1 (only the new one)", res.CompletesC)
	}
	if res.Metrics.TasksLost != 2 {
		t.Errorf("lost = %d, want 2 (P and C)", res.Metrics.TasksLost)
	}
}

func TestFig5Case3CompletedBeforeDeath(t *testing.T) {
	res, err := RunFig5Case(3)
	if err != nil {
		t.Fatal(err)
	}
	// "The recovery task P' must recalculate C by activating task C'."
	if res.PlacesC != 2 {
		t.Errorf("C placed %d times, want 2 (the result died inside P)", res.PlacesC)
	}
	if res.CompletesC != 2 {
		t.Errorf("C completed %d times, want 2", res.CompletesC)
	}
	if res.Metrics.Prefills != 0 {
		t.Errorf("case 3 cannot inherit (result was lost): prefills=%d", res.Metrics.Prefills)
	}
}

func TestFig5Case4LazyTwinInheritance(t *testing.T) {
	res, err := RunFig5Case(4)
	if err != nil {
		t.Fatal(err)
	}
	// The orphan result triggers the twin and pre-fills its demand:
	// "When child task C' is executed by task P', P' will not spawn C'
	// because the answer is already there."
	if res.PlacesC != 1 {
		t.Errorf("C placed %d times, want 1 (C' never spawned)", res.PlacesC)
	}
	if res.Metrics.Prefills != 1 {
		t.Errorf("prefills = %d, want 1", res.Metrics.Prefills)
	}
	if res.Metrics.OrphanResults != 1 {
		t.Errorf("orphan results = %d, want 1", res.Metrics.OrphanResults)
	}
	if res.Metrics.Twins != 1 {
		t.Errorf("twins = %d, want 1", res.Metrics.Twins)
	}
}

func TestFig5Case5EagerTwinInheritance(t *testing.T) {
	res, err := RunFig5Case(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlacesC != 1 {
		t.Errorf("C placed %d times, want 1", res.PlacesC)
	}
	if res.Metrics.Prefills != 1 {
		t.Errorf("prefills = %d, want 1", res.Metrics.Prefills)
	}
	if res.Metrics.Twins != 1 {
		t.Errorf("twins = %d, want 1", res.Metrics.Twins)
	}
}

func TestFig5Case6DuplicateIgnored(t *testing.T) {
	res, err := RunFig5Case(6)
	if err != nil {
		t.Fatal(err)
	}
	// C' was spawned; the original's result arrived first; the duplicate is
	// ignored: "Since they are identical, the second copy is simply ignored."
	if res.PlacesC != 2 {
		t.Errorf("C placed %d times, want 2", res.PlacesC)
	}
	if res.Metrics.DupResults == 0 {
		t.Error("no duplicate result was ignored")
	}
	if res.Metrics.Prefills != 0 {
		t.Errorf("prefills = %d, want 0 (C' was spawned)", res.Metrics.Prefills)
	}
}

func TestFig5Case7LateInvocationWinsRace(t *testing.T) {
	res, err := RunFig5Case(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlacesC != 2 {
		t.Errorf("C placed %d times, want 2", res.PlacesC)
	}
	if res.CompletesC != 2 {
		t.Errorf("C completed %d times, want 2", res.CompletesC)
	}
	// The twin's C' (on the spare processor) finishes before the original
	// (stuck behind the filler): late invocation yields a result faster,
	// and the original's later duplicate is ignored.
	if res.Metrics.DupResults == 0 {
		t.Error("the original's late result was not duplicate-ignored")
	}
}

func TestFig5Case8LateResultDiscarded(t *testing.T) {
	res, err := RunFig5Case(8)
	if err != nil {
		t.Fatal(err)
	}
	// "The processor which contained P' may no longer recognize the arrived
	// answer. The result is discarded."
	if res.Metrics.LateResults == 0 {
		t.Error("no late result was discarded")
	}
	if res.PlacesC != 2 {
		t.Errorf("C placed %d times, want 2", res.PlacesC)
	}
}
