package scenario

import "testing"

// TestFig67ResidueFreedom sweeps all seven states of Figure 6 under both
// recovery schemes: §4.3.2 demands that G and C are unaffected by the
// failure of P at any state, i.e. the answer is always correct.
func TestFig67ResidueFreedom(t *testing.T) {
	for _, scheme := range []string{"rollback", "splice"} {
		for state := byte('a'); state <= 'g'; state++ {
			t.Run(scheme+"/"+string(state), func(t *testing.T) {
				res, err := RunFig67State(state, scheme)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed {
					t.Fatalf("state %c (%s) under %s did not complete correctly; answer=%q\n%s",
						state, res.Desc, scheme, res.Answer, res.Metrics.String())
				}
			})
		}
	}
}

func TestFig67StateA(t *testing.T) {
	// "The failure of P obviously has no effect in state a" — P is simply
	// placed elsewhere; no recovery machinery fires.
	for _, scheme := range []string{"rollback", "splice"} {
		res, err := RunFig67State('a', scheme)
		if err != nil {
			t.Fatal(err)
		}
		if res.Recovered != 0 {
			t.Errorf("%s state a: %d recoveries, want 0", scheme, res.Recovered)
		}
		if res.PlacesP != 1 {
			t.Errorf("%s state a: P placed %d times, want 1", scheme, res.PlacesP)
		}
	}
}

func TestFig67StateB(t *testing.T) {
	// "processor G times out and reissues a new task P. The system acts as
	// if the first invocation of P did not take place." The in-flight packet
	// is lost; the retry is a placement-level reissue, not a checkpoint
	// recovery.
	for _, scheme := range []string{"rollback", "splice"} {
		res, err := RunFig67State('b', scheme)
		if err != nil {
			t.Fatal(err)
		}
		if res.PlacesP != 1 {
			t.Errorf("%s state b: P placed %d times, want 1 (first packet died in flight)", scheme, res.PlacesP)
		}
		if res.Recovered != 0 {
			t.Errorf("%s state b: %d checkpoint recoveries, want 0 (timeout reissue suffices)", scheme, res.Recovered)
		}
	}
}

func TestFig67StateC(t *testing.T) {
	// P settled and acknowledged: G holds the pointer and the checkpoint;
	// recovery reissues (or twins) it.
	for _, scheme := range []string{"rollback", "splice"} {
		res, err := RunFig67State('c', scheme)
		if err != nil {
			t.Fatal(err)
		}
		if res.Recovered == 0 {
			t.Errorf("%s state c: no recovery fired", scheme)
		}
		if res.PlacesC != 1 {
			t.Errorf("%s state c: C placed %d times, want 1 (P never ran before the fault)", scheme, res.PlacesC)
		}
	}
}

func TestFig67StateDandE(t *testing.T) {
	// "there is a child task C lingering around the system. ... C sends the
	// result to G after failing to communicate with parent P" (splice), or
	// commits suicide (rollback).
	for _, state := range []byte{'d', 'e'} {
		rb, err := RunFig67State(state, "rollback")
		if err != nil {
			t.Fatal(err)
		}
		if rb.PlacesC != 2 {
			t.Errorf("rollback state %c: C placed %d times, want 2 (orphan + recomputed)", state, rb.PlacesC)
		}
		if rb.Metrics.TasksAborted == 0 {
			t.Errorf("rollback state %c: orphan C did not commit suicide", state)
		}
		sp, err := RunFig67State(state, "splice")
		if err != nil {
			t.Fatal(err)
		}
		if sp.Metrics.OrphanResults == 0 {
			t.Errorf("splice state %c: orphan result was not escalated", state)
		}
		if sp.Metrics.TasksAborted != 0 {
			t.Errorf("splice state %c: %d tasks aborted, want 0 (salvage, not discard)", state, sp.Metrics.TasksAborted)
		}
	}
}

func TestFig67StateF(t *testing.T) {
	// C's result died inside P: recovery must recompute C (case 3 of the
	// Figure 5 analysis).
	for _, scheme := range []string{"rollback", "splice"} {
		res, err := RunFig67State('f', scheme)
		if err != nil {
			t.Fatal(err)
		}
		if res.PlacesC != 2 {
			t.Errorf("%s state f: C placed %d times, want 2", scheme, res.PlacesC)
		}
		if res.Recovered == 0 {
			t.Errorf("%s state f: no recovery fired", scheme)
		}
	}
}

func TestFig67StateG(t *testing.T) {
	// P's result already reached G: its checkpoint was released; the
	// failure is invisible.
	for _, scheme := range []string{"rollback", "splice"} {
		res, err := RunFig67State('g', scheme)
		if err != nil {
			t.Fatal(err)
		}
		if res.Recovered != 0 {
			t.Errorf("%s state g: %d recoveries, want 0", scheme, res.Recovered)
		}
		if res.PlacesC != 1 || res.PlacesP != 1 {
			t.Errorf("%s state g: placements P=%d C=%d, want 1/1", scheme, res.PlacesP, res.PlacesC)
		}
	}
}
