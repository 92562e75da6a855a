package livenet

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// admissionDecisions runs the same bounded-admission stream — six identical
// slow requests against two in-flight slots under the shed policy — on the
// named backend and returns the per-ticket decision vector in submission
// order ("admit" / "shed"), after verifying every admitted answer and that
// the close ledger reconciles.
//
// Identical workloads make the vector backend-comparable: the sim admits a
// same-tick batch in canonical order (ties broken by submission order), and
// the live backend decides at Submit time, where a sub-millisecond
// submission loop is far faster than fib:13 completes on real goroutines.
// Either way, the first MaxInFlight submissions are admitted and the rest
// are shed.
func admissionDecisions(t *testing.T, backend string) []string {
	t.Helper()
	const requests, slots = 6, 2
	cl, err := core.OpenOn(backend, core.Config{Procs: 8, Seed: 7, Recovery: "rollback",
		MaxInFlight: slots, Admission: "shed"})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*core.Ticket
	for i := 0; i < requests; i++ {
		tk, err := cl.SubmitSpec("fib:13")
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	decisions := make([]string, 0, requests)
	for i, tk := range tickets {
		rep, err := tk.Wait()
		switch {
		case errors.Is(err, core.ErrShed):
			if rep == nil || !rep.Shed {
				t.Fatalf("%s ticket %d: shed error without shed report: %+v", backend, i, rep)
			}
			decisions = append(decisions, "shed")
		case err != nil:
			t.Fatalf("%s ticket %d: %v", backend, i, err)
		default:
			if _, err := tk.Verify(); err != nil {
				t.Fatalf("%s ticket %d: %v", backend, i, err)
			}
			decisions = append(decisions, "admit")
		}
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Offered != requests || sr.Admitted != slots || sr.Shed != requests-slots ||
		sr.Completed != slots || sr.Failed != 0 {
		t.Fatalf("%s ledger offered/admitted/shed/completed/failed = %d/%d/%d/%d/%d\n%s",
			backend, sr.Offered, sr.Admitted, sr.Shed, sr.Completed, sr.Failed, sr.Render())
	}
	return decisions
}

// TestAdmissionParitySimLive: an identical MaxInFlight configuration yields
// identical admitted/shed decisions on the request stream's order on both
// backends — the admission contract is backend-independent even though the
// sim decides on the virtual clock and the live cluster on the wall clock.
func TestAdmissionParitySimLive(t *testing.T) {
	sim := admissionDecisions(t, "sim")
	live := admissionDecisions(t, "live")
	if strings.Join(sim, ",") != strings.Join(live, ",") {
		t.Fatalf("decision vectors diverge:\nsim : %v\nlive: %v", sim, live)
	}
	want := "admit,admit,shed,shed,shed,shed"
	if got := strings.Join(sim, ","); got != want {
		t.Fatalf("decision vector = %s, want %s", got, want)
	}
}
