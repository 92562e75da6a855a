package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/faults"
)

// fakeBackend is a registrable stub whose Open fails, or whose session hands
// every request a canned outcome — the error-path probe for VerifyOn. Names
// sort after "sim" so the registry-order assertions elsewhere stay valid.
type fakeBackend struct {
	name string
	out  Outcome
	err  error
}

func (f fakeBackend) Name() string { return f.name }
func (f fakeBackend) Open(Config) (Session, error) {
	if f.err != nil {
		return nil, f.err
	}
	return fakeSession{f}, nil
}

type fakeSession struct{ f fakeBackend }

func (s fakeSession) Submit(Workload) (SessionRequest, error) { return s, nil }
func (s fakeSession) Inject(*faults.Plan) ([]int64, error)    { return nil, nil }
func (s fakeSession) Unit() TimeUnit                          { return Ticks }
func (s fakeSession) Wait() Outcome                           { return s.f.out }
func (s fakeSession) Close() (*Report, error) {
	return &Report{Backend: s.f.name, Unit: Ticks}, nil
}

var fakeOnce sync.Once

func registerFakes(t *testing.T) {
	t.Helper()
	fakeOnce.Do(func() {
		MustRegisterBackend(fakeBackend{name: "zz-err", err: errors.New("substrate exploded")})
		MustRegisterBackend(fakeBackend{name: "zz-incomplete", out: Outcome{Settled: 42}})
		MustRegisterBackend(fakeBackend{name: "zz-wrong", out: Outcome{Settled: 42, Answer: expr.VInt(-1)}})
		MustRegisterBackend(fakeBackend{name: "zz-reperr", out: Outcome{Settled: 42, Err: errors.New("evaluation blew up")}})
	})
}

// TestBackendsOrderIsDocumentedOrder: Backends() is sorted, and ByName's
// error text lists exactly that order — the two can't drift.
func TestBackendsOrderIsDocumentedOrder(t *testing.T) {
	registerFakes(t)
	names := Backends()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Backends() not sorted: %v", names)
	}
	_, err := ByName("nosuch")
	if err == nil {
		t.Fatal("unknown backend resolved")
	}
	want := fmt.Sprintf("core: unknown backend %q (known: %s)", "nosuch", strings.Join(names, ", "))
	if err.Error() != want {
		t.Fatalf("ByName error %q != %q", err, want)
	}
}

// TestVerifyOnErrorPaths covers every way VerifyOn can reject a run:
// backend error propagation, an incomplete run, the request's own
// evaluation error, and an answer that disagrees with the reference.
func TestVerifyOnErrorPaths(t *testing.T) {
	registerFakes(t)
	w, err := StandardWorkload("fib:8")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		backend string
		want    string
	}{
		{"zz-err", "substrate exploded"},
		{"zz-incomplete", "did not complete"},
		{"zz-reperr", "evaluation blew up"},
		{"zz-wrong", "!= reference"},
	}
	for _, c := range cases {
		_, err := VerifyOn(c.backend, Config{}, w, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("VerifyOn(%s) error = %v, want containing %q", c.backend, err, c.want)
		}
	}
	// The real simulator path: a crash under the "none" scheme can never
	// complete, and verify must say so (with the makespan and unit).
	plan := CrashPlan(0, 200, true)
	plan.Add(faults.Fault{At: 200, Proc: 1, Kind: faults.CrashAnnounced})
	_, err = VerifyOn("sim", Config{Procs: 4, Seed: 1, Recovery: "none", Deadline: 20000}, w, plan)
	if err == nil || !strings.Contains(err.Error(), "did not complete") {
		t.Fatalf("unrecovered crash verified: %v", err)
	}
	if !strings.Contains(err.Error(), string(Ticks)) {
		t.Fatalf("incomplete-run error %q does not name the unit", err)
	}
}

// TestClusterServiceStreamSim drives the whole service API on the
// simulator: multiplexed requests (including two different shape programs,
// whose generated function names collide — the per-packet program tag keeps
// them apart), mid-stream faults, per-request verification, and the
// stream-level report.
func TestClusterServiceStreamSim(t *testing.T) {
	specs := []string{
		"fib:10", "fib:11", "tree:2,4", "tak:8,4,2",
		"shape:uniform:3,3,4", "shape:skew:2,5,3",
	}
	cl, err := OpenOn("sim", Config{Procs: 8, Seed: 5, Recovery: "rollback", Arrival: "arrive:uniform:200"})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for _, spec := range specs {
		tk, err := cl.SubmitSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	if err := cl.Inject(CrashPlan(2, 700, true)); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		rep, err := tk.Verify()
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, specs[i], err)
		}
		if rep.DoneAt <= rep.ArrivedAt {
			t.Fatalf("request %d stamps: arrived %d done %d", i, rep.ArrivedAt, rep.DoneAt)
		}
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != len(specs) || sr.Failed != 0 {
		t.Fatalf("completed/failed = %d/%d\n%s", sr.Completed, sr.Failed, sr.Render())
	}
	if sr.DuringRecovery+sr.OutsideRecovery != sr.Completed {
		t.Fatalf("recovery-window split %d+%d != %d",
			sr.DuringRecovery, sr.OutsideRecovery, sr.Completed)
	}
	if len(sr.FaultStamps) != 1 || sr.FaultStamps[0] != 700 {
		t.Fatalf("fault stamps = %v", sr.FaultStamps)
	}
	if sr.Totals == nil || sr.Totals.Sim == nil {
		t.Fatal("stream totals missing sim detail")
	}
	if sr.Throughput <= 0 || sr.LatencyP99 < sr.LatencyP50 {
		t.Fatalf("aggregates: throughput %v p50 %d p99 %d", sr.Throughput, sr.LatencyP50, sr.LatencyP99)
	}
	// Submissions after Close fail fast on the ticket.
	if _, err := cl.Submit(Workload{}).Wait(); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// determinismSpecs are pairwise-distinguishable (distinct specs), so the
// canonical admission order is total and even the ticket↔slot binding is
// deterministic under concurrent submission.
var determinismSpecs = []string{
	"fib:8", "fib:9", "fib:10", "fib:11", "fib:12",
	"tree:2,3", "tree:2,4", "tree:3,3",
	"tak:7,4,2", "tak:8,4,2",
	"sumrange:40", "binom:9,4",
}

// streamRender opens a sim cluster, submits the specs (sequentially or from
// eight goroutines), injects the plan, and returns the rendered report.
func streamRender(t *testing.T, parallel bool) string {
	t.Helper()
	cl, err := OpenOn("sim", Config{Procs: 8, Seed: 7, Recovery: "rollback", Arrival: "arrive:uniform:150"})
	if err != nil {
		t.Fatal(err)
	}
	if parallel {
		var wg sync.WaitGroup
		for _, spec := range determinismSpecs {
			wg.Add(1)
			go func(spec string) {
				defer wg.Done()
				if _, err := cl.SubmitSpec(spec); err != nil {
					t.Error(err)
				}
			}(spec)
		}
		wg.Wait()
	} else {
		for _, spec := range determinismSpecs {
			if _, err := cl.SubmitSpec(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Inject(CrashPlan(3, 900, true)); err != nil {
		t.Fatal(err)
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != len(determinismSpecs) {
		t.Fatalf("stream incomplete:\n%s", sr.Render())
	}
	return sr.Render()
}

// TestClusterDeterminism: the rendered service report is byte-identical
// whether the requests were submitted sequentially or raced in from eight
// goroutines — the canonical admission order, not Submit interleaving,
// shapes the stream.
func TestClusterDeterminism(t *testing.T) {
	seq := streamRender(t, false)
	for run := 0; run < 3; run++ {
		par := streamRender(t, true)
		if par != seq {
			t.Fatalf("parallel submission diverged (run %d):\n--- sequential ---\n%s--- parallel ---\n%s",
				run, seq, par)
		}
	}
}

// TestConcurrentWaitSharesOneReport: eight goroutines Wait and Verify the
// same tickets, each starting at a different one, while four more submit
// further requests. Every goroutine gets the one memoized *RequestReport
// per ticket, and the stream renders as the sequential one does. Arrivals are
// spaced wider than any request takes, so a late request arrives at its
// scheduled tick whichever drive admits it; the late requests are identical
// workloads, so which ticket gets which stream index does not show.
func TestConcurrentWaitSharesOneReport(t *testing.T) {
	const gap, waiters, late = 50_000, 8, 4
	render := func(parallel bool) string {
		t.Helper()
		cl, err := OpenOn("sim", Config{Procs: 8, Seed: 7, Recovery: "rollback",
			Arrival: fmt.Sprintf("arrive:uniform:%d", gap)})
		if err != nil {
			t.Fatal(err)
		}
		var tickets []*Ticket
		for _, spec := range determinismSpecs {
			tk, err := cl.SubmitSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		// The first drive admits exactly this batch.
		if _, err := tickets[0].Wait(); err != nil {
			t.Fatal(err)
		}
		submitLate := func() {
			if _, err := cl.SubmitSpec("fib:10"); err != nil {
				t.Error(err)
			}
		}
		if parallel {
			got := make([][]*RequestReport, waiters)
			var wg sync.WaitGroup
			for g := range got {
				got[g] = make([]*RequestReport, len(tickets))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range tickets {
						k := (g + i) % len(tickets)
						rep, err := tickets[k].Verify()
						if err != nil {
							t.Error(err)
						}
						got[g][k] = rep
					}
				}()
			}
			for range late {
				wg.Add(1)
				go func() {
					defer wg.Done()
					submitLate()
				}()
			}
			wg.Wait()
			for g := range got {
				for k, rep := range got[g] {
					if want, _ := tickets[k].Wait(); rep != want {
						t.Errorf("waiter %d got report %p for ticket %d, whose memo is %p", g, rep, k, want)
					}
				}
			}
		} else {
			for range late {
				submitLate()
			}
		}
		sr, err := cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Completed != len(determinismSpecs)+late {
			t.Fatalf("stream incomplete:\n%s", sr.Render())
		}
		for _, rep := range sr.PerRequest {
			if rep.Makespan >= gap {
				t.Fatalf("request %d took %d ticks; the test needs every request done inside the %d-tick gap",
					rep.Request, rep.Makespan, gap)
			}
		}
		return sr.Render()
	}
	seq := render(false)
	for run := 0; run < 3; run++ {
		if par := render(true); par != seq {
			t.Fatalf("concurrent Wait diverged (run %d):\n--- sequential ---\n%s--- concurrent ---\n%s", run, seq, par)
		}
	}
}

// TestOneShotMatchesDegenerateStream: Config.Run and an explicit
// Open→Submit→Inject→Close single-request stream land on the identical
// simulation (same makespan, messages, event count, answer).
func TestOneShotMatchesDegenerateStream(t *testing.T) {
	w, err := StandardWorkload("fib:11")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Procs: 8, Seed: 9, Recovery: "rollback"}
	plan := CrashPlan(1, 400, true)
	one, err := cfg.Run(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := OpenOn("sim", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk := cl.Submit(w)
	if err := cl.Inject(plan); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Verify(); err != nil {
		t.Fatal(err)
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	tot := sr.Totals
	if tot.Makespan != one.Makespan || tot.Messages != one.Messages ||
		tot.Sim.Events != one.Sim.Events || !tot.Answer.Equal(one.Answer) {
		t.Fatalf("degenerate stream diverged from Run: %d/%d/%d vs %d/%d/%d",
			tot.Makespan, tot.Messages, tot.Sim.Events,
			one.Makespan, one.Messages, one.Sim.Events)
	}
}

// TestTicketErrorPaths: unknown entry functions and nil programs surface on
// the ticket, not the stream; the stream keeps serving around them.
func TestTicketErrorPaths(t *testing.T) {
	cl, err := OpenOn("sim", Config{Procs: 4, Seed: 1, Recovery: "rollback"})
	if err != nil {
		t.Fatal(err)
	}
	good, err := cl.SubmitSpec("fib:9")
	if err != nil {
		t.Fatal(err)
	}
	w, err := StandardWorkload("fib:9")
	if err != nil {
		t.Fatal(err)
	}
	bad := cl.Submit(Workload{Program: w.Program, Fn: "nosuch"})
	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown entry fn error = %v", err)
	}
	if _, err := good.Verify(); err != nil {
		t.Fatalf("good request poisoned by bad one: %v", err)
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != 1 || sr.Failed != 1 {
		t.Fatalf("completed/failed = %d/%d", sr.Completed, sr.Failed)
	}
}

// TestVerifyAll: shed and timed-out requests are counted as data unless
// strict, a strict failure names the request and closes the cluster, and a
// completed request with the wrong answer always fails.
func TestVerifyAll(t *testing.T) {
	registerFakes(t)
	open := func(backend string, cfg Config, n int) *Cluster {
		t.Helper()
		cl, err := OpenOn(backend, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := cl.SubmitSpec("fib:9"); err != nil {
				t.Fatal(err)
			}
		}
		return cl
	}
	shedding := Config{Procs: 4, Seed: 1, Recovery: "rollback", MaxInFlight: 1, Admission: "shed"}
	starved := Config{Procs: 4, Seed: 1, Deadline: 10}

	cl := open("sim", shedding, 3)
	if v, to, shed, err := cl.VerifyAll(false); err != nil || v != 1 || to != 0 || shed != 2 {
		t.Fatalf("shedding stream: verified/timedOut/shed = %d/%d/%d, err %v; want 1/0/2", v, to, shed, err)
	}
	if sr, err := cl.Close(); err != nil || sr.Completed != 1 || sr.Shed != 2 {
		t.Fatalf("Close after VerifyAll: %+v, %v", sr, err)
	}
	cl = open("sim", starved, 2)
	if v, to, shed, err := cl.VerifyAll(false); err != nil || v != 0 || to != 2 || shed != 0 {
		t.Fatalf("starved stream: verified/timedOut/shed = %d/%d/%d, err %v; want 0/2/0", v, to, shed, err)
	}

	for _, c := range []struct {
		backend string
		cfg     Config
		strict  bool
		want    string
	}{
		{"sim", shedding, true, "request 1 (fib:9): " + ErrShed.Error()},
		{"sim", starved, true, "request 0 (fib:9) did not complete within its budget"},
		{"zz-wrong", Config{}, false, "request 0 (fib:9): core: answer -1 != reference"},
	} {
		cl := open(c.backend, c.cfg, 3)
		if _, _, _, err := cl.VerifyAll(c.strict); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s strict=%v: error %v, want %q", c.backend, c.strict, err, c.want)
		}
		if _, err := cl.Submit(Workload{}).Wait(); err == nil || !strings.Contains(err.Error(), "cluster closed") {
			t.Errorf("%s strict=%v: cluster still open after a failed VerifyAll (%v)", c.backend, c.strict, err)
		}
	}
}
