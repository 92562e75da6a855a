package machine

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// serveMachine opens a session on a fresh 8-proc mesh machine.
func serveMachine(t testing.TB, prog *lang.Program, scheme string, seed int64, sc ServeConfig) *Session {
	t.Helper()
	sch, err := recovery.ByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Topo: mustTopo(t, "mesh", 8), Scheme: sch, Seed: seed}, prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Serve(sc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// every is the uniform arrival schedule: request i is offered at tick i×gap.
func every(gap sim.Time) func(int) sim.Time {
	return func(i int) sim.Time { return sim.Time(i) * gap }
}

// TestSessionMultiRoot multiplexes several outstanding requests on one
// kernel and checks every answer against the reference evaluator, with
// completion stamps strictly inside the stream.
func TestSessionMultiRoot(t *testing.T) {
	prog := lang.Fib()
	s := serveMachine(t, prog, "rollback", 1, ServeConfig{NextArrival: every(500)})
	var reqs []*Req
	for _, n := range []int64{8, 9, 10, 11} {
		r, err := s.Submit(prog, "fib", []expr.Value{expr.VInt(n)})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	for i, r := range reqs {
		s.Wait(r)
		if !r.Done() {
			t.Fatalf("request %d did not complete", i)
		}
		want, err := lang.RefEval(prog, "fib", r.args)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Answer().Equal(want) {
			t.Fatalf("request %d answer %v, want %v", i, r.Answer(), want)
		}
		if r.DoneAt() <= r.Arrival() {
			t.Fatalf("request %d completion stamp %d not after arrival %d", i, r.DoneAt(), r.Arrival())
		}
	}
	if got := s.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after draining", got)
	}
	// Arrivals are spaced on the stream clock.
	if reqs[1].Arrival() != reqs[0].Arrival()+500 {
		t.Fatalf("arrival spacing: got %d and %d", reqs[0].Arrival(), reqs[1].Arrival())
	}
	rep := s.Finish()
	if !rep.Completed {
		t.Fatal("final report not completed")
	}
}

// TestSessionMixedPrograms submits requests from two different programs
// through one session: packets resolve their own program by tag.
func TestSessionMixedPrograms(t *testing.T) {
	fib, tak := lang.Fib(), lang.Tak()
	s := serveMachine(t, fib, "rollback", 2, ServeConfig{})
	r1, err := s.Submit(fib, "fib", []expr.Value{expr.VInt(9)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Submit(tak, "tak", []expr.Value{expr.VInt(8), expr.VInt(4), expr.VInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Req{r1, r2} {
		s.Wait(r)
		if !r.Done() {
			t.Fatalf("request %s did not complete", r.fn)
		}
	}
	want, err := lang.RefEval(tak, "tak", r2.args)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Answer().Equal(want) {
		t.Fatalf("tak answer %v, want %v", r2.Answer(), want)
	}
}

// TestSessionInjectMidStream crashes processors between requests: the first
// request runs fault-free, a mid-stream injection kills two processors, and
// the stream keeps answering with recovered results.
func TestSessionInjectMidStream(t *testing.T) {
	prog := lang.Fib()
	s := serveMachine(t, prog, "rollback", 3, ServeConfig{})
	r1, err := s.Submit(prog, "fib", []expr.Value{expr.VInt(10)})
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(r1)
	if !r1.Done() {
		t.Fatal("first request did not complete")
	}
	// The stream clock has advanced; inject faults relative to it and keep
	// serving.
	now := int64(s.Now())
	plan := faults.Crash(proto.ProcID(2), now+50, true)
	plan.Add(faults.Fault{At: now + 120, Proc: proto.ProcID(5), Kind: faults.CrashAnnounced})
	stamps, err := s.Inject(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 2 || stamps[0] != now+50 || stamps[1] != now+120 {
		t.Fatalf("stamps = %v, want [%d %d]", stamps, now+50, now+120)
	}
	r2, err := s.Submit(prog, "fib", []expr.Value{expr.VInt(11)})
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(r2)
	if !r2.Done() {
		t.Fatal("request after mid-stream kills did not complete")
	}
	want, err := lang.RefEval(prog, "fib", r2.args)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Answer().Equal(want) {
		t.Fatalf("answer %v, want %v", r2.Answer(), want)
	}
	rep := s.Finish()
	if rep.Metrics.Failures != 2 {
		t.Fatalf("failures = %d, want 2", rep.Metrics.Failures)
	}
}

// TestSessionPastFaultClamped verifies a fault injected with a stamp in the
// stream's past fires immediately instead of panicking the kernel.
func TestSessionPastFaultClamped(t *testing.T) {
	prog := lang.Fib()
	s := serveMachine(t, prog, "rollback", 4, ServeConfig{})
	r1, err := s.Submit(prog, "fib", []expr.Value{expr.VInt(8)})
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(r1)
	now := int64(s.Now())
	stamps, err := s.Inject(faults.Crash(proto.ProcID(1), 1, true)) // tick 1 long gone
	if err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 1 || stamps[0] != now {
		t.Fatalf("stamps = %v, want [%d]", stamps, now)
	}
	r2, err := s.Submit(prog, "fib", []expr.Value{expr.VInt(9)})
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(r2)
	if !r2.Done() {
		t.Fatal("request did not complete after clamped fault")
	}
}

// TestServeTwiceRejected: a machine serves once.
func TestServeTwiceRejected(t *testing.T) {
	prog := lang.Fib()
	s := serveMachine(t, prog, "none", 1, ServeConfig{})
	if _, err := s.m.Serve(ServeConfig{}); err == nil {
		t.Fatal("second Serve succeeded")
	}
	if _, err := s.Submit(prog, "nope", nil); err == nil {
		t.Fatal("unknown entry function accepted")
	}
}

// TestSessionRequestDeadline: a request that cannot finish (recovery "none"
// with a crash that destroys the root's work) resolves as not-done once its
// virtual budget is spent, while the session survives.
func TestSessionRequestDeadline(t *testing.T) {
	prog := lang.Fib()
	sch, err := recovery.ByName("none")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Topo: mustTopo(t, "mesh", 4), Scheme: sch, Seed: 1,
		Deadline: sim.Time(20000)}, prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Serve(ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Submit(prog, "fib", []expr.Value{expr.VInt(12)})
	if err != nil {
		t.Fatal(err)
	}
	// Kill every processor but one early: with no recovery the run can
	// never finish.
	plan := faults.Crash(proto.ProcID(0), 10, true)
	plan.Add(faults.Fault{At: 10, Proc: proto.ProcID(1), Kind: faults.CrashAnnounced})
	plan.Add(faults.Fault{At: 10, Proc: proto.ProcID(2), Kind: faults.CrashAnnounced})
	if _, err := s.Inject(plan); err != nil {
		t.Fatal(err)
	}
	s.Wait(r)
	if r.Done() {
		t.Fatal("unfinishable request reported done")
	}
	if got := s.Now(); got < 20000 {
		t.Fatalf("stream clock %d short of the request budget", got)
	}
	rep := s.Finish()
	if rep.Completed {
		t.Fatal("final report claims completion")
	}
}
