package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/lang"
)

// evalErrorProg divides and takes a remainder by fib(n) scaled by d and m:
// main(n, 0, m) fails with division by zero, main(n, d, 0) with modulo by
// zero, each once fib(n) is known, and main(n, 1, 1) answers.
var evalErrorProg = lang.MustParse(`
	fn fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2)
	fn quo(x) = 100 / x
	fn rem(x) = 100 % x
	fn main(n, d, m) = quo(fib(n) * d) + rem(fib(n) * m)`)

func evalErrorCall(n, d, m int64) Workload {
	return Workload{Program: evalErrorProg, Fn: "main", Args: []expr.Value{expr.VInt(n), expr.VInt(d), expr.VInt(m)}}
}

// TestEvalErrorStreamIsDeterministic: two requests that fail with different
// evaluation errors share a simulated stream, and a crash, with six good
// ones. Each bad ticket's Wait returns its own typed error, every good one
// verifies, Close counts two failures, and the rendered report — error rows
// included — is byte-identical at 1, 2 and 4 shards and when the requests
// race in from eight goroutines.
func TestEvalErrorStreamIsDeterministic(t *testing.T) {
	calls := []Workload{evalErrorCall(10, 1, 1), evalErrorCall(11, 0, 1), evalErrorCall(12, 1, 1),
		evalErrorCall(9, 1, 0), evalErrorCall(13, 1, 1), evalErrorCall(8, 1, 1),
		evalErrorCall(7, 1, 1), evalErrorCall(14, 1, 1)}
	bad := map[int]string{1: "division by zero", 3: "modulo by zero"}
	render := func(shards int, parallel bool) string {
		t.Helper()
		cl, err := OpenOn("sim", Config{Procs: 8, Seed: 7, Recovery: "rollback", Shards: shards, Arrival: "arrive:uniform:150"})
		if err != nil {
			t.Fatal(err)
		}
		tickets := make([]*Ticket, len(calls))
		if parallel {
			var wg sync.WaitGroup
			for g := range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := g; i < len(calls); i += 8 {
						tickets[i] = cl.Submit(calls[i])
					}
				}()
			}
			wg.Wait()
		} else {
			for i, w := range calls {
				tickets[i] = cl.Submit(w)
			}
		}
		if err := cl.Inject(CrashPlan(3, 900, true)); err != nil {
			t.Fatal(err)
		}
		for i, tk := range tickets {
			rep, err := tk.Verify()
			why, isBad := bad[i]
			switch {
			case !isBad && err != nil:
				t.Fatalf("main%v: %v", calls[i].Args, err)
			case isBad && (!errors.Is(err, lang.ErrEval) || !strings.HasSuffix(err.Error(), why) || rep.Err != err || rep.Request < 0):
				t.Fatalf("main%v: record %+v, error %v; want the %s on an admitted request", calls[i].Args, rep, err, why)
			}
		}
		sr, err := cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Completed != len(calls)-len(bad) || sr.Failed != len(bad) || sr.Reissued == 0 {
			t.Fatalf("completed/failed/reissued = %d/%d/%d, want %d/%d/some\n%s",
				sr.Completed, sr.Failed, sr.Reissued, len(calls)-len(bad), len(bad), sr.Render())
		}
		return sr.Render()
	}
	want := render(1, false)
	for _, c := range []struct {
		shards   int
		parallel bool
	}{{2, false}, {4, false}, {1, true}, {4, true}} {
		if got := render(c.shards, c.parallel); got != want {
			t.Fatalf("shards %d, parallel %v:\n%s--- want ---\n%s", c.shards, c.parallel, got, want)
		}
	}
}

// TestEvalErrorFreesOneSlot: with one slot, a request whose two tasks both
// fail settles once. Its first error installs the head of the queue, and its
// second frees nothing: the request queued behind that one is installed only
// when it completes.
func TestEvalErrorFreesOneSlot(t *testing.T) {
	cl, err := OpenOn("sim", Config{Procs: 8, Seed: 3, Recovery: "rollback", MaxInFlight: 1, Admission: "queue:2"})
	if err != nil {
		t.Fatal(err)
	}
	bad, first, second := cl.Submit(evalErrorCall(10, 0, 0)), cl.Submit(evalErrorCall(11, 1, 1)), cl.Submit(evalErrorCall(12, 1, 1))
	b, err := bad.Wait()
	if !errors.Is(err, lang.ErrEval) {
		t.Fatalf("main(10, 0, 0): record %+v, error %v", b, err)
	}
	f, err := first.Verify()
	if err != nil {
		t.Fatal(err)
	}
	s, err := second.Verify()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if f.ArrivedAt != b.ArrivedAt+b.Makespan || s.ArrivedAt != f.DoneAt || s.QueuedFor != f.DoneAt {
		t.Fatalf("installs: failed request settled at %d, first installed at %d and done at %d, second installed at %d after %d queued\n%s",
			b.ArrivedAt+b.Makespan, f.ArrivedAt, f.DoneAt, s.ArrivedAt, s.QueuedFor, sr.Render())
	}
	if sr.Admitted != 3 || sr.Completed != 2 || sr.Failed != 1 || sr.QueueDepthMax != 2 {
		t.Fatalf("ledger:\n%s", sr.Render())
	}
}
