package node_test

import (
	"errors"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	_ "repro/internal/livenet" // registers "live"
	"repro/internal/netnode"   // registers "net"
	"repro/internal/node"
	"repro/internal/proto"
)

// The conformance suite: everything a wall-clock backend owes the
// core.Session contract, run on every transport. Both share this package's
// node, super-root and session, so the rows can only diverge where a
// transport does.

// TestMain is the re-exec hook: a spawned "net" node process enters
// ChildMain and never reaches the test runner.
func TestMain(m *testing.M) {
	netnode.ChildMain()
	os.Exit(m.Run())
}

var backends = []string{"live", "net"}

// each runs fn as one subtest per wall-clock backend.
func each(t *testing.T, fn func(t *testing.T, backend string)) {
	for _, b := range backends {
		t.Run(b, func(t *testing.T) { fn(t, b) })
	}
}

func open(t *testing.T, backend string, cfg core.Config) *core.Cluster {
	t.Helper()
	cl, err := core.OpenOn(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func submitN(t *testing.T, cl *core.Cluster, spec string, n int) []*core.Ticket {
	t.Helper()
	var tickets []*core.Ticket
	for i := 0; i < n; i++ {
		tk, err := cl.SubmitSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	return tickets
}

// TestAdmissionQueue: the queue policy holds overflow submissions until a
// slot frees, so every request in an over-capacity burst still completes
// with a verified answer and the queue's high-water mark lands on the close
// report.
func TestAdmissionQueue(t *testing.T) {
	each(t, func(t *testing.T, backend string) {
		cl := open(t, backend, core.Config{Procs: 4, Seed: 9, Recovery: "rollback", MaxInFlight: 1, Admission: "queue"})
		for i, tk := range submitN(t, cl, "fib:12", 4) {
			if _, err := tk.Verify(); err != nil {
				t.Fatalf("ticket %d: %v", i, err)
			}
		}
		sr, err := cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Completed != 4 || sr.Shed != 0 || sr.Failed != 0 {
			t.Fatalf("completed/shed/failed = %d/%d/%d\n%s", sr.Completed, sr.Shed, sr.Failed, sr.Render())
		}
		if sr.QueueDepthMax == 0 {
			t.Fatalf("queue depth max = 0 for a 4-deep burst behind one slot\n%s", sr.Render())
		}
	})
}

// TestAdmissionBoundedQueue: queue:N queues up to N submissions behind the
// in-flight bound and sheds the rest at Submit time. One slot plus a depth-2
// queue admits three of five; the two queued completions report a positive
// time in queue, separate from their service latency.
func TestAdmissionBoundedQueue(t *testing.T) {
	each(t, func(t *testing.T, backend string) {
		cl := open(t, backend, core.Config{Procs: 4, Seed: 9, Recovery: "rollback", MaxInFlight: 1, Admission: "queue:2"})
		shed, queued := 0, 0
		for i, tk := range submitN(t, cl, "fib:12", 5) {
			rep, err := tk.Wait()
			if errors.Is(err, core.ErrShed) {
				shed++
				continue
			}
			if err != nil {
				t.Fatalf("ticket %d: %v", i, err)
			}
			if _, err := tk.Verify(); err != nil {
				t.Fatalf("ticket %d: %v", i, err)
			}
			if rep.QueuedFor > 0 {
				queued++
			}
		}
		if shed != 2 || queued != 2 {
			t.Fatalf("shed %d, queued with positive wait %d; want 2 and 2 (five offers, one slot, depth-2 queue)", shed, queued)
		}
		sr, err := cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Completed != 3 || sr.Shed != 2 || sr.Failed != 0 {
			t.Fatalf("completed/shed/failed = %d/%d/%d\n%s", sr.Completed, sr.Shed, sr.Failed, sr.Render())
		}
		if sr.QueueWaitP99 <= 0 {
			t.Fatalf("queue-wait p99 = %d, want > 0\n%s", sr.QueueWaitP99, sr.Render())
		}
	})
}

// TestAdmissionShed: the shed policy rejects overload at the offer, with a
// typed error and a shed report, and the close ledger reconciles.
func TestAdmissionShed(t *testing.T) {
	each(t, func(t *testing.T, backend string) {
		const requests, slots = 6, 2
		cl := open(t, backend, core.Config{Procs: 4, Seed: 7, Recovery: "rollback", MaxInFlight: slots, Admission: "shed"})
		for i, tk := range submitN(t, cl, "fib:13", requests) {
			rep, err := tk.Wait()
			switch {
			case i < slots:
				if _, err := tk.Verify(); err != nil {
					t.Fatalf("ticket %d: %v", i, err)
				}
			case !errors.Is(err, core.ErrShed) || rep == nil || !rep.Shed || rep.Completed:
				t.Fatalf("ticket %d: overload wait = %v, %+v; want core.ErrShed and a shed report", i, err, rep)
			}
		}
		sr, err := cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Offered != requests || sr.Admitted != slots || sr.Shed != requests-slots ||
			sr.Completed != slots || sr.Failed != 0 || sr.QueueDepthMax != 0 {
			t.Fatalf("ledger offered/admitted/shed/completed/failed = %d/%d/%d/%d/%d\n%s",
				sr.Offered, sr.Admitted, sr.Shed, sr.Completed, sr.Failed, sr.Render())
		}
	})
}

// TestRejectedKnobs: every simulator-only knob, malformed admission spec and
// unreplayable fault plan is refused — by Run, the way the one-shot callers
// meet it — with the same message on both backends, modulo the name.
func TestRejectedKnobs(t *testing.T) {
	w, err := core.StandardWorkload("fib:8")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cfg  core.Config
		plan *faults.Plan
		want string
	}{
		{core.Config{Recovery: "splice"}, nil, "recovery"},
		{core.Config{Placement: "gradient"}, nil, "placement"},
		{core.Config{Replication: map[string]int{"work": 3}}, nil, "replication"},
		{core.Config{DisableCheckpoints: true}, nil, "checkpoints"},
		{core.Config{HeartbeatEvery: 100}, nil, "HeartbeatEvery"},
		{core.Config{HeartbeatEvery: -1}, nil, "HeartbeatEvery"},
		{core.Config{StateProbeEvery: 64}, nil, "StateProbeEvery"},
		{core.Config{Eval: "jit"}, nil, "evaluator"},
		{core.Config{Admission: "lifo"}, nil, "unknown admission policy"},
		{core.Config{Admission: "drop"}, nil, "unknown admission policy"},
		{core.Config{Admission: "queue:0"}, nil, "unknown admission policy"},
		{core.Config{Admission: "queue:-1"}, nil, "unknown admission policy"},
		{core.Config{Admission: "queue:abc"}, nil, "unknown admission policy"},
		{core.Config{Admission: "queue:08"}, nil, "unknown admission policy"},
		{core.Config{Procs: 2}, &faults.Plan{Faults: []faults.Fault{{At: 1, Proc: 0, Kind: faults.Corrupt}}}, "corruption"},
		{core.Config{Procs: 2}, faults.Burst(2, 2, 1, faults.CrashAnnounced, 1), "survive"},
		{core.Config{Procs: 2}, faults.Crash(proto.ProcID(99), 1, true), "out of range"},
	}
	for _, tc := range cases {
		msgs := map[string]string{}
		for _, backend := range backends {
			_, err := tc.cfg.RunOn(backend, w, tc.plan)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: cfg %+v: err = %v, want containing %q", backend, tc.cfg, err, tc.want)
				continue
			}
			msgs[backend] = strings.TrimPrefix(err.Error(), backend+": ")
		}
		if msgs["live"] != msgs["net"] {
			t.Errorf("cfg %+v: messages differ beyond the backend name:\nlive: %s\nnet : %s", tc.cfg, msgs["live"], msgs["net"])
		}
	}
}

// TestSubstrateParity is §2.1's determinacy across substrates: the same
// fault-free workload, config and API complete with the reference answer on
// the simulator and on every wall-clock backend, and all of them unfold the
// identical task tree — the call tree is a pure function of the program, so
// Spawned agrees exactly. Three counts are pinned: the ones ROADMAP items 4
// and 5 cite. Every substrate accounts message bytes in the codec's units.
func TestSubstrateParity(t *testing.T) {
	cases := []struct {
		spec    string
		spawned int64 // 0: not pinned, only equal on every substrate
	}{
		{"fib:12", 465},
		{"tree:3,4", 121},
		{"tak:8,4,2", 137},
		{"shape:uniform:3,4,6", 0},
	}
	cfg := core.Config{Procs: 8, Seed: 1, Recovery: "rollback"}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			w, err := core.StandardWorkload(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.spawned
			for _, backend := range append([]string{"sim"}, backends...) {
				rep, err := core.VerifyOn(backend, cfg, w, nil)
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				if want == 0 {
					want = rep.Spawned
				}
				if rep.Spawned != want {
					t.Errorf("%s: spawned %d, want %d", backend, rep.Spawned, want)
				}
				if rep.MsgBytes <= 0 {
					t.Errorf("%s: no message bytes accounted", backend)
				}
			}
		})
	}
}

// The service stream: a batch of mixed workloads submitted concurrently to
// one open cluster.
const streamProcs, streamRequests = 6, 12

// serveStream serves the stream with the plan injected while the requests
// are being submitted, and requires every request to complete with the
// reference answer.
func serveStream(t *testing.T, backend string, plan *faults.Plan) *core.ServiceReport {
	t.Helper()
	cl := open(t, backend, core.Config{Procs: streamProcs, Seed: 11, Recovery: "rollback"})
	// Each request outlasts the milliseconds a loaded two-core host can
	// delay a submitting goroutine: with fib:10-sized requests a burst aimed
	// half a probe span in found, under `go test ./...`, only requests rooted
	// on survivors in flight about once in thirty runs, and reissued nothing.
	specs := []string{"fib:13", "fib:14", "tree:3,5", "tak:9,5,2"}
	var wg sync.WaitGroup
	tkCh := make(chan *core.Ticket, streamRequests)
	for i := 0; i < streamRequests; i++ {
		wg.Add(1)
		go func(spec string) {
			defer wg.Done()
			tk, err := cl.SubmitSpec(spec)
			if err != nil {
				t.Error(err)
				return
			}
			tkCh <- tk
		}(specs[i%len(specs)])
	}
	if plan != nil {
		if err := cl.Inject(plan); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(tkCh)
	for tk := range tkCh {
		if _, err := tk.Verify(); err != nil {
			t.Fatalf("request %q: %v", tk.Workload().Spec, err)
		}
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != streamRequests || sr.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0\n%s", sr.Completed, sr.Failed, streamRequests, sr.Render())
	}
	return sr
}

// TestServiceStream lands a two-node burst of kills in the middle of a
// service stream — half a fault-free probe stream's span in — and requires
// every request to complete with the reference answer, recovery to have
// reissued work, and at least one request to have been served while the
// cluster was crashing and recovering around it: online recovery, repair
// proceeding concurrently with request service.
func TestServiceStream(t *testing.T) {
	each(t, func(t *testing.T, backend string) {
		probe := serveStream(t, backend, nil)
		at := max(probe.Span/2/int64(node.DefaultTimescale/time.Microsecond), 1)
		sr := serveStream(t, backend, faults.Burst(streamProcs, 2, at, faults.CrashAnnounced, 7))
		if sr.Backend != backend || sr.Unit != core.WallMicros {
			t.Fatalf("backend/unit = %s/%s", sr.Backend, sr.Unit)
		}
		if len(sr.FaultStamps) != 2 {
			t.Fatalf("fault stamps = %v, want 2 kills", sr.FaultStamps)
		}
		if sr.LatencyP99 < sr.LatencyP50 || sr.LatencyP50 <= 0 || sr.Throughput <= 0 {
			t.Fatalf("aggregates inconsistent: mean %d p50 %d p99 %d throughput %v",
				sr.LatencyMean, sr.LatencyP50, sr.LatencyP99, sr.Throughput)
		}
		if sr.Messages == 0 || sr.MsgBytes == 0 {
			t.Fatalf("message accounting empty: %d msgs, %d bytes", sr.Messages, sr.MsgBytes)
		}
		if sr.Reissued == 0 {
			t.Fatalf("burst at tick %d (probe span %d µs) killed 2 nodes but nothing was reissued\n%s",
				at, probe.Span, sr.Render())
		}
		if sr.DuringRecovery == 0 {
			t.Fatalf("no request's service interval contains a kill (stamps %v, probe span %d µs)\n%s",
				sr.FaultStamps, probe.Span, sr.Render())
		}
	})
}

// TestSpawnedIncludesReissues: Report.Spawned counts every task packet sent,
// reissues included, exactly as the simulator's does. A run that completes
// sends each of the workload's tasks at least once, and every reissue is one
// more send of a packet already sent — so a faulted run's Spawned is at
// least the fault-free task count plus its reissues.
func TestSpawnedIncludesReissues(t *testing.T) {
	w, err := core.StandardWorkload("fib:16")
	if err != nil {
		t.Fatal(err)
	}
	each(t, func(t *testing.T, backend string) {
		cfg := core.Config{Procs: 6, Seed: 3, Recovery: "rollback", Deadline: 10_000_000}
		clean, err := core.VerifyOn(backend, cfg, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if clean.Reissued != 0 {
			t.Fatalf("fault-free run reissued %d", clean.Reissued)
		}
		// Aim the kill inside the run (Makespan is wall µs, a tick is 2 of
		// them); a kill that lands too late to cost anything proves nothing,
		// so try earlier and earlier instants.
		for _, at := range []int64{clean.Makespan/4 + 1, clean.Makespan/16 + 1, 1} {
			rep, err := core.VerifyOn(backend, cfg, w, faults.Crash(2, at, true))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Reissued == 0 {
				continue
			}
			if rep.Spawned < clean.Spawned+rep.Reissued {
				t.Fatalf("spawned %d < %d fault-free tasks + %d reissues: reissues are missing from Spawned",
					rep.Spawned, clean.Spawned, rep.Reissued)
			}
			var byNode int64
			for _, r := range rep.ReissuesByNode {
				byNode += r
			}
			if len(rep.ReissuesByNode) != cfg.Procs || byNode > rep.Reissued {
				t.Fatalf("per-node reissues %v against a total of %d", rep.ReissuesByNode, rep.Reissued)
			}
			return
		}
		t.Fatal("no kill instant cost a single reissue")
	})
}

// TestRootReissue kills the nodes hosting two requests' roots: the
// super-root is every root's parent and must reissue them from its retained
// packets.
func TestRootReissue(t *testing.T) {
	each(t, func(t *testing.T, backend string) {
		cl := open(t, backend, core.Config{Procs: 4, Seed: 5, Recovery: "rollback"})
		// Roots spread round-robin over the 4 nodes: requests 1 and 2 are
		// rooted on the nodes the plan kills at once.
		tickets := submitN(t, cl, "fib:13", 4)
		plan := core.CrashPlan(1, 1, true)
		plan.Add(faults.Fault{At: 1, Proc: 2, Kind: faults.CrashSilent})
		if err := cl.Inject(plan); err != nil {
			t.Fatal(err)
		}
		for i, tk := range tickets {
			if _, err := tk.Verify(); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
		sr, err := cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Reissued < 2 {
			t.Fatalf("reissued %d, want at least the two lost roots\n%s", sr.Reissued, sr.Render())
		}
	})
}

// TestCumulativeKillAllRejected: two plans that together would kill every
// node are rejected at the second Inject.
func TestCumulativeKillAllRejected(t *testing.T) {
	each(t, func(t *testing.T, backend string) {
		cl := open(t, backend, core.Config{Procs: 4, Seed: 1})
		defer cl.Close()
		plan1 := core.CrashPlan(0, 100, true)
		plan1.Add(faults.Fault{At: 100, Proc: 1, Kind: faults.CrashAnnounced})
		if err := cl.Inject(plan1); err != nil {
			t.Fatal(err)
		}
		plan2 := core.CrashPlan(2, 100000, true)
		plan2.Add(faults.Fault{At: 100000, Proc: 3, Kind: faults.CrashAnnounced})
		if err := cl.Inject(plan2); err == nil || !strings.Contains(err.Error(), "survive") {
			t.Fatalf("cumulative kill-all plan: err = %v", err)
		}
	})
}

// TestNoneTimesOutRatherThanWedging mirrors the simulator's "none":
// fault-free runs complete, but a kill loses work for good — here the root
// itself — and the run reports non-completion at its (tight) deadline, with
// nothing reissued, instead of hanging.
func TestNoneTimesOutRatherThanWedging(t *testing.T) {
	w, err := core.StandardWorkload("fib:12")
	if err != nil {
		t.Fatal(err)
	}
	each(t, func(t *testing.T, backend string) {
		rep, err := core.VerifyOn(backend, core.Config{Procs: 4, Seed: 1, Recovery: "none"}, w, nil)
		if err != nil || rep.Scheme != "none" {
			t.Fatalf("fault-free none run: %v %+v", err, rep)
		}
		// 100k ticks × 2µs = 200ms of wall clock; request 0 is rooted on node 0.
		start := time.Now()
		rep, err = core.Config{Procs: 4, Seed: 1, Recovery: "none", Deadline: 100_000}.
			RunOn(backend, w, faults.Crash(0, 1, true))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed || rep.Reissued != 0 {
			t.Fatalf("completed=%v reissued=%d after losing the root under none", rep.Completed, rep.Reissued)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("deadline run took %v, want prompt return", elapsed)
		}
	})
}

// TestBadTicketsFailAlone is one row run on every backend, the simulator
// included: a good ticket, a ticket with a nil program and a ticket with an
// unknown entry function share a stream. Each bad ticket's Wait errors, the
// good one verifies, and Close reports them as one completed and two failed
// requests — not as a stream error. (The simulator used to build its machine
// from the first ticket of the batch, so a nil program sorting first failed
// every ticket and the Close.)
func TestBadTicketsFailAlone(t *testing.T) {
	w, err := core.StandardWorkload("fib:9")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range append([]string{"sim"}, backends...) {
		t.Run(backend, func(t *testing.T) {
			cl := open(t, backend, core.Config{Procs: 4, Seed: 1, Recovery: "rollback"})
			good := cl.Submit(w)
			noProg := cl.Submit(core.Workload{Fn: "fib"})
			noFn := cl.Submit(core.Workload{Program: w.Program, Fn: "nosuch"})
			if _, err := noProg.Wait(); err == nil || !strings.Contains(err.Error(), "program required") {
				t.Errorf("nil program: err = %v", err)
			}
			if _, err := noFn.Wait(); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
				t.Errorf("unknown entry function: err = %v", err)
			}
			if _, err := good.Verify(); err != nil {
				t.Errorf("good ticket poisoned by its neighbours: %v", err)
			}
			sr, err := cl.Close()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			if sr.Completed != 1 || sr.Failed != 2 {
				t.Fatalf("completed/failed = %d/%d, want 1/2\n%s", sr.Completed, sr.Failed, sr.Render())
			}
		})
	}
}

// TestEvalErrorFailsTheRequest is one row run on every backend, the simulator
// included: a validated program that divides by zero in a subtask. The
// ticket's Wait returns the evaluator's typed error naming the task and
// where it ran. On the wall clock that is all that fails: no node dies (a
// panic in the node used to take the process down, and under rollback each
// reissue of the packet the next node in turn), the requests on either side
// of it in the stream verify, and Close counts one failure. The simulator
// fails the whole run with the error (machine.failRun).
var evalErrText = regexp.MustCompile(`^task 1\.[0-9.]+ on (processor|node) \d+: lang: eval: division by zero$`)

func TestEvalErrorFailsTheRequest(t *testing.T) {
	prog := lang.MustParse("fn f(x) = 10 / x\nfn main(n) = f(n) + f(n - 1) + f(n - 2)")
	call := func(n int64) core.Workload {
		return core.Workload{Program: prog, Fn: "main", Args: []expr.Value{expr.VInt(n)}}
	}
	for _, backend := range append([]string{"sim"}, backends...) {
		t.Run(backend, func(t *testing.T) {
			cl := open(t, backend, core.Config{Procs: 4, Seed: 1, Recovery: "rollback"})
			before, bad, after := cl.Submit(call(5)), cl.Submit(call(2)), cl.Submit(call(-1))
			_, err := bad.Wait()
			if !errors.Is(err, lang.ErrEval) || !evalErrText.MatchString(err.Error()) {
				t.Fatalf("main(2): err = %v, want lang.ErrEval reading %s", err, evalErrText)
			}
			if backend == "sim" {
				_, _ = cl.Close()
				return
			}
			for _, tk := range []*core.Ticket{before, after} {
				if _, err := tk.Verify(); err != nil {
					t.Errorf("a neighbour of the failed request: %v", err)
				}
			}
			sr, err := cl.Close()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			if sr.Completed != 2 || sr.Failed != 1 || sr.Reissued != 0 {
				t.Fatalf("completed/failed/reissued = %d/%d/%d, want 2/1/0 (a reissue means a node died)\n%s",
					sr.Completed, sr.Failed, sr.Reissued, sr.Render())
			}
		})
	}
}

// TestZeroConfigDefaults: a zero Config means the same machine on every
// backend — 8 processors, seed 1 — and differs only in the documented
// default scheme: "none" on the simulator, "rollback" on the wall clock.
func TestZeroConfigDefaults(t *testing.T) {
	if d := (core.Config{}).WithDefaults(); d.Procs != 8 || d.Seed != 1 || d.Eval != core.DefaultEval {
		t.Fatalf("WithDefaults() = procs %d, seed %d, eval %q", d.Procs, d.Seed, d.Eval)
	}
	w, err := core.StandardWorkload("fib:10")
	if err != nil {
		t.Fatal(err)
	}
	for backend, scheme := range map[string]string{"sim": "none", "live": "rollback", "net": "rollback"} {
		t.Run(backend, func(t *testing.T) {
			rep, err := core.VerifyOn(backend, core.Config{}, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Procs != 8 || rep.Scheme != scheme || rep.Placement != "random" {
				t.Fatalf("zero config ran on procs=%d scheme=%s placement=%s; want 8, %s, random",
					rep.Procs, rep.Scheme, rep.Placement, scheme)
			}
			if backend != "sim" {
				return
			}
			// The simulator is deterministic, so the seed is observable: the
			// zero config is the spelled-out one, event for event.
			want, err := core.VerifyOn("sim", core.Config{Procs: 8, Seed: 1, Recovery: "none"}, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Makespan != want.Makespan || rep.Counters != want.Counters || rep.Sim.Events != want.Sim.Events {
				t.Fatalf("zero config: makespan %d, %+v; spelled out: makespan %d, %+v",
					rep.Makespan, rep.Counters, want.Makespan, want.Counters)
			}
		})
	}
}

// TestCloseEndsWait: Close racing a Wait on a request that can never be
// answered returns the wait promptly — Completed false, no error — rather
// than holding it for the 30 s default budget. The request is a divergent
// program (every task demands one more), so no scheduling of the nodes, the
// waiter or the Close can let an answer through.
func TestCloseEndsWait(t *testing.T) {
	spin := core.Workload{Program: lang.MustParse("fn spin(n) = spin(n + 1)"), Fn: "spin",
		Args: []expr.Value{expr.VInt(0)}}
	each(t, func(t *testing.T, backend string) {
		b, err := core.ByName(backend)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := b.Open(core.Config{Procs: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		req, err := sess.Submit(spin)
		if err != nil {
			t.Fatal(err)
		}
		waited := make(chan *core.Report, 1)
		go func() {
			rep, err := req.Wait()
			if err != nil {
				t.Error(err)
			}
			waited <- rep
		}()
		time.Sleep(20 * time.Millisecond) // let the Wait block
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case rep := <-waited:
			if rep == nil || rep.Completed {
				t.Fatalf("wait after close reported %+v", rep)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Wait still blocked 5s after Close")
		}
	})
}
