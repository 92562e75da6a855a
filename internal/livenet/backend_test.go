package livenet

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/topology"
)

func TestBackendRegisteredAsLive(t *testing.T) {
	b, err := core.ByName("live")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "live" {
		t.Fatalf("name = %q", b.Name())
	}
}

func TestBackendFaultFreeRun(t *testing.T) {
	w, err := core.StandardWorkload("fib:12")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Config{Procs: 4, Seed: 1}.RunOn("live", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil || !rep.Completed {
		t.Fatalf("fault-free run failed: completed=%v err=%v", rep.Completed, rep.Err)
	}
	if rep.Backend != "live" || rep.Unit != core.WallMicros || rep.Sim != nil {
		t.Fatalf("report shape wrong: backend=%q unit=%q sim=%v", rep.Backend, rep.Unit, rep.Sim)
	}
	if rep.Makespan <= 0 || rep.Messages == 0 || rep.Spawned == 0 {
		t.Fatalf("counters empty: %+v", rep)
	}
	if rep.Reissued != 0 {
		t.Fatalf("fault-free run reissued %d", rep.Reissued)
	}
	if len(rep.ReissuesByNode) != 4 {
		t.Fatalf("per-node stats = %v, want 4 entries", rep.ReissuesByNode)
	}
}

// TestBackendKillDuringCascade replays a topology-generated cascade plan on
// the live cluster: the origin dies, then its mesh neighbors a wave later,
// all scheduled on the wall clock mid-run. The answer must still equal the
// sequential reference — determinacy (§2.1) under real, racing crashes.
func TestBackendKillDuringCascade(t *testing.T) {
	w, err := core.StandardWorkload("fib:14")
	if err != nil {
		t.Fatal(err)
	}
	want, err := lang.RefEval(w.Program, w.Fn, w.Args)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.ByName("mesh", 9)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		// Origin 4 (mesh center) at ~1ms, neighbors one wave and ~0.6ms
		// later: 5 of 9 nodes die while the tree is mid-flight.
		plan := faults.Cascade(topo, 4, 500, 300, 1, 1.0, faults.CrashSilent, seed)
		if got := len(plan.Procs()); got != 5 {
			t.Fatalf("cascade plan kills %d nodes, want 5", got)
		}
		rep, err := core.Config{Procs: 9, Seed: seed}.RunOn("live", w, plan)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err != nil {
			t.Fatalf("seed %d: %v", seed, rep.Err)
		}
		if !rep.Completed {
			t.Fatalf("seed %d: cascade recovery did not complete within the deadline "+
				"(spawned=%d reissued=%d drained=%d)", seed, rep.Spawned, rep.Reissued, rep.Drained)
		}
		if !rep.Answer.Equal(want) {
			t.Fatalf("seed %d: answer %v != reference %v", seed, rep.Answer, want)
		}
		var perNode int64
		for _, r := range rep.ReissuesByNode {
			perNode += r
		}
		if perNode > rep.Reissued {
			t.Fatalf("per-node reissues %d exceed total %d", perNode, rep.Reissued)
		}
	}
}

// TestBackendDeadlineFailsFast proves a too-tight deadline reports
// non-completion promptly instead of hanging: the satellite requirement
// that a wedged recovery fails CI fast.
func TestBackendDeadlineFailsFast(t *testing.T) {
	w, err := core.StandardWorkload("fib:16")
	if err != nil {
		t.Fatal(err)
	}
	startAt := time.Now()
	// Deadline is in virtual ticks: 500 ticks × 2µs = 1ms of wall clock.
	rep, err := core.Config{Procs: 4, Seed: 1, Deadline: 500}.RunOn("live", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed {
		t.Skip("machine finished fib:16 within 1ms; deadline not exercised")
	}
	if elapsed := time.Since(startAt); elapsed > 5*time.Second {
		t.Fatalf("deadline run took %v, want prompt return", elapsed)
	}
}

// TestBackendNoneScheme mirrors the simulator's "none": fault-free runs
// complete, but a kill loses work for good and the run reports
// non-completion at the (tight) deadline instead of hanging.
func TestBackendNoneScheme(t *testing.T) {
	w, err := core.StandardWorkload("fib:12")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Config{Procs: 4, Seed: 1, Recovery: "none"}.RunOn("live", w, nil)
	if err != nil || rep.Err != nil || !rep.Completed {
		t.Fatalf("fault-free none run failed: %v %v %+v", err, rep.Err, rep)
	}
	if rep.Scheme != "none" {
		t.Fatalf("scheme = %q", rep.Scheme)
	}
	// Deadline 50k ticks × 2µs = 100ms of wall clock; the kill at tick 1 —
	// before fib:12 can finish, now that a request takes about a millisecond
	// — strands whatever is placed on node 1 and nothing may be reissued.
	rep, err = core.Config{Procs: 4, Seed: 1, Recovery: "none", Deadline: 50_000}.RunOn("live",
		w, faults.Crash(1, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed {
		t.Skip("fib:12 finished before the kill landed; nothing to strand")
	}
	if rep.Reissued != 0 {
		t.Fatalf("none scheme reissued %d packets", rep.Reissued)
	}
}
