package machine

import (
	"fmt"
	"testing"

	"repro/internal/balance"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/stamp"
	"repro/internal/topology"
	"repro/internal/trace"
)

// mustTopo builds a topology or fails the test.
func mustTopo(t testing.TB, kind string, n int) topology.Topology {
	t.Helper()
	topo, err := topology.ByName(kind, n)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// runMachine builds and runs a machine, failing the test on setup errors.
func runMachine(t testing.TB, cfg Config, prog *lang.Program, fn string, args []expr.Value, plan *faults.Plan) *Report {
	t.Helper()
	_, rep := runKept(t, cfg, prog, fn, args, plan)
	return rep
}

// runKept is runMachine that also returns the machine, for tests that read
// its processors after the run.
func runKept(t testing.TB, cfg Config, prog *lang.Program, fn string, args []expr.Value, plan *faults.Plan) (*Machine, *Report) {
	t.Helper()
	m, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(fn, args, plan)
	if err != nil {
		t.Fatal(err)
	}
	return m, rep
}

// expectAnswer checks the report completed with the reference answer.
func expectAnswer(t *testing.T, rep *Report, prog *lang.Program, fn string, args []expr.Value) {
	t.Helper()
	want, err := lang.RefEval(prog, fn, args)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("run did not complete (makespan=%d, metrics:\n%s)", rep.Makespan, rep.Metrics.String())
	}
	if !rep.Answer.Equal(want) {
		t.Fatalf("answer = %v, want %v", rep.Answer, want)
	}
}

func TestFaultFreeFibMatchesReference(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(12)}
	for _, placement := range []balance.Policy{
		balance.NewRandom(), balance.NewStaticHash(), balance.NewGradient(), balance.NewLocal(),
	} {
		cfg := Config{Topo: mustTopo(t, "mesh", 8), Placement: placement, Seed: 1}
		rep := runMachine(t, cfg, prog, "fib", args, nil)
		expectAnswer(t, rep, prog, "fib", args)
		if rep.Metrics.TasksLeaked != 0 {
			t.Errorf("%s: %d tasks leaked in fault-free run", placement.Name(), rep.Metrics.TasksLeaked)
		}
		if rep.Metrics.TasksAborted != 0 {
			t.Errorf("%s: %d tasks aborted in fault-free run", placement.Name(), rep.Metrics.TasksAborted)
		}
	}
}

// TestFaultFreeLargeMachinesSuspectNobody pins the failure detector's
// contract past one heartbeat period of processors: with no fault injected,
// nobody is ever suspected, so nothing is lost, wasted or left behind — no
// checkpoint either.
func TestFaultFreeLargeMachinesSuspectNobody(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(13)}
	for _, kind := range []string{"torus", "mesh", "hypercube"} {
		for _, n := range []int{256, 512} {
			t.Run(fmt.Sprintf("%s-%d", kind, n), func(t *testing.T) {
				cfg := Config{Topo: mustTopo(t, kind, n), Scheme: recovery.Rollback(), Seed: 1}
				mach, rep := runKept(t, cfg, prog, "fib", args, nil)
				expectAnswer(t, rep, prog, "fib", args)
				m := rep.Metrics
				if m.Detections != 0 || m.TasksLeaked != 0 || m.StepsWasted != 0 {
					t.Errorf("fault-free run: %d detections, %d tasks leaked, %d steps wasted; want 0/0/0",
						m.Detections, m.TasksLeaked, m.StepsWasted)
				}
				expectReleased(t, mach)
			})
		}
	}
}

// TestFaultFreeCheckpointsReleased: a fault-free run ends with every
// processor's and the host's checkpoint store empty, under every scheme —
// each retained packet released once its result arrived.
func TestFaultFreeCheckpointsReleased(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(13)}
	for _, kind := range []string{"torus", "mesh", "hypercube"} {
		for _, scheme := range []recovery.Scheme{recovery.Rollback(), recovery.Splice(), recovery.Incremental(), recovery.None()} {
			t.Run(kind+"-64/"+scheme.Name(), func(t *testing.T) {
				cfg := Config{Topo: mustTopo(t, kind, 64), Scheme: scheme, Seed: 1}
				mach, rep := runKept(t, cfg, prog, "fib", args, nil)
				expectAnswer(t, rep, prog, "fib", args)
				expectReleased(t, mach)
			})
		}
	}
}

// expectReleased fails unless every checkpoint store of m is empty.
func expectReleased(t *testing.T, m *Machine) {
	t.Helper()
	for _, p := range append(append([]*proc(nil), m.procs...), m.host) {
		if n := p.store.Len(); n != 0 {
			t.Errorf("processor %v still holds %d checkpoints", p.id, n)
		}
	}
}

// expectSlotsOwned fails unless every live processor's store holds exactly
// the checkpoints under its resident, unaborted tasks' unfilled holes: each
// checkpoint is released, or its owner dead.
func expectSlotsOwned(t *testing.T, m *Machine) {
	t.Helper()
	for _, p := range append(append([]*proc(nil), m.procs...), m.host) {
		held := 0
		for _, tk := range p.tasks {
			for _, h := range tk.holes {
				if tk.state == taskAborted || h == nil || h.filled {
					continue
				}
				for _, c := range h.children {
					if c.Packet != nil {
						held++
					}
				}
			}
		}
		if n := p.store.Len(); !p.dead && n != held {
			t.Errorf("processor %v holds %d checkpoints, %d of them under its open holes", p.id, n, held)
		}
	}
}

func TestFaultFreeAllProgramsAllTopologies(t *testing.T) {
	cases := []struct {
		name string
		prog *lang.Program
		fn   string
		args []expr.Value
	}{
		{"fib", lang.Fib(), "fib", []expr.Value{expr.VInt(10)}},
		{"tak", lang.Tak(), "tak", []expr.Value{expr.VInt(6), expr.VInt(3), expr.VInt(1)}},
		{"nqueens", lang.NQueens(), "nqueens", []expr.Value{expr.VInt(4)}},
		{"sumrange", lang.SumRange(8), "sumrange", []expr.Value{expr.VInt(0), expr.VInt(48)}},
		{"msort", lang.MergeSort(), "msort", []expr.Value{expr.IntList(4, 2, 9, 1)}},
		{"tree", lang.TreeSum(3), "tree", []expr.Value{expr.VInt(3)}},
	}
	topos := []string{"ring", "mesh", "complete"}
	for _, tc := range cases {
		for _, kind := range topos {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				cfg := Config{Topo: mustTopo(t, kind, 6), Seed: 7}
				rep := runMachine(t, cfg, tc.prog, tc.fn, tc.args, nil)
				expectAnswer(t, rep, tc.prog, tc.fn, tc.args)
			})
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(11)}
	run := func() *Report {
		cfg := Config{Topo: mustTopo(t, "mesh", 8), Placement: balance.NewGradient(), Seed: 42}
		return runMachine(t, cfg, prog, "fib", args, faults.Crash(3, 900, false))
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Events != b.Events {
		t.Fatalf("replay diverged: makespan %d vs %d, events %d vs %d",
			a.Makespan, b.Makespan, a.Events, b.Events)
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("replay metrics diverged:\n%s\nvs\n%s", a.Metrics.String(), b.Metrics.String())
	}
}

func TestRollbackSurvivesAnnouncedCrash(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(12)}
	cfg := Config{
		Topo: mustTopo(t, "mesh", 8), Scheme: recovery.Rollback(),
		Seed: 3, Trace: trace.NewLog(),
	}
	rep := runMachine(t, cfg, prog, "fib", args, faults.Crash(2, 800, true))
	expectAnswer(t, rep, prog, "fib", args)
	if rep.Metrics.Failures != 1 {
		t.Fatalf("failures = %d", rep.Metrics.Failures)
	}
	if rep.Metrics.Reissues == 0 {
		t.Error("rollback recovered without reissuing any checkpoint")
	}
	if rep.Metrics.TasksLost == 0 {
		t.Error("crash at t=800 lost no tasks — fault landed after completion?")
	}
}

func TestRollbackSurvivesSilentCrash(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(12)}
	cfg := Config{Topo: mustTopo(t, "mesh", 8), Scheme: recovery.Rollback(), Seed: 4}
	rep := runMachine(t, cfg, prog, "fib", args, faults.Crash(2, 800, false))
	expectAnswer(t, rep, prog, "fib", args)
	if rep.Metrics.FirstDetections != 1 {
		t.Fatalf("first detections = %d, want 1", rep.Metrics.FirstDetections)
	}
	if rep.Metrics.DetectLatencySum <= 0 {
		t.Error("silent crash detected with zero latency")
	}
}

func TestSpliceSurvivesCrash(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(12)}
	for _, announced := range []bool{true, false} {
		cfg := Config{Topo: mustTopo(t, "mesh", 8), Scheme: recovery.Splice(), Seed: 5}
		rep := runMachine(t, cfg, prog, "fib", args, faults.Crash(2, 800, announced))
		expectAnswer(t, rep, prog, "fib", args)
		if rep.Metrics.Twins == 0 {
			t.Errorf("announced=%v: splice recovered without twins", announced)
		}
		if rep.Metrics.Reissues != 0 {
			t.Errorf("announced=%v: splice performed rollback reissues", announced)
		}
	}
}

func TestNoRecoveryHangsAfterCrash(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(10)}
	cfg := Config{
		Topo: mustTopo(t, "mesh", 8), Scheme: recovery.None(), Seed: 6,
		Deadline: 60_000,
	}
	rep := runMachine(t, cfg, prog, "fib", args, faults.Crash(1, 500, true))
	if rep.Completed {
		// The fault may have landed after the run finished; force it early.
		t.Skip("program finished before fault; covered by other seeds")
	}
	if rep.Metrics.TasksLost == 0 {
		t.Error("crash lost no tasks")
	}
}

func TestCrashOfRootProcessorIsRecoveredBySuperRoot(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(9)}
	// Pin the root task (stamp "0", the host's first demand) onto processor
	// 0 and kill processor 0 mid-run: the host (super-root) must regenerate
	// the root from its pre-evaluation checkpoint (§4.3.1).
	pin := map[string]proto.ProcID{stamp.FromPath(0).Key(): 0}
	for _, scheme := range []recovery.Scheme{recovery.Rollback(), recovery.Splice()} {
		t.Run(scheme.Name(), func(t *testing.T) {
			cfg := Config{
				Topo:      mustTopo(t, "mesh", 6),
				Placement: balance.NewPinned(pin, balance.NewRandom()),
				Scheme:    scheme, Seed: 8,
			}
			rep := runMachine(t, cfg, prog, "fib", args, faults.Crash(0, 600, true))
			expectAnswer(t, rep, prog, "fib", args)
		})
	}
}

func TestMultipleFaultsOnSeparateBranches(t *testing.T) {
	prog := lang.TreeSum(4)
	args := []expr.Value{expr.VInt(5)}
	plan := faults.None().
		Add(faults.Fault{At: 700, Proc: 1, Kind: faults.CrashAnnounced}).
		Add(faults.Fault{At: 1800, Proc: 5, Kind: faults.CrashAnnounced})
	for _, scheme := range []recovery.Scheme{recovery.Rollback(), recovery.Splice()} {
		t.Run(scheme.Name(), func(t *testing.T) {
			cfg := Config{Topo: mustTopo(t, "mesh", 9), Scheme: scheme, Seed: 9}
			rep := runMachine(t, cfg, prog, "tree", args, plan)
			expectAnswer(t, rep, prog, "tree", args)
			if rep.Metrics.Failures != 2 {
				t.Fatalf("failures = %d, want 2 (makespan %d)", rep.Metrics.Failures, rep.Makespan)
			}
		})
	}
}

func TestRecoverySweepAcrossFaultTimesAndSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(11)}
	want, _ := lang.RefEval(prog, "fib", args)
	schemes := []recovery.Scheme{recovery.Rollback(), recovery.RollbackLazy(), recovery.Splice()}
	for _, scheme := range schemes {
		for seed := int64(0); seed < 4; seed++ {
			for _, at := range []int64{200, 600, 1200, 2400, 4800} {
				for _, announced := range []bool{true, false} {
					name := fmt.Sprintf("%s/seed%d/t%d/a%v", scheme.Name(), seed, at, announced)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Topo: mustTopo(t, "mesh", 8), Scheme: scheme, Seed: seed}
						proc := proto.ProcID(1 + seed%4)
						rep := runMachine(t, cfg, prog, "fib", args,
							faults.Crash(proc, at, announced))
						if !rep.Completed {
							t.Fatalf("did not complete:\n%s", rep.Metrics.String())
						}
						if !rep.Answer.Equal(want) {
							t.Fatalf("answer = %v, want %v", rep.Answer, want)
						}
					})
				}
			}
		}
	}
}

func TestReplicationMasksCorruptProcessor(t *testing.T) {
	// §5.3 critical sections: the replicated "work" calls vote away the
	// corrupt processor's answers.
	prog := lang.CriticalSections(10, 300)
	plan := &faults.Plan{Faults: []faults.Fault{{At: 0, Proc: 3, Kind: faults.Corrupt}}}
	cfg := Config{
		Topo: mustTopo(t, "mesh", 8), Seed: 10,
		Replication: map[string]int{"work": 3},
	}
	rep := runMachine(t, cfg, prog, "main", nil, plan)
	expectAnswer(t, rep, prog, "main", nil)
	if rep.Metrics.Votes == 0 {
		t.Error("no majority votes recorded")
	}
	if rep.Metrics.VoteMismatches == 0 {
		t.Error("corrupt processor produced no outvoted values")
	}
}

func TestReplicationDoesNotCompound(t *testing.T) {
	// Replicating a recursive function must produce R complete lineages,
	// not R^depth copies: replicas do not re-replicate their children.
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(9)}
	plain := runMachine(t, Config{Topo: mustTopo(t, "mesh", 8), Seed: 10}, prog, "fib", args, nil)
	tmr := runMachine(t, Config{
		Topo: mustTopo(t, "mesh", 8), Seed: 10,
		Replication: map[string]int{"fib": 3},
	}, prog, "fib", args, nil)
	expectAnswer(t, tmr, prog, "fib", args)
	lo := plain.Metrics.TasksSpawned * 2
	hi := plain.Metrics.TasksSpawned*4 + 8
	if tmr.Metrics.TasksSpawned < lo || tmr.Metrics.TasksSpawned > hi {
		t.Fatalf("R=3 spawned %d tasks; plain spawned %d; want ~3x",
			tmr.Metrics.TasksSpawned, plain.Metrics.TasksSpawned)
	}
}

func TestCorruptionWithoutReplicationBreaksAnswer(t *testing.T) {
	prog := lang.CriticalSections(10, 300)
	plan := &faults.Plan{Faults: []faults.Fault{{At: 0, Proc: 3, Kind: faults.Corrupt}}}
	cfg := Config{Topo: mustTopo(t, "mesh", 8), Seed: 10}
	rep := runMachine(t, cfg, prog, "main", nil, plan)
	want, _ := lang.RefEval(prog, "main", nil)
	if !rep.Completed {
		t.Fatal("run did not complete")
	}
	if rep.Answer.Equal(want) {
		t.Skip("corrupt processor received no tasks under this seed")
	}
	// The wrong answer is the expected outcome: crash-recovery schemes do
	// not defend against value corruption (§5.3's motivation).
}

func TestReplicationRequiresNoneScheme(t *testing.T) {
	cfg := Config{
		Topo: mustTopo(t, "mesh", 4), Scheme: recovery.Rollback(),
		Replication: map[string]int{"fib": 3},
	}
	if _, err := New(cfg, lang.Fib()); err == nil {
		t.Fatal("replication combined with rollback was accepted")
	}
}

func TestCheckpointAccounting(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(9)}
	cfg := Config{Topo: mustTopo(t, "mesh", 4), Seed: 11}
	rep := runMachine(t, cfg, prog, "fib", args, nil)
	if rep.Metrics.Checkpoints == 0 || rep.Metrics.CheckpointBytes == 0 {
		t.Fatalf("checkpoint accounting empty: %d ckpts, %d bytes",
			rep.Metrics.Checkpoints, rep.Metrics.CheckpointBytes)
	}
	cfg2 := Config{Topo: mustTopo(t, "mesh", 4), Seed: 11, DisableCheckpoints: true}
	rep2 := runMachine(t, cfg2, prog, "fib", args, nil)
	expectAnswer(t, rep2, prog, "fib", args)
	if rep2.Metrics.Checkpoints != 0 || rep2.Metrics.CheckpointBytes != 0 {
		t.Fatalf("DisableCheckpoints still recorded %d ckpts, %d bytes",
			rep2.Metrics.Checkpoints, rep2.Metrics.CheckpointBytes)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}, lang.Fib()); err == nil {
		t.Error("nil topology accepted")
	}
	// A machine built without a program serves (requests bring their own)
	// but cannot Run.
	if m, err := New(Config{Topo: mustTopo(t, "mesh", 4)}, nil); err != nil {
		t.Errorf("program-less machine rejected: %v", err)
	} else if _, err := m.Run("fib", nil, nil); err == nil {
		t.Error("Run without a program accepted")
	}
	cfg := Config{Topo: mustTopo(t, "mesh", 4), AncestorDepth: -1}
	if _, err := New(cfg, lang.Fib()); err == nil {
		t.Error("negative ancestor depth accepted")
	}
	m, err := New(Config{Topo: mustTopo(t, "mesh", 4)}, lang.Fib())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("nosuch", nil, nil); err == nil {
		t.Error("unknown entry function accepted")
	}
	if _, err := New(Config{Topo: mustTopo(t, "mesh", 4), Replication: map[string]int{"f": 0}}, lang.Fib()); err == nil {
		t.Error("zero replication accepted")
	}
}

func TestTraceEventsFlow(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(6)}
	tl := trace.NewLog()
	cfg := Config{Topo: mustTopo(t, "mesh", 4), Seed: 12, Trace: tl}
	rep := runMachine(t, cfg, prog, "fib", args, nil)
	expectAnswer(t, rep, prog, "fib", args)
	if tl.Count(trace.KSpawn) == 0 || tl.Count(trace.KPlace) == 0 ||
		tl.Count(trace.KComplete) == 0 || tl.Count(trace.KRootDone) != 1 {
		t.Fatalf("missing lifecycle events: spawn=%d place=%d complete=%d done=%d",
			tl.Count(trace.KSpawn), tl.Count(trace.KPlace),
			tl.Count(trace.KComplete), tl.Count(trace.KRootDone))
	}
	if tl.Count(trace.KCheckpoint) == 0 {
		t.Fatal("no checkpoint events")
	}
}

// TestConfigEvalValidation pins the evaluator knob: the default is interp,
// both evaluators are accepted, and an unknown name fails with lang's
// names in the machine's error format.
func TestConfigEvalValidation(t *testing.T) {
	for _, eval := range []string{"", "interp", "compiled"} {
		cfg := Config{Topo: mustTopo(t, "mesh", 4), Seed: 1, Eval: eval}
		m, err := New(cfg, lang.Fib())
		if err != nil {
			t.Fatalf("Eval=%q rejected: %v", eval, err)
		}
		want := eval
		if want == "" {
			want = lang.DefaultEvaluator
		}
		if m.cfg.Eval != want {
			t.Fatalf("Eval=%q normalized to %q, want %q", eval, m.cfg.Eval, want)
		}
	}
	_, err := New(Config{Topo: mustTopo(t, "mesh", 4), Seed: 1, Eval: "nope"}, lang.Fib())
	if err == nil {
		t.Fatal("unknown evaluator accepted")
	}
	want := `machine: unknown evaluator "nope" (known: compiled, interp)`
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// TestCompiledEvalMatchesInterpReport runs one fault-free and one faulted
// cell under both evaluators end to end and requires identical reports —
// answer, makespan, events, metrics — the report-level face of the trace
// pins in golden_test.go.
func TestCompiledEvalMatchesInterpReport(t *testing.T) {
	run := func(eval string, crash bool) string {
		cfg := Config{Topo: mustTopo(t, "mesh", 9), Scheme: recovery.Rollback(), Seed: 5, Eval: eval}
		var plan *faults.Plan
		if crash {
			plan = faults.Crash(3, 400, true)
		}
		rep := runMachine(t, cfg, lang.Fib(), "fib", []expr.Value{expr.VInt(11)}, plan)
		return fmt.Sprintf("answer=%v completed=%v makespan=%d events=%d metrics=%+v",
			rep.Answer, rep.Completed, rep.Makespan, rep.Events, rep.Metrics)
	}
	for _, crash := range []bool{false, true} {
		interp, compiled := run("interp", crash), run("compiled", crash)
		if interp != compiled {
			t.Fatalf("crash=%v reports diverged:\n interp   %s\n compiled %s", crash, interp, compiled)
		}
	}
}
