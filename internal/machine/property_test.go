package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// TestPropertyDeterminacyUnderFaults is the repository's central theorem in
// test form: for random workloads, topologies, placements, schemes, seeds
// and fault plans, the distributed machine either produces exactly the
// sequential reference answer or (with recovery disabled) produces nothing —
// never a wrong answer. This is §2.1's determinacy carried through §3/§4
// recovery.
func TestPropertyDeterminacyUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is slow")
	}
	r := rand.New(rand.NewSource(123))
	schemes := []recovery.Scheme{recovery.Rollback(), recovery.RollbackLazy(), recovery.Splice()}
	placements := []balance.Policy{
		balance.NewRandom(), balance.NewStaticHash(), balance.NewGradient(),
	}
	topos := []string{"mesh", "ring", "complete", "hypercube"}

	for trial := 0; trial < 60; trial++ {
		trial := trial
		// Random workload with a modest call tree.
		var prog *lang.Program
		var fn string
		var args []expr.Value
		switch r.Intn(4) {
		case 0:
			prog, fn = lang.Fib(), "fib"
			args = []expr.Value{expr.VInt(int64(8 + r.Intn(4)))}
		case 1:
			prog, fn = lang.TreeSum(2+r.Intn(3)), "tree"
			args = []expr.Value{expr.VInt(int64(3 + r.Intn(3)))}
		case 2:
			prog, fn = lang.Tak(), "tak"
			args = []expr.Value{expr.VInt(int64(5 + r.Intn(3))), expr.VInt(3), expr.VInt(1)}
		default:
			prog, fn = lang.SumRange(8), "sumrange"
			args = []expr.Value{expr.VInt(0), expr.VInt(int64(32 + r.Intn(64)))}
		}
		want, err := lang.RefEval(prog, fn, args)
		if err != nil {
			t.Fatal(err)
		}

		kind := topos[r.Intn(len(topos))]
		n := []int{8, 9, 16}[r.Intn(3)]
		if kind == "hypercube" {
			n = 8
		}
		if kind == "mesh" && n == 9 {
			n = 9
		}
		scheme := schemes[r.Intn(len(schemes))]
		placement := placements[r.Intn(len(placements))]
		seed := r.Int63n(1 << 30)

		// One or two crashes at random times; occasionally none.
		plan := faults.None()
		for f := r.Intn(3); f > 0; f-- {
			plan.Add(faults.Fault{
				At:   int64(100 + r.Intn(4000)),
				Proc: proto.ProcID(r.Intn(n)),
				Kind: []faults.Kind{faults.CrashAnnounced, faults.CrashSilent}[r.Intn(2)],
			})
		}
		// Never kill every processor the plan touches twice.
		name := fmt.Sprintf("trial%02d/%s/%s/%s/%d-procs", trial, fn, kind, scheme.Name(), n)
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Topo:      mustTopo(t, kind, n),
				Placement: placement,
				Scheme:    scheme,
				Seed:      seed,
				Deadline:  sim.Time(1_500_000),
			}
			m, err := New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.Run(fn, args, plan)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Err != nil {
				t.Fatalf("run error: %v", rep.Err)
			}
			if !rep.Completed {
				t.Fatalf("did not complete (args %v seed %d faults %v):\n%s",
					args, seed, plan.Faults, rep.Metrics.String())
			}
			if !rep.Answer.Equal(want) {
				t.Fatalf("answer %v != reference %v (faults %v)", rep.Answer, want, plan.Faults)
			}
		})
	}
}

// TestAncestorDepthOneDisablesEscalation verifies the §5.2 knob: with K=1
// (parent pointer only) splice cannot escalate orphan results past a dead
// parent, so recovery degrades to twin-respawns with extra recomputation —
// but the answer stays correct.
func TestAncestorDepthOneDisablesEscalation(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(11)}
	cfg := Config{
		Topo: mustTopo(t, "mesh", 8), Scheme: recovery.Splice(),
		Seed: 6, AncestorDepth: 1,
	}
	rep := runMachine(t, cfg, prog, "fib", args, faults.Crash(2, 900, true))
	expectAnswer(t, rep, prog, "fib", args)
	if rep.Metrics.Relayed != 0 {
		t.Errorf("K=1 relayed %d orphan results; escalation should be impossible", rep.Metrics.Relayed)
	}
}

// TestStarTopologyRuns exercises the hub-and-spoke extreme.
func TestStarTopologyRuns(t *testing.T) {
	prog := lang.TreeSum(3)
	args := []expr.Value{expr.VInt(4)}
	cfg := Config{Topo: mustTopo(t, "star", 6), Scheme: recovery.Rollback(), Seed: 3}
	rep := runMachine(t, cfg, prog, "tree", args, faults.Crash(4, 500, true))
	expectAnswer(t, rep, prog, "tree", args)
}

// TestHubFailureInStar kills the star's center: the surviving leaves can no
// longer reach each other, yet announced recovery plus placement fallbacks
// must still finish the program (all survivors re-place through themselves).
func TestHubFailureInStar(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(9)}
	cfg := Config{Topo: mustTopo(t, "star", 6), Scheme: recovery.Rollback(), Seed: 4,
		Deadline: sim.Time(1_000_000)}
	rep := runMachine(t, cfg, prog, "fib", args, faults.Crash(0, 400, true))
	// The star with a dead hub is disconnected; messages between leaves are
	// still deliverable in the simulator (routing is logical), so recovery
	// should complete. This documents the model's assumption that the
	// interconnect survives node failures (§1: network problems are treated
	// as node faults by the sender).
	expectAnswer(t, rep, prog, "fib", args)
}

// TestSpliceLeaksAreBounded: splice deliberately keeps orphans alive, but a
// completed run must not leave unbounded wedged tasks.
func TestSpliceLeaksAreBounded(t *testing.T) {
	prog := lang.TreeSum(3)
	args := []expr.Value{expr.VInt(5)}
	cfg := Config{Topo: mustTopo(t, "mesh", 9), Scheme: recovery.Splice(), Seed: 5}
	rep := runMachine(t, cfg, prog, "tree", args, faults.Crash(1, 700, true))
	expectAnswer(t, rep, prog, "tree", args)
	if rep.Metrics.TasksLeaked > rep.Metrics.TasksSpawned/4 {
		t.Fatalf("splice leaked %d of %d tasks", rep.Metrics.TasksLeaked, rep.Metrics.TasksSpawned)
	}
}

// TestCorruptProcessorWithSpliceStillCompletes: crash-recovery schemes make
// no correctness promise under value corruption, but they must not wedge.
func TestCorruptProcessorWithSpliceStillCompletes(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(9)}
	plan := &faults.Plan{Faults: []faults.Fault{{At: 0, Proc: 2, Kind: faults.Corrupt}}}
	cfg := Config{Topo: mustTopo(t, "mesh", 8), Scheme: recovery.Splice(), Seed: 6}
	m, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run("fib", args, plan)
	if err != nil || rep.Err != nil {
		t.Fatalf("run failed: %v %v", err, rep.Err)
	}
	if !rep.Completed {
		t.Fatal("corruption wedged the machine")
	}
}

// TestStateProbeSampling verifies probe cadence and monotone time.
func TestStateProbeSampling(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(11)}
	cfg := Config{Topo: mustTopo(t, "mesh", 8), Seed: 7, StateProbeEvery: 100}
	rep := runMachine(t, cfg, prog, "fib", args, nil)
	if len(rep.StateSamples) < 3 {
		t.Fatalf("samples = %d", len(rep.StateSamples))
	}
	for i := 1; i < len(rep.StateSamples); i++ {
		if rep.StateSamples[i].Time <= rep.StateSamples[i-1].Time {
			t.Fatal("sample times not increasing")
		}
	}
	var peakTasks int
	for _, s := range rep.StateSamples {
		if s.Tasks > peakTasks {
			peakTasks = s.Tasks
		}
		if (s.Tasks == 0) != (s.Bytes == 0) {
			t.Fatalf("inconsistent sample %+v", s)
		}
	}
	if peakTasks == 0 {
		t.Fatal("probes never saw resident tasks")
	}
}

// TestAckTimeoutOnlyDetection disables heartbeats: a silent crash is then
// discoverable only through unacknowledged traffic (the paper's timeout
// mechanisms, §1). Recovery must still complete.
func TestAckTimeoutOnlyDetection(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(13)}
	cfg := Config{
		Topo: mustTopo(t, "mesh", 8), Scheme: recovery.Splice(), Seed: 9,
		HeartbeatEvery: -1, // disabled
	}
	rep := runMachine(t, cfg, prog, "fib", args, faults.Crash(3, 600, false))
	expectAnswer(t, rep, prog, "fib", args)
	if rep.Metrics.Failures != 1 {
		t.Fatalf("fault landed after completion (failures=%d); adjust the fault time", rep.Metrics.Failures)
	}
	if rep.Metrics.MsgHeartbeat != 0 {
		t.Errorf("heartbeats sent despite being disabled: %d", rep.Metrics.MsgHeartbeat)
	}
	if rep.Metrics.FirstDetections != 1 {
		t.Errorf("first detections = %d, want 1 (via ack timeout)", rep.Metrics.FirstDetections)
	}
}

// TestAnnouncedDetectionFasterThanSilent compares detection latency between
// the two crash kinds under identical conditions.
func TestAnnouncedDetectionFasterThanSilent(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(12)}
	detect := func(announced bool) int64 {
		cfg := Config{Topo: mustTopo(t, "mesh", 8), Scheme: recovery.Rollback(), Seed: 10}
		rep := runMachine(t, cfg, prog, "fib", args, faults.Crash(2, 900, announced))
		expectAnswer(t, rep, prog, "fib", args)
		if rep.Metrics.FirstDetections == 0 {
			t.Fatal("failure never detected")
		}
		return rep.Metrics.DetectLatencySum / rep.Metrics.FirstDetections
	}
	ann := detect(true)
	sil := detect(false)
	if ann >= sil {
		t.Fatalf("announced detection (%d) not faster than silent (%d)", ann, sil)
	}
}

// TestRetryScatterEscapesDeterministicPlacement reproduces the livelock the
// randomized sweep originally found: under lazy rollback with static-hash
// placement, a reissued incarnation is re-routed forever to the processor
// where an orphan incumbent occupies its stamp. The retry escape hatch must
// scatter it elsewhere and complete the run.
func TestRetryScatterEscapesDeterministicPlacement(t *testing.T) {
	prog := lang.TreeSum(3)
	args := []expr.Value{expr.VInt(4)}
	plan := faults.None().
		Add(faults.Fault{At: 223, Proc: 7, Kind: faults.CrashAnnounced}).
		Add(faults.Fault{At: 2544, Proc: 4, Kind: faults.CrashSilent})
	cfg := Config{
		Topo: mustTopo(t, "hypercube", 8), Placement: balance.NewStaticHash(),
		Scheme: recovery.RollbackLazy(), Seed: 783342352,
		Deadline: sim.Time(300_000),
	}
	rep := runMachine(t, cfg, prog, "tree", args, plan)
	expectAnswer(t, rep, prog, "tree", args)
}

// TestVotePluralityFallback: with an even replica count and aggressive
// corruption a strict majority can fail to form; the voter must fall back
// to plurality (flagged as a mismatch) instead of wedging.
func TestVotePluralityFallback(t *testing.T) {
	prog := lang.CriticalSections(6, 200)
	// Half the machine corrupts: R=2 replicas can split 1-1.
	plan := &faults.Plan{Faults: []faults.Fault{
		{At: 0, Proc: 0, Kind: faults.Corrupt},
		{At: 0, Proc: 2, Kind: faults.Corrupt},
		{At: 0, Proc: 4, Kind: faults.Corrupt},
		{At: 0, Proc: 6, Kind: faults.Corrupt},
	}}
	cfg := Config{
		Topo: mustTopo(t, "mesh", 8), Seed: 11,
		Replication: map[string]int{"work": 2},
	}
	m, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run("main", nil, plan)
	if err != nil || rep.Err != nil {
		t.Fatalf("run failed: %v %v", err, rep.Err)
	}
	if !rep.Completed {
		t.Fatal("split votes wedged the machine")
	}
	// Correctness is NOT guaranteed here (half the machine lies); only
	// liveness is.
}

// TestResultRetryBeforeDeclare verifies the result retry budget is consumed
// before an undeliverable verdict (silent crash, heartbeats disabled).
func TestResultRetryBeforeDeclare(t *testing.T) {
	prog := lang.Fib()
	args := []expr.Value{expr.VInt(12)}
	cfg := Config{
		Topo: mustTopo(t, "mesh", 8), Scheme: recovery.Rollback(), Seed: 12,
		HeartbeatEvery: -1, ResultRetryLimit: 4,
	}
	rep := runMachine(t, cfg, prog, "fib", args, faults.Crash(2, 700, false))
	expectAnswer(t, rep, prog, "fib", args)
	if rep.Metrics.Failures != 1 {
		t.Skip("fault landed after completion")
	}
	// With retries, more result messages than acks is expected.
	if rep.Metrics.MsgResult <= rep.Metrics.MsgResultAck {
		t.Errorf("no result retries observed: %d results vs %d acks",
			rep.Metrics.MsgResult, rep.Metrics.MsgResultAck)
	}
}
