package machine

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/topology"
)

// runPair runs fib:12 on 6 processors under the given scheme with the two
// processors killed simultaneously at the given tick.
func runPair(t *testing.T, scheme string, a, b proto.ProcID, at int64) *Report {
	t.Helper()
	topo, err := topology.ByName("mesh", 6)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := recovery.ByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Topo: topo, Scheme: sch, Seed: 1}, lang.Fib())
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.None().
		Add(faults.Fault{At: at, Proc: a, Kind: faults.CrashAnnounced}).
		Add(faults.Fault{At: at, Proc: b, Kind: faults.CrashAnnounced})
	rep, err := m.Run("fib", []expr.Value{expr.VInt(12)}, plan)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestHostHearsWhenProcessorZeroDiesWithTheRoot is the regression test for
// the ancestor-chain-loss wedge: when processor 0 dies together with the
// processor holding the root task, the host must still learn that the root
// it checkpointed died, reissue it, and finish. Whoever detects a death
// tells the host directly, so no particular survivor stands between the
// news and the host. The sweep covers every pair that includes processor
// 0, under both recovery schemes.
func TestHostHearsWhenProcessorZeroDiesWithTheRoot(t *testing.T) {
	for _, scheme := range []string{"rollback", "splice"} {
		for b := proto.ProcID(1); b < 6; b++ {
			for _, at := range []int64{200, 500, 900} {
				rep := runPair(t, scheme, 0, b, at)
				if !rep.Completed {
					t.Errorf("%s kill {0,%d} at t=%d: stranded (makespan %d, %d stranded orphans)",
						scheme, b, at, rep.Makespan, rep.Metrics.Stranded)
					continue
				}
				if rep.Answer == nil || !rep.Answer.Equal(expr.VInt(144)) {
					t.Errorf("%s kill {0,%d} at t=%d: wrong answer %v", scheme, b, at, rep.Answer)
				}
			}
		}
	}
}

// TestHostHearsWhenProcessorsZeroAndOneDieWithTheRoot kills the root-task
// holder together with processors 0 and 1: the host must still hear of the
// root holder's death from a survivor that detected it.
func TestHostHearsWhenProcessorsZeroAndOneDieWithTheRoot(t *testing.T) {
	topo, err := topology.ByName("mesh", 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Topo: topo, Scheme: recovery.Rollback(), Seed: 1}, lang.Fib())
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.None().
		Add(faults.Fault{At: 400, Proc: 0, Kind: faults.CrashAnnounced}).
		Add(faults.Fault{At: 400, Proc: 1, Kind: faults.CrashAnnounced}).
		Add(faults.Fault{At: 400, Proc: 5, Kind: faults.CrashAnnounced})
	rep, err := m.Run("fib", []expr.Value{expr.VInt(12)}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("triple kill {0,1,5} stranded: makespan %d", rep.Makespan)
	}
	if !rep.Answer.Equal(expr.VInt(144)) {
		t.Fatalf("wrong answer %v", rep.Answer)
	}
}

// TestFewSurvivorsRecover sweeps small machines, where a crash leaves few
// survivors: every placement may land on a processor that hosts an orphan
// of the same stamp, and the processors that could pass the news on may be
// dead themselves. Processor 1 crashes silently, alone or with processor
// procs-1 at the same tick or later. Every completed run must answer
// lang.RefEval's value, and every rollback and incremental run must
// complete. A splice run may stay incomplete only when some crashed
// processor had no neighbour that outlived it: the four-message protocol's
// detector does not watch across the dead, so nobody may ever learn of that
// death first hand. Those runs are pinned by count as today's behaviour.
func TestFewSurvivorsRecover(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("CI's few-survivors step runs the sweep without -race")
	}
	type workload struct {
		prog *lang.Program
		fn   string
		args []expr.Value
	}
	workloads := []workload{
		{lang.Fib(), "fib", []expr.Value{expr.VInt(12)}},
		{lang.TreeSum(3), "tree", []expr.Value{expr.VInt(4)}},
	}
	const spliceBehindTheDead = 5
	behind := 0
	for _, w := range workloads {
		want, err := lang.RefEval(w.prog, w.fn, w.args)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []string{"rollback", "incremental", "splice"} {
			sch, err := recovery.ByName(scheme)
			if err != nil {
				t.Fatal(err)
			}
			for procs := 2; procs <= 5; procs++ {
				for _, kind := range []string{"complete", "mesh"} {
					topo := mustTopo(t, kind, procs)
					for seed := int64(1); seed <= 3; seed++ {
						for _, at := range []int64{50, 230, 500, 860, 1400} {
							for _, lag := range []int64{-1, 0, 40, 300} { // -1: processor 1 crashes alone
								plan := faults.Crash(1, at, false)
								last := proto.ProcID(procs - 1)
								if lag >= 0 {
									if last == 1 {
										continue // the same processor crashed twice
									}
									plan.Add(faults.Fault{At: at + lag, Proc: last, Kind: faults.CrashSilent})
								}
								cfg := Config{Topo: topo, Scheme: sch, Seed: seed, Deadline: 400000}
								rep := runMachine(t, cfg, w.prog, w.fn, w.args, plan)
								cell := fmt.Sprintf("%s %s %s-%d seed %d fault %v", w.fn, scheme, kind, procs, seed, plan)
								switch {
								case rep.Completed && !rep.Answer.Equal(want):
									t.Errorf("%s: answer %v, want %v", cell, rep.Answer, want)
								case rep.Completed:
								case scheme == "splice" && diedBehindTheDead(topo, plan):
									behind++
									t.Logf("%s: incomplete behind the dead", cell)
								default:
									t.Errorf("%s: did not complete (makespan %d)", cell, rep.Makespan)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d splice runs stay incomplete behind the dead", behind)
	if behind != spliceBehindTheDead {
		t.Errorf("%d splice runs stay incomplete behind the dead, pinned at %d", behind, spliceBehindTheDead)
	}
}

// diedBehindTheDead reports whether some processor the plan crashes has no
// neighbour that outlived it.
func diedBehindTheDead(topo topology.Topology, plan *faults.Plan) bool {
	crashed := map[proto.ProcID]int64{}
	for _, f := range plan.Faults {
		crashed[f.Proc] = f.At
	}
	for q, at := range crashed {
		outlived := false
		for _, nb := range topo.Neighbors(topology.NodeID(q)) {
			if nbAt, dead := crashed[proto.ProcID(nb)]; !dead || nbAt > at {
				outlived = true
			}
		}
		if !outlived {
			return true
		}
	}
	return false
}
