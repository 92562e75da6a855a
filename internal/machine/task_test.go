package machine

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/recovery"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestTaskAllocations bounds what a simulated task costs the heap: one
// fault-free cell (binom:16,8 on mesh-64 under rollback, compiled
// evaluator), built and run, divided by the 25 739 tasks it spawns. A task
// keeps its packet, its checkpoint and its result; a per-pass or per-task
// object that holds no state shows here first. The cell reads 11.2 objects
// per task; under interp, whose residual is an expression tree of boxed
// values, it reads 58.2. Only a run without -race counts the shipped code's
// allocations.
func TestTaskAllocations(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a count of the shipped code's allocations: runs a 25 739-task cell three times, without -race")
	}
	const budget = 14
	cfg := Config{Topo: mustTopo(t, "mesh", 64), Scheme: recovery.Rollback(), Seed: 1, Eval: "compiled"}
	prog, args := lang.Binomial(), []expr.Value{expr.VInt(16), expr.VInt(8)}
	var rep *Report
	allocs := testing.AllocsPerRun(2, func() { rep = runMachine(t, cfg, prog, "binom", args, nil) })
	expectAnswer(t, rep, prog, "binom", args)
	spawned := rep.Metrics.TasksSpawned
	perTask := allocs / float64(spawned)
	t.Logf("%.0f objects over %d spawned tasks: %.2f per task", allocs, spawned, perTask)
	if perTask > budget {
		t.Errorf("%.2f heap objects per spawned task, budget %d", perTask, budget)
	}
}

// TestDenseCellsEndClean is the fault-free end state of the eight dense
// cells (fib:18, binom:16,8, sumrange:20000 and tak:12,6,2 on mesh-64 and
// hypercube-64, rollback) under both evaluators: when the answer is in,
// every processor has drained its ready queue, holds no task, no checkpoint
// and no parked pass, and every spawned task completed. It guards the
// reused ready-queue slice and the per-processor pass slot.
func TestDenseCellsEndClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sixteen dense cells")
	}
	cells := []struct {
		prog *lang.Program
		fn   string
		args []expr.Value
	}{
		{lang.Fib(), "fib", []expr.Value{expr.VInt(18)}},
		{lang.Binomial(), "binom", []expr.Value{expr.VInt(16), expr.VInt(8)}},
		{lang.SumRange(16), "sumrange", []expr.Value{expr.VInt(0), expr.VInt(20000)}},
		{lang.Tak(), "tak", []expr.Value{expr.VInt(12), expr.VInt(6), expr.VInt(2)}},
	}
	for _, eval := range lang.Evaluators() {
		for _, kind := range []string{"mesh", "hypercube"} {
			for i, c := range cells {
				t.Run(eval+"/"+kind+"/"+c.fn, func(t *testing.T) {
					cfg := Config{Topo: mustTopo(t, kind, 64), Scheme: recovery.Rollback(), Seed: int64(1 + i), Eval: eval}
					m, rep := runKept(t, cfg, c.prog, c.fn, c.args, nil)
					expectAnswer(t, rep, c.prog, c.fn, c.args)
					// The host's pseudo-task completes too, but nobody spawns it.
					if rep.Metrics.TasksSpawned+1 != rep.Metrics.TasksCompleted {
						t.Errorf("%d tasks spawned, %d completed beside the host's", rep.Metrics.TasksSpawned, rep.Metrics.TasksCompleted-1)
					}
					for _, p := range append(m.procs, m.host) {
						if p.readyHead != len(p.readyQ) {
							t.Errorf("processor %d: %d tasks still queued", p.id, len(p.readyQ)-p.readyHead)
						}
						if p.passTask != nil || p.passSt != nil {
							t.Errorf("processor %d: a pass of %v is still parked", p.id, p.passTask.pkt.Key)
						}
						if n := p.store.Len(); n != 0 {
							t.Errorf("processor %d: %d checkpoints retained", p.id, n)
						}
						if !p.isHost && len(p.tasks) != 0 {
							t.Errorf("processor %d: %d tasks resident", p.id, len(p.tasks))
						}
					}
				})
			}
		}
	}
}
