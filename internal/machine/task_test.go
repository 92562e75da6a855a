package machine

import (
	"runtime"
	"testing"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/stamp"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestTaskAllocations bounds what a simulated task costs the heap: one
// fault-free cell (binom:16,8 on mesh-64 under rollback, compiled
// evaluator), built and run, divided by the 25 739 tasks it spawns. Tasks,
// hole records, packets and results come off the processors' free lists, so
// what a cell allocates of them is what is alive at once (in chunks of up
// to 16), and a per-pass or per-task object that holds no state shows here
// first. The cell reads 6.4 objects and 881 B per task; under interp, whose
// residual is an expression tree of boxed values, it reads 53.4 objects.
// Only a run without -race counts the shipped code's allocations.
func TestTaskAllocations(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a count of the shipped code's allocations: runs a 25 739-task cell four times, without -race")
	}
	const budget, byteBudget = 7, 920
	cfg := Config{Topo: mustTopo(t, "mesh", 64), Scheme: recovery.Rollback(), Seed: 1, Eval: "compiled"}
	prog, args := lang.Binomial(), []expr.Value{expr.VInt(16), expr.VInt(8)}
	var rep *Report
	allocs := testing.AllocsPerRun(2, func() { rep = runMachine(t, cfg, prog, "binom", args, nil) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep = runMachine(t, cfg, prog, "binom", args, nil)
	runtime.ReadMemStats(&after)
	expectAnswer(t, rep, prog, "binom", args)
	spawned := float64(rep.Metrics.TasksSpawned)
	perTask, bytesPerTask := allocs/spawned, float64(after.TotalAlloc-before.TotalAlloc)/spawned
	t.Logf("%.0f objects over %.0f spawned tasks: %.2f and %.0f B per task", allocs, spawned, perTask, bytesPerTask)
	if perTask > budget {
		t.Errorf("%.2f heap objects per spawned task, budget %d", perTask, budget)
	}
	if bytesPerTask > byteBudget {
		t.Errorf("%.0f heap bytes per spawned task, budget %d", bytesPerTask, byteBudget)
	}
}

// TestDenseCellsEndClean is the fault-free end state of the eight dense
// cells (fib:18, binom:16,8, sumrange:20000 and tak:12,6,2 on mesh-64 and
// hypercube-64, rollback) under both evaluators: when the answer is in,
// every processor has drained its ready queue, holds no task, no checkpoint
// and no parked pass, and every spawned task completed. It guards the
// reused ready-queue slice and the per-processor pass slot. The host is held
// to the same rule: its pseudo-task went at the request's end. And nothing
// the fault-free path allocates is left to the collector: every task, hole
// record and packet a free list allocated is back on a list, and every
// result but the one the host took.
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
					// made and back count tasks, holes, packets and results:
					// allocated, and on a free list.
					var made, back [4]int
					for _, p := range append(m.procs, m.host) {
						for i, n := range [...][2]int{
							{p.taskFree.made, len(p.taskFree.free)},
							{p.holeFree.made, len(p.holeFree.free)},
							{p.pktFree.made, len(p.pktFree.free)},
							{p.resFree.made, len(p.resFree.free)},
						} {
							made[i], back[i] = made[i]+n[0], back[i]+n[1]
						}
						if p.readyHead != len(p.readyQ) {
							t.Errorf("processor %d: %d tasks still queued", p.id, len(p.readyQ)-p.readyHead)
						}
						if p.passTask != nil || p.passSt != nil {
							t.Errorf("processor %d: a pass of %v is still parked", p.id, p.passTask.pkt.Key)
						}
						if n := p.store.Len(); n != 0 {
							t.Errorf("processor %d: %d checkpoints retained", p.id, n)
						}
						if len(p.tasks) != 0 {
							t.Errorf("processor %d: %d tasks resident", p.id, len(p.tasks))
						}
					}
					back[3]++ // the root's result, which the host took
					for i, kind := range []string{"tasks", "hole records", "packets", "results"} {
						if made[i] != back[i] {
							t.Errorf("%d of %d %s left to the collector", made[i]-back[i], made[i], kind)
						}
					}
				})
			}
		}
	}
}

// TestReadyQueueRunsTheLiveIncarnation pins which task a popped ready-queue
// entry runs: its own while that is ready, and otherwise whichever
// incarnation holds its key. An aborted or retired (returning) incarnation
// leaves its entry behind; a reissue settled on the same processor under the
// same key must run from that entry, not wait behind it. A task retired with
// an entry still queued is not recycled: drawn again under another key it
// would be ready, and the stale entry would run it early.
func TestReadyQueueRunsTheLiveIncarnation(t *testing.T) {
	m, _ := startIdleCfg(t, Config{Topo: mustTopo(t, "complete", 4), Scheme: recovery.Rollback(), Seed: 1}, nil)
	pkt := func(hole uint32, gen uint64) *proto.TaskPacket {
		return &proto.TaskPacket{
			Key: proto.TaskKey{Stamp: stamp.Root().Child(hole)}, Gen: gen, Fn: "fib",
			Args: []expr.Value{expr.VInt(5)}, Parent: proto.Addr{Proc: proto.HostID},
		}
	}
	install := func(p *proc, tk *task) {
		p.tasks[tk.pkt.Key] = tk
		p.enqueue(tk)
	}
	retire := func(p *proc, old *task) {
		old.state, old.value = taskReturning, expr.VInt(5)
		p.sendResult(old)
	}
	for i, c := range []struct {
		name  string
		leave func(p *proc, old *task) // how the first incarnation goes
		hole  uint32                   // the successor's stamp: Root().Child(hole)
	}{
		{"live", nil, 0},
		{"aborted", func(p *proc, old *task) { p.Abort(old.pkt.Key, stamp.Root(), "test") }, 0},
		{"returning", retire, 0},
		{"recycled", retire, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := m.procs[i]
			old := p.newTask(pkt(0, 1))
			p.busy = true // hold the queue while it is set up
			install(p, old)
			want := old
			if key := old.pkt.Key; c.leave != nil {
				c.leave(p, old)
				if _, ok := p.tasks[key]; ok {
					t.Fatalf("the %s incarnation still holds its key", c.name)
				}
				want = p.newTask(pkt(c.hole, 2))
				install(p, want)
			}
			p.busy = false
			p.maybeRun()
			if p.passTask != want || want.state != taskRunning {
				t.Fatalf("ran %p, want the incarnation holding the key (%p)", p.passTask, want)
			}
			switch stale := p.readyHead < len(p.readyQ); {
			case want != old && c.hole == 0 && !stale:
				t.Fatal("the reissue ran from its own entry, not from the one its predecessor left")
			case c.hole != 0 && stale:
				t.Fatal("the predecessor's stale entry ran a task drawn under another key")
			}
		})
	}
}
