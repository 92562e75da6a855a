package machine

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fifoWorld is a second env: the whole protocol over one standalone kernel,
// with no Machine, shardCtx or sim.Sharded. Its wire is a FIFO that
// delivers every message, in send order, fifoDelay ticks after it was sent,
// and drops one whose addressee is dead when it lands. Its detector tells
// the lowest-numbered live processor of a death fifoNotice ticks after it,
// and the announcement path does the rest, as scripted does. It records the
// host's one outcome, and stops the kernel at it.
type fifoWorld struct {
	*sim.Kernel
	procs   []*proc // processors 0..n-1, then the host
	evals   []lang.EvalProgram
	tlog    *trace.Log
	metrics trace.Metrics
	wire    []proto.Msg // in flight, oldest first
	sent    func(*proto.Msg)
	deliver func()
	answer  expr.Value
	err     error
}

const (
	fifoDelay  = DefaultMsgOverhead + DefaultHopCost // one hop, whatever the distance
	fifoNotice = (DefaultHeartbeatMisses + 1) * DefaultHeartbeatEvery
)

// newFifoWorld builds cfg's processors and host over a fresh world running
// prog, each with its own determinism streams exactly as New builds them.
func newFifoWorld(t *testing.T, cfg Config, prog *lang.Program) *fifoWorld {
	t.Helper()
	norm, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := lang.EvaluatorByName(norm.Eval)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := ev.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	w := &fifoWorld{Kernel: sim.NewKernel(norm.Seed), evals: []lang.EvalProgram{ep}, tlog: norm.Trace}
	pr := newParams(norm)
	for i := 0; i <= pr.n; i++ {
		id := proto.ProcID(i)
		if i == pr.n {
			id = proto.HostID
		}
		w.procs = append(w.procs, newProc(id, i, pr, &norm, w, &w.metrics))
	}
	// Every send schedules one delivery fifoDelay later and sends come in
	// time order, so the k-th delivery to dispatch is the k-th send's, at
	// its own arrival tick, whatever order the kernel gives same-tick events.
	w.deliver = func() {
		msg := w.wire[0]
		w.wire = w.wire[1:]
		if dst := w.proc(msg.To); !dst.dead {
			dst.handle(&msg)
		}
	}
	return w
}

func (w *fifoWorld) proc(id proto.ProcID) *proc {
	if id == proto.HostID {
		return w.procs[len(w.procs)-1]
	}
	return w.procs[id]
}

func (w *fifoWorld) transmit(msg proto.Msg) {
	if w.sent != nil {
		w.sent(&msg)
	}
	w.wire = append(w.wire, msg)
	w.After(fifoDelay, w.deliver)
}

func (w *fifoWorld) placedHere(*proto.TaskPacket)   {}
func (w *fifoWorld) tracing() bool                  { return w.tlog != nil }
func (w *fifoWorld) log(ev trace.Event)             { w.tlog.Add(ev) }
func (w *fifoWorld) suspected(*proc, proto.ProcID)  {}
func (w *fifoWorld) program(i int) lang.EvalProgram { return w.evals[i] }
func (w *fifoWorld) ended(o Outcome)                { w.answer, w.err = o.Value, o.Err; w.Stop() }

func (w *fifoWorld) died(p *proc) {
	w.After(fifoNotice, func() {
		for _, q := range w.procs[:len(w.procs)-1] {
			if !q.dead {
				q.declareFaulty(p.id, false)
				return
			}
		}
	})
}

// serve runs fn(args) as request 0 under plan's crashes, which are silent
// whatever the plan says, and returns the run's (stamp, hole) → value map.
func (w *fifoWorld) serve(t *testing.T, fn string, args []expr.Value, plan *faults.Plan) map[string]string {
	for _, f := range plan.Sorted() {
		p := w.proc(f.Proc)
		w.At(sim.Time(f.At), func() { p.die(false) })
	}
	w.proc(proto.HostID).installRoot(proto.TaskKey{}, 0, fn, args)
	if res := w.Run(DefaultMaxEvents); res != sim.RunStopped || w.err != nil {
		t.Fatalf("%v at tick %d with %d events dispatched: no answer (err %v)", res, w.Now(), w.Processed(), w.err)
	}
	return stampValues(t, w.tlog)
}

// TestProcOverFIFOWorld runs the protocol over fifoWorld: a wire, a clock
// and a detector that share no code with the simulator's shard. Fault-free
// under all three schemes, and through two silent crashes under each, every
// run answers lang.RefEval's value and fills exactly the (stamp, hole)
// pairs of the machine's fault-free run, each with its value. Through the
// crashes rollback and incremental, whose only loss signal is the detector,
// reissue; splice recreates lost work as twins, and a hole a twin filled
// from an inherited result as it issued the demand counts as filled.
func TestProcOverFIFOWorld(t *testing.T) {
	prog, args := lang.Fib(), []expr.Value{expr.VInt(12)}
	want, err := lang.RefEval(prog, "fib", args)
	if err != nil {
		t.Fatal(err)
	}
	topo := mustTopo(t, "torus", 16)
	oracle := stampValues(t, runMachine(t, Config{Topo: topo, Scheme: recovery.Rollback(), Seed: 1, Trace: trace.NewLog()}, prog, "fib", args, nil).Log)
	for _, scheme := range []recovery.Scheme{recovery.Rollback(), recovery.Splice(), recovery.Incremental()} {
		for _, plan := range []*faults.Plan{faults.None(), silentCrashes(3, 9)} {
			name := cmp.Or(plan.String(), "fault-free")
			t.Run(scheme.Name()+"/"+name, func(t *testing.T) {
				w := newFifoWorld(t, Config{Topo: topo, Scheme: scheme, Seed: 1, Trace: trace.NewLog()}, prog)
				got := w.serve(t, "fib", args, plan)
				t.Logf("answered at tick %d after %d events: %d reissues, %d twins, %d detections",
					w.Now(), w.Processed(), w.metrics.Reissues, w.metrics.Twins, w.metrics.Detections)
				if !w.answer.Equal(want) {
					t.Fatalf("answer %v, want %v", w.answer, want)
				}
				faulted, splice := len(plan.Faults) > 0, scheme.SalvagesOrphans()
				recovered, pre := w.metrics.Reissues, map[string]bool{}
				if faulted && splice {
					recovered += w.metrics.Twins
					pre = prefilled(w.tlog)
				}
				if faulted && recovered == 0 {
					t.Errorf("nothing recovered: the crashes missed the run (tick %d)", w.Now())
				}
				var diff []string
				for pair, v := range got {
					if oracle[pair] != v {
						diff = append(diff, pair+" := "+v+", the machine fills "+oracle[pair])
					}
				}
				for pair := range pre {
					if _, ok := oracle[pair]; !ok {
						diff = append(diff, pair+" prefilled, the machine never fills it")
					}
				}
				for pair := range oracle {
					if _, ok := got[pair]; !ok && !pre[pair] {
						diff = append(diff, pair+" never filled")
					}
				}
				if len(diff) > 0 {
					sort.Strings(diff)
					t.Errorf("%d of %d pairs filled, %d prefilled; %d differ from the machine's fault-free run: %v",
						len(got), len(oracle), len(pre), len(diff), diff)
				}
			})
		}
	}
}

// TestSpawnedPacketsNameTheirIndex: a packet names its function twice — by
// name, which the simulator and live run, and by index, which net's wire
// carries — and every packet sent, the host's root packet included, carries
// the index of the name, under each evaluator, on a program whose
// definitions are not in name order.
func TestSpawnedPacketsNameTheirIndex(t *testing.T) {
	prog := lang.MustParse("fn mid(x) = leaf(x) + leaf(x + 1)\nfn main(n) = mid(n)\nfn leaf(x) = x")
	for _, ev := range lang.Evaluators() {
		w := newFifoWorld(t, Config{Topo: mustTopo(t, "torus", 4), Scheme: recovery.Rollback(), Seed: 1, Eval: ev, Trace: trace.NewLog()}, prog)
		seen := map[int32]bool{}
		w.sent = func(m *proto.Msg) {
			if m.Type != proto.MsgTask {
				return
			}
			if name, ok := prog.FuncName(int(m.Task.FnIndex)); !ok || name != m.Task.Fn {
				t.Errorf("%s: %v spawns %s as function %d, which is %q", ev, m.Task.Key, m.Task.Fn, m.Task.FnIndex, name)
			}
			seen[m.Task.FnIndex] = true
		}
		w.serve(t, "main", []expr.Value{expr.VInt(3)}, faults.None())
		if !w.answer.Equal(expr.VInt(7)) || len(seen) != 3 {
			t.Errorf("%s: answer %v with functions %v spawned, want 7 and all three", ev, w.answer, seen)
		}
	}
}

// TestProcReachesOnlyItsEnv keeps the seam: the processor and its tasks
// name no Machine or shardCtx, and of the simulator only its value types,
// sim.Time and sim.Timer. Everything else they touch outside themselves
// goes through env.
func TestProcReachesOnlyItsEnv(t *testing.T) {
	fset := token.NewFileSet()
	for _, name := range []string{"proc.go", "task.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "sim" && x.Sel.Name != "Time" && x.Sel.Name != "Timer" {
					t.Errorf("%s: sim.%s: a processor reaches the simulator only through its env", fset.Position(x.Pos()), x.Sel.Name)
				}
			case *ast.Ident:
				if x.Name == "Machine" || x.Name == "shardCtx" {
					t.Errorf("%s: %s: a processor reaches the machine only through its env", fset.Position(x.Pos()), x.Name)
				}
			}
			return true
		})
	}
}
