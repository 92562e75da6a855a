package machine

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// The wall clock runs this package's processor, the one implementation of
// §4.2's protocol loop, over wallEnv: internal/livenet between goroutines,
// internal/netnode between OS processes. The machine a wall processor
// believes in is fixed: a complete interconnect, random placement, §3's
// rollback or none, the failure detector's default period and ancestor
// depth 1. So no message is acknowledged (Config.acked) and the only timer a
// processor arms is its pass's completion, which a logical clock orders as
// well as real time would. The super-root is the simulator's host processor
// over the same env: it retains every root packet, places it, learns of a
// death first hand from its transport, which it announces to every
// processor it believes live, and ends each request at its first outcome
// (proc.end), all as the simulator's host does.

// Transport is a wall processor's way out.
type Transport interface {
	// Send carries msg, From set, to another processor or to proto.HostID,
	// the super-root. It does not block and cannot fail: a message to a
	// dead processor vanishes, and the sender's checkpoint recovers the work.
	Send(msg proto.Msg)
	// Program is the compiled form of the program packets tagged i run.
	Program(i int) lang.EvalProgram
}

// wallBudget is how many events Run dispatches before the transport looks
// at its mailbox again, however long an in-place run is.
const wallBudget = 1 << 12

// WallProc is one processor of a wall-clock machine, or its super-root. It
// is single-threaded: its transport, or the super-root's lock, serializes
// every call.
type WallProc struct{ env *wallEnv }

// NewWallProc builds processor id of a procs-processor wall-clock machine,
// or its super-root when id is proto.HostID, under the recovery scheme named
// "rollback" (or "", its default) or "none". Its placement draws from the stream seed and its
// owner index derive, as on the simulator, so the same seed gives the same
// draws on every transport.
func NewWallProc(id proto.ProcID, procs int, seed int64, scheme string, tr Transport) (*WallProc, error) {
	topo, err := topology.Complete(procs)
	if err != nil {
		return nil, err
	}
	sch := map[string]recovery.Scheme{"": recovery.Rollback(), "rollback": recovery.Rollback(), "none": recovery.None()}[scheme]
	if sch == nil {
		return nil, fmt.Errorf("machine: a wall processor runs rollback or none, not %q", scheme)
	}
	cfg, err := Config{Topo: topo, Scheme: sch, Seed: seed, AncestorDepth: 1}.normalized()
	if err != nil {
		return nil, err
	}
	idx := int(id)
	if id == proto.HostID {
		idx = procs
	} else if id < 0 || idx >= procs {
		return nil, fmt.Errorf("machine: no processor %d of %d", id, procs)
	}
	e := &wallEnv{Kernel: sim.NewKernel(seed), tr: tr}
	e.p = newProc(id, idx, newParams(cfg), &cfg, e, &e.metrics)
	e.deliverFn = e.deliverLocal
	return &WallProc{e}, nil
}

// Deliver hands the processor one message from the interconnect.
func (w *WallProc) Deliver(msg *proto.Msg) { w.env.p.handle(msg) }

// Run dispatches at most wallBudget of the events the processor has
// pending — passes completing, messages it sent itself — and reports
// whether any are left.
func (w *WallProc) Run() bool { return w.env.Run(wallBudget) == sim.RunBudgetExhausted }

// Local is what the processor counted that no message it sent carries: the
// packets it spawned and placed on itself (tasks.spawned, tasks.in-place and
// the reissues among them), the results it drained, the tasks it completed
// and aborted and the steps it executed. What it sent, its transport counts.
func (w *WallProc) Local() trace.Metrics {
	e, m := w.env, &w.env.metrics
	return trace.Metrics{TasksSpawned: e.inPlace, TasksInPlace: e.inPlace, Reissues: e.inPlaceReissues,
		DupResults: m.DupResults, LateResults: m.LateResults,
		TasksCompleted: m.TasksCompleted, TasksAborted: m.TasksAborted, StepsExecuted: m.StepsExecuted}
}

// wallEnv is a wall processor's env. Its kernel is the processor's work
// clock: a pass's modelled cost orders its completion and takes no wall
// time. A message the processor sends itself is a local event a tick later,
// as on the simulator; everything else goes to the transport.
type wallEnv struct {
	*sim.Kernel
	tr      Transport
	p       *proc
	metrics trace.Metrics

	// local[head:] are the messages the processor sent itself, oldest first;
	// each is delivered by one deliverFn event.
	local     []proto.Msg
	head      int
	deliverFn func()

	// inPlace and inPlaceReissues count the packets the processor placed on
	// itself, and the reissues among them.
	inPlace, inPlaceReissues int64

	// outcomes are the super-root's request ends Ended has not taken.
	outcomes []Outcome
}

func (e *wallEnv) transmit(msg proto.Msg) {
	if msg.To == msg.From {
		if e.head > 0 && len(e.local) == cap(e.local) {
			n := copy(e.local, e.local[e.head:])
			clear(e.local[n:])
			e.local, e.head = e.local[:n], 0
		}
		e.local = append(e.local, msg)
		e.After(1, e.deliverFn)
		return
	}
	e.tr.Send(msg)
}

func (e *wallEnv) placedHere(pkt *proto.TaskPacket) {
	e.inPlace++
	if pkt.Reissue {
		e.inPlaceReissues++
	}
}

// deliverLocal delivers the oldest message the processor sent itself: every
// one is due a tick after it was sent, so they fall due in send order.
func (e *wallEnv) deliverLocal() {
	msg := e.local[e.head]
	e.local[e.head] = proto.Msg{}
	if e.head++; e.head == len(e.local) {
		e.local, e.head = e.local[:0], 0
	}
	e.p.handle(&msg)
}

func (e *wallEnv) program(i int) lang.EvalProgram { return e.tr.Program(i) }
func (*wallEnv) tracing() bool                    { return false }
func (*wallEnv) log(trace.Event)                  {}
func (*wallEnv) suspected(*proc, proto.ProcID)    {}
func (*wallEnv) died(*proc)                       {}
func (e *wallEnv) ended(o Outcome)                { e.outcomes = append(e.outcomes, o) }

// Install makes the super-root's pseudo-task of request id, under the
// simulator's key (hostKey), and places fn(args), retaining its packet
// (§4.3.1).
func (w *WallProc) Install(id, prog int, fn string, args []expr.Value) {
	w.env.p.installRoot(hostKey(id), prog, fn, args)
}

// Ended takes the outcomes of the requests that ended since the last call,
// in the order they ended.
func (w *WallProc) Ended() (out []Outcome) {
	out, w.env.outcomes = w.env.outcomes, nil
	return out
}

// Held is what a processor still holds: its resident tasks, its retained
// checkpoints and, for each of its free lists — tasks, hole records,
// packets, results — how many objects the list made and how many are back.
type Held struct {
	Tasks, Checkpoints int
	Made, Free         [4]int
}

// Held reads what the processor holds. Read it from the transport's
// goroutine, or once that has stopped.
func (w *WallProc) Held() Held {
	p := w.env.p
	return Held{Tasks: len(p.tasks), Checkpoints: p.store.Len(),
		Made: [4]int{p.taskFree.made, p.holeFree.made, p.pktFree.made, p.resFree.made},
		Free: [4]int{len(p.taskFree.free), len(p.holeFree.free), len(p.pktFree.free), len(p.resFree.free)}}
}
