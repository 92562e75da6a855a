// Package node is what the wall-clock backends share beyond the processor:
// the super-root that is every request's parent (§4.3.1) and the
// core.Session that serves a request stream on it. Each processor runs
// internal/machine's WallProc, the simulator's protocol over a wall-clock
// env, so a backend supplies only a transport: internal/livenet moves the
// messages through mailboxes between goroutines, internal/netnode over
// sockets between OS processes. Functional checkpointing (§2) needs nothing
// more from the interconnect — a parent that retains its children's task
// packets can regenerate them on any processor after a crash, and
// determinacy (§2.1) makes the regenerated run converge to the same answer.
package node

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/proto"
	"repro/internal/stamp"
	"repro/internal/trace"
)

// Fabric is what the super-root needs from the transport: a way to reach
// every processor. Its sends neither block nor fail: a message to a dead
// processor vanishes.
type Fabric interface {
	// LoadProgram makes prog resident on every node under index idx. The
	// root calls it once per program, with consecutive indices from 0, before
	// the first packet tagged idx is sent.
	LoadProgram(idx int, prog *lang.Program) error
	// Spawn sends a root packet to a processor.
	Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool)
	// NodeDown tells processor to that processor dead has failed: a
	// proto.MsgFaultAnnounce from proto.HostID.
	NodeDown(to, dead proto.ProcID)
}

// Request is one submitted root application: the super-root retains its root
// packet (the pre-evaluation checkpoint of §4.3.1) and routes its answer to
// a private channel, so many requests can be in flight at once.
type Request struct {
	id     uint32
	answer chan outcome
	pkt    *proto.TaskPacket
	dest   proto.ProcID
	done   bool
}

// outcome is how a request ended: its answer, or the evaluation error that
// means it has none.
type outcome struct {
	v   expr.Value
	err error
}

// errNoAnswer is Wait's error for a request that has not ended.
var errNoAnswer = errors.New("no answer")

// ID is the request's stream index.
func (q *Request) ID() int { return int(q.id) }

// Wait blocks until the request ends — with its answer, or with the
// evaluation error a task of it reported — the timeout elapses, or stop closes
// (nil never does). An outcome already delivered is accepted even when the
// timeout is spent or the stream stopped.
func (q *Request) Wait(timeout time.Duration, stop <-chan struct{}) (expr.Value, error) {
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case o := <-q.answer:
			return o.v, o.err
		case <-t.C:
		case <-stop:
		}
	}
	select {
	case o := <-q.answer:
		return o.v, o.err
	default:
		return nil, fmt.Errorf("node: request %d: %w", q.id, errNoAnswer)
	}
}

// Root is the super-root of §4.3.1: the reliable parent of every user
// program. It holds each request's root packet as a checkpoint, places roots
// round-robin, reissues the roots a dead processor was hosting, and — being
// where deaths are reported — decides whether survivors hear of them.
type Root struct {
	fabric  Fabric
	recover bool

	// cmu guards the stream totals. The transport charges each message as it
	// carries it, at the wire size its interconnect really moves, in a tally
	// that survives the death of the sender; it folds that in, and what only
	// a node sees from the node's own Metrics. byNode attributes reissues to
	// the node that made them; the super-root's belong to no node.
	cmu     sync.Mutex
	metrics trace.Metrics
	byNode  []int64

	// progMu guards the program table; it is held across LoadProgram so no
	// packet tagged with an index can overtake the program it names.
	progMu sync.Mutex
	progs  map[*lang.Program]int

	// mu guards the request table, each request's dest/done, and the
	// liveness view; Deliver and NodeDown both take it, so a root reissue can
	// never race its own completion.
	mu      sync.Mutex
	live    []bool // what the transport has reported, nothing else (§3)
	reqs    map[uint32]*Request
	nextReq uint32
	onFirst func()
}

// Spec is the validated shape of a wall-clock machine — what a transport's
// constructor needs to bring the nodes up.
type Spec struct {
	// Procs is the node count (at least 2).
	Procs int
	// Seed derives every node's placement rng.
	Seed int64
	// NoRecovery is the "none" scheme: survivors are not told about deaths
	// and the super-root does not reissue roots, so lost work stays lost —
	// like the simulator's "none", a faulted run simply never finishes.
	NoRecovery bool
	// Eval names the evaluator that runs reduction passes
	// ("" = lang.DefaultEvaluator).
	Eval string
}

// Evaluator resolves Spec.Eval.
func (s Spec) Evaluator() (lang.Evaluator, error) {
	if s.Eval == "" {
		return lang.EvaluatorByName(lang.DefaultEvaluator)
	}
	return lang.EvaluatorByName(s.Eval)
}

// NewRoot builds the super-root of a machine whose processors are reached
// through fabric.
func NewRoot(spec Spec, fabric Fabric) (*Root, error) {
	if spec.Procs < 2 {
		return nil, errors.New("node: need at least 2 nodes")
	}
	r := &Root{
		fabric:  fabric,
		recover: !spec.NoRecovery,
		progs:   map[*lang.Program]int{},
		live:    make([]bool, spec.Procs),
		reqs:    map[uint32]*Request{},
		byNode:  make([]int64, spec.Procs),
	}
	for i := range r.live {
		r.live[i] = true
	}
	return r, nil
}

// OnFirstDelivery installs fn to run after each request's first root
// delivery, outside the root's lock (it may re-enter Submit). Install before
// submitting traffic.
func (r *Root) OnFirstDelivery(fn func()) {
	r.mu.Lock()
	r.onFirst = fn
	r.mu.Unlock()
}

// programIndex makes prog resident on first sight and returns its tag.
func (r *Root) programIndex(prog *lang.Program) (int, error) {
	r.progMu.Lock()
	defer r.progMu.Unlock()
	if idx, ok := r.progs[prog]; ok {
		return idx, nil
	}
	idx := len(r.progs)
	if err := r.fabric.LoadProgram(idx, prog); err != nil {
		return 0, err
	}
	r.progs[prog] = idx
	return idx, nil
}

// Submit enqueues one root application and returns its request handle. The
// root packet is stamped with the request's stream index, so every request's
// task tree is disjoint from every other's; roots are spread round-robin
// over the processors not known dead (request 0 lands on node 0).
func (r *Root) Submit(prog *lang.Program, fn string, args []expr.Value) (*Request, error) {
	if err := prog.CheckEntry(fn); err != nil {
		return nil, err
	}
	idx, err := r.programIndex(prog)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	id := r.nextReq
	r.nextReq++
	pkt := &proto.TaskPacket{
		Key:    proto.TaskKey{Stamp: stamp.FromPath(id)},
		Fn:     fn,
		Args:   args,
		Parent: proto.Addr{Proc: proto.HostID},
		Prog:   idx,
	}
	// Seal the memoized wire size before NodeDown can see the packet.
	pkt.EncodedSize()
	q := &Request{id: id, answer: make(chan outcome, 1), pkt: pkt, dest: r.firstLive(int(id) % len(r.live))}
	r.reqs[id] = q
	dest := q.dest
	r.mu.Unlock()
	r.fabric.Spawn(dest, pkt, false)
	return q, nil
}

// firstLive scans round-robin from start for a processor not known dead;
// with none left it falls back to start.
func (r *Root) firstLive(start int) proto.ProcID {
	for i := range r.live {
		if d := (start + i) % len(r.live); r.live[d] {
			return proto.ProcID(d)
		}
	}
	return proto.ProcID(start)
}

// Deliver hands a root's result to its request.
func (r *Root) Deliver(res *proto.Result) {
	r.end(res.Child, outcome{v: res.Value})
}

// Fail ends the request res.Child belongs to with the evaluation error
// processor from hit in it, res.Value being the error's text: a program
// error is determinate (§2.1), so the request has no answer on any processor
// and nothing is recovered.
func (r *Root) Fail(from proto.ProcID, res *proto.Result) {
	text, _ := res.Value.(expr.VStr)
	err := fmt.Errorf("%w: %s", lang.ErrEval, strings.TrimPrefix(string(text), lang.ErrEval.Error()+": "))
	r.end(res.Child, outcome{err: fmt.Errorf("task %v on node %d: %w", res.Child, from, err)})
}

// end gives the request that task belongs to its outcome; outcomes for
// already-ended (a twin's answer, a sibling's failure) or unknown requests
// drain harmlessly. Only the first fires the completion hook — a duplicate
// must not free a second admission slot.
func (r *Root) end(task proto.TaskKey, o outcome) {
	r.mu.Lock()
	q := r.reqs[task.Stamp.Component(0)]
	first := q != nil && !q.done
	if q != nil {
		q.done = true
	}
	hook := r.onFirst
	r.mu.Unlock()
	if q == nil {
		r.count(func(m *trace.Metrics) { m.LateResults++ })
		return
	}
	select {
	case q.answer <- o:
	default: // already ended; determinacy says the outcomes match
	}
	if first && hook != nil {
		hook()
	}
}

// NodeDown is the transport's report that a processor died — an injected
// kill or a broken connection, identically. Unless recovery is off, the
// survivors are told, and — the super-root being every root's parent — each
// outstanding request whose root was placed on the dead processor is
// reissued from its retained packet (§4.3.1).
func (r *Root) NodeDown(dead proto.ProcID) {
	type reissue struct {
		to  proto.ProcID
		pkt *proto.TaskPacket
	}
	var survivors []proto.ProcID
	var lost []reissue
	r.mu.Lock()
	r.live[dead] = false
	if r.recover {
		for i, ok := range r.live {
			if ok {
				survivors = append(survivors, proto.ProcID(i))
			}
		}
		for _, q := range r.reqs {
			if !q.done && q.dest == dead {
				q.dest = r.firstLive(0)
				lost = append(lost, reissue{q.dest, q.pkt})
			}
		}
	}
	r.mu.Unlock()
	for _, p := range survivors {
		r.fabric.NodeDown(p, dead)
	}
	for _, l := range lost {
		r.fabric.Spawn(l.to, l.pkt, true)
	}
}

// count runs f on the stream totals under the counter lock, which byNode shares.
func (r *Root) count(f func(m *trace.Metrics)) {
	r.cmu.Lock()
	f(&r.metrics)
	r.cmu.Unlock()
}

// CountSent charges a message of type t and wire bytes to m; a task packet
// is a spawn too (a reissue, if reissue), as tasks.spawned is on the
// simulator. A transport keeps such a tally per node and Folds it in,
// crediting reissues.
func CountSent(m *trace.Metrics, t proto.MsgType, reissue bool, wire int) {
	m.BytesOnWire += int64(wire)
	machine.CountMsg(m, t)
	if t == proto.MsgTask {
		m.TasksSpawned++
		if reissue {
			m.Reissues++
		}
	}
}

// Charge charges one message the super-root sent; its reissues belong to no
// node.
func (r *Root) Charge(t proto.MsgType, reissue bool, wire int) {
	r.count(func(m *trace.Metrics) { CountSent(m, t, reissue, wire) })
}

// CountBlackholed charges one message a dead processor swallowed: drained
// harmlessly, since the sender's checkpoint is what recovers the work (§3.4).
func (r *Root) CountBlackholed() { r.count(func(m *trace.Metrics) { m.Blackholed++ }) }

// Fold adds what processor from counted (what it sent, and its
// machine.WallProc's Local counts, or a delta of them); its reissues are
// attributed to it.
func (r *Root) Fold(from proto.ProcID, d *trace.Metrics) {
	r.count(func(m *trace.Metrics) { m.Add(d); r.byNode[from] += d.Reissues })
}

// Metrics reads the stream totals and how many retained child packets each
// node re-sent as a parent after peer deaths. They are complete only after the
// machine's Shutdown: until then what a node sent, placed in place or drained
// may still sit in a tally of its own.
func (r *Root) Metrics() (m trace.Metrics, byNode []int64) {
	r.count(func(t *trace.Metrics) { m, byNode = *t, slices.Clone(r.byNode) })
	return m, byNode
}
