// Package node is what the wall-clock backends share beyond the processor:
// the super-root that is every request's parent (§4.3.1) and the
// core.Session that serves a request stream on it. Every processor, the
// super-root's included, is internal/machine's WallProc, the simulator's
// protocol over a wall-clock env, so a backend supplies only a transport:
// internal/livenet moves the messages through mailboxes between goroutines,
// internal/netnode over sockets between OS processes. Functional
// checkpointing (§2) needs nothing more from the interconnect — a parent
// that retains its children's task packets can regenerate them on any
// processor after a crash, and determinacy (§2.1) makes the regenerated run
// converge to the same answer.
package node

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/proto"
	"repro/internal/trace"
)

// Fabric is what the super-root needs from the transport, which it calls
// under its lock: its processor's way out, and a way to load a program.
type Fabric interface {
	machine.Transport
	// LoadProgram makes prog resident on every node, and Program's, under
	// index idx: once per program, with consecutive indices from 0.
	LoadProgram(idx int, prog *lang.Program) error
}

// Request is one submitted root application: the super-root retains its root
// packet (the pre-evaluation checkpoint of §4.3.1) and routes its outcome to
// a private channel, so many requests can be in flight at once.
type Request struct {
	id     int
	answer chan machine.Outcome
}

// errNoAnswer is Wait's error for a request that has not ended.
var errNoAnswer = errors.New("no answer")

// ID is the request's stream index.
func (q *Request) ID() int { return q.id }

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
			return o.Value, o.Err
		case <-t.C:
		case <-stop:
		}
	}
	select {
	case o := <-q.answer:
		return o.Value, o.Err
	default:
		return nil, fmt.Errorf("node: request %d: %w", q.id, errNoAnswer)
	}
}

// Root is the super-root of §4.3.1, the reliable parent of every user
// program: it serializes its processor — the simulator's host, which
// retains, places and reissues every root and announces every death — and
// hands each request its outcome.
type Root struct {
	fabric Fabric

	// cmu guards the stream totals. The transport charges each message as it
	// carries it, at the wire size its interconnect really moves, in a tally
	// that survives the death of the sender; it folds that in, and what only
	// a node sees from the node's own Metrics. byNode attributes reissues to
	// the node that made them; the super-root's belong to no node.
	cmu     sync.Mutex
	metrics trace.Metrics
	byNode  []int64

	// mu guards the processor, the program table and the requests that
	// have not ended.
	mu      sync.Mutex
	host    *machine.WallProc
	progs   map[*lang.Program]int
	reqs    map[int]*Request
	nextReq int
	onFirst func()
}

// Spec is the validated shape of a wall-clock machine — what a transport's
// constructor needs to bring the nodes up.
type Spec struct {
	// Procs is the node count (at least 2).
	Procs int
	// Seed derives every node's placement rng.
	Seed int64
	// NoRecovery is the "none" scheme: deaths are announced and nothing is
	// recovered, so lost work stays lost — the simulator's "none", under
	// which a faulted run simply never finishes.
	NoRecovery bool
	// Eval names the evaluator that runs reduction passes
	// ("" = lang.DefaultEvaluator).
	Eval string
}

// Scheme names the recovery scheme every processor runs.
func (s Spec) Scheme() string {
	if s.NoRecovery {
		return "none"
	}
	return "rollback"
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
	host, err := machine.NewWallProc(proto.HostID, spec.Procs, spec.Seed, spec.Scheme(), fabric)
	if err != nil {
		return nil, err
	}
	return &Root{fabric: fabric, host: host, progs: map[*lang.Program]int{}, reqs: map[int]*Request{},
		byNode: make([]int64, spec.Procs)}, nil
}

// OnFirstDelivery installs fn to run once for each request that ends,
// outside the root's lock (it may re-enter Submit). Install before
// submitting traffic.
func (r *Root) OnFirstDelivery(fn func()) {
	r.mu.Lock()
	r.onFirst = fn
	r.mu.Unlock()
}

// Submit makes prog resident on first sight and installs one root
// application. Request i's tasks all carry the stamp prefix i.
func (r *Root) Submit(prog *lang.Program, fn string, args []expr.Value) (*Request, error) {
	if err := prog.CheckEntry(fn); err != nil {
		return nil, err
	}
	r.mu.Lock()
	idx, ok := r.progs[prog]
	if !ok {
		idx = len(r.progs)
		if err := r.fabric.LoadProgram(idx, prog); err != nil {
			r.mu.Unlock()
			return nil, err
		}
		r.progs[prog] = idx
	}
	q := &Request{id: r.nextReq, answer: make(chan machine.Outcome, 1)}
	r.nextReq++
	r.reqs[q.id] = q
	r.host.Install(q.id, idx, fn, args)
	r.unlock()
	return q, nil
}

// Deliver hands the super-root's processor a message a node sent it: a
// root's result, an evaluation error a task hit (EvalErr), or a death.
func (r *Root) Deliver(m *proto.Msg) {
	r.mu.Lock()
	r.host.Deliver(m)
	r.unlock()
}

// NodeDown is the transport's report that a processor died — an injected
// kill or a broken connection, identically: first-hand news the super-root's
// processor announces, and recovers from unless the scheme is "none".
func (r *Root) NodeDown(dead proto.ProcID) {
	r.Deliver(&proto.Msg{Type: proto.MsgFaultAnnounce, From: dead, To: proto.HostID, Failed: dead})
}

// unlock runs the processor until nothing is pending and drops the requests
// that ended; only once the lock is released does it answer them and run
// the hook, which may re-enter Submit.
func (r *Root) unlock() {
	for r.host.Run() {
	}
	ended := r.host.Ended()
	qs := make([]*Request, len(ended))
	for i, o := range ended {
		qs[i] = r.reqs[o.Req]
		delete(r.reqs, o.Req)
	}
	hook := r.onFirst
	r.mu.Unlock()
	for i, o := range ended {
		qs[i].answer <- o
		if hook != nil {
			hook()
		}
	}
}

// Held is what the super-root still holds: the requests that have not ended,
// and what its processor holds.
func (r *Root) Held() (requests int, host machine.Held) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.reqs), r.host.Held()
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

// Metrics reads the stream totals, the results the super-root drained
// included, and how many retained child packets each node re-sent as a
// parent after peer deaths. They are complete only after the machine's
// Shutdown: until then what a node sent, placed in place or drained may
// still sit in a tally of its own.
func (r *Root) Metrics() (m trace.Metrics, byNode []int64) {
	r.mu.Lock()
	local := r.host.Local()
	r.mu.Unlock()
	r.count(func(t *trace.Metrics) { m, byNode = *t, slices.Clone(r.byNode) })
	m.Add(&local)
	return m, byNode
}
