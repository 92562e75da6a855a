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
	"slices"
	"sync"
	"time"

	"repro/internal/admission"
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

// Request is one submitted root application. Admission decides it at the
// offer: it is installed at once, queued until a request ends, or shed.
// Once installed, the super-root retains its root packet (the
// pre-evaluation checkpoint of §4.3.1) and routes its outcome to a private
// channel, so many requests can be in flight at once.
type Request struct {
	root    *Root
	prog    int
	fn      string
	args    []expr.Value
	offered time.Time
	shed    bool
	answer  chan machine.Outcome

	// id and installed are set at the install, under the root's lock: the
	// stream index (-1 before) and the install stamp (the offer's before).
	id        int
	installed time.Time
	// done is set when the request ends, under the root's lock; its outcome
	// is sent once the lock is released.
	done bool
}

// errNoAnswer is Wait's error for a request that has not ended.
var errNoAnswer = errors.New("node: no answer")

// stamps reads the request's stream index and install stamp.
func (q *Request) stamps() (id int, installed time.Time) {
	q.root.mu.Lock()
	defer q.root.mu.Unlock()
	return q.id, q.installed
}

// ended reports whether the request has ended: its outcome is in its
// channel, or on its way there.
func (q *Request) ended() bool {
	q.root.mu.Lock()
	defer q.root.mu.Unlock()
	return q.done
}

// Wait blocks until the request ends — with its answer, or with the
// evaluation error a task of it reported — its budget runs out, or stop
// closes (nil never does). The budget counts from the offer while the
// request is queued, and from its install once it is installed. A request
// that has ended is answered even when the budget is spent or the stream
// stopped, its outcome awaited if the root has not yet handed it over; a
// request that was shed, or has not ended, reports errNoAnswer.
func (q *Request) Wait(budget time.Duration, stop <-chan struct{}) (expr.Value, error) {
	for from := q.offered; !q.shed; {
		t := time.NewTimer(time.Until(from.Add(budget)))
		select {
		case o := <-q.answer:
			t.Stop()
			return o.Value, o.Err
		case <-t.C:
			if _, at := q.stamps(); at.After(from) {
				from = at // installed from the queue since: a budget of its own
				continue
			}
		case <-stop:
			t.Stop()
		}
		break
	}
	if q.ended() {
		o := <-q.answer
		return o.Value, o.Err
	}
	return nil, errNoAnswer
}

// Root is the super-root of §4.3.1, the reliable parent of every user
// program: it serializes its processor — the simulator's host, which
// retains, places and reissues every root and announces every death — and
// the admission gate, and hands each request its outcome.
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

	// mu guards the processor, the program table, the admission gate and
	// the installed requests that have not ended. A slot is taken at the
	// offer and freed when the request ends — the simulator's accounting,
	// made by the same gate, so every backend makes identical admit, queue
	// and shed decisions on the same stream order. Once closed, Submit
	// refuses with that error and no queued request is installed.
	mu      sync.Mutex
	host    *machine.WallProc
	progs   map[*lang.Program]int
	gate    admission.Gate[*Request]
	reqs    map[int]*Request
	nextReq int
	closed  error
}

// Spec is the validated shape of a wall-clock machine — what a transport's
// constructor needs to bring the nodes up.
type Spec struct {
	// Procs is the node count (at least 2).
	Procs int
	// Seed derives every node's placement rng.
	Seed int64
	// Scheme is the recovery scheme every processor runs: "rollback" (or
	// "", its default), or "none" — deaths are announced and nothing is
	// recovered, so lost work stays lost, the simulator's "none", under
	// which a faulted run simply never finishes.
	Scheme string
	// Eval names the evaluator that runs reduction passes
	// ("" = lang.DefaultEvaluator).
	Eval string
	// Admission bounds the requests the super-root has installed at once;
	// the zero value admits everything.
	Admission admission.Policy
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
	host, err := machine.NewWallProc(proto.HostID, spec.Procs, spec.Seed, spec.Scheme, fabric)
	if err != nil {
		return nil, err
	}
	return &Root{fabric: fabric, host: host, progs: map[*lang.Program]int{}, reqs: map[int]*Request{},
		gate: admission.Gate[*Request]{Policy: spec.Admission}, byNode: make([]int64, spec.Procs)}, nil
}

// Submit offers one root application. Its program is made resident on
// first sight, before the offer, as the simulator interns it, so no install
// can fail; then the gate installs it at once, queues it or sheds it.
// Request i's tasks all carry the stamp prefix i.
func (r *Root) Submit(prog *lang.Program, fn string, args []expr.Value) (*Request, error) {
	if err := prog.CheckEntry(fn); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.unlock()
	if r.closed != nil {
		return nil, r.closed
	}
	now := time.Now()
	q := &Request{root: r, fn: fn, args: args, offered: now, answer: make(chan machine.Outcome, 1), id: -1, installed: now}
	var ok bool
	if q.prog, ok = r.progs[prog]; !ok {
		q.prog = len(r.progs)
		if err := r.fabric.LoadProgram(q.prog, prog); err != nil {
			return nil, err
		}
		r.progs[prog] = q.prog
	}
	switch r.gate.Offer(q) {
	case admission.Admit:
		r.install(q, q.offered)
	case admission.Shed:
		q.shed = true
	}
	return q, nil
}

// install gives an admitted request its stream index and install stamp and
// installs its root. The caller holds mu.
func (r *Root) install(q *Request, at time.Time) {
	q.id, q.installed = r.nextReq, at
	r.nextReq++
	r.reqs[q.id] = q
	r.host.Install(q.id, q.prog, q.fn, q.args)
}

// close stops admission for good, Submit failing with err from then on,
// and returns the queue's high-water mark.
func (r *Root) close(err error) (depthMax int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = err
	return r.gate.DepthMax()
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

// reply is an ended request's outcome, to hand over once the lock is gone.
type reply struct {
	q *Request
	o machine.Outcome
}

// unlock runs the processor until nothing is pending. Each request that
// ended gives its slot back and the queue head the slot goes to is
// installed before the lock is released; the requests are answered after —
// each channel has room for its one outcome — so a waiter never wakes into
// a held lock.
func (r *Root) unlock() {
	var ended []reply
	for r.host.Run() || r.settle(&ended) {
	}
	r.mu.Unlock()
	for _, e := range ended {
		e.q.answer <- e.o
	}
}

// settle takes the requests that ended off the books, appending their
// replies to ended, and reports whether a queued one was installed in their
// place.
func (r *Root) settle(ended *[]reply) (installed bool) {
	for _, o := range r.host.Ended() {
		q := r.reqs[o.Req]
		q.done = true
		*ended = append(*ended, reply{q, o})
		delete(r.reqs, o.Req)
		if next, ok := r.gate.Release(); ok && r.closed == nil {
			r.install(next, time.Now())
			installed = true
		}
	}
	return installed
}

// Held is what the super-root still holds: the installed requests that have
// not ended, and what its processor holds.
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
