package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/stamp"
)

// Fabric is what the super-root needs from the transport: a way to reach
// every processor. Like Link, its sends neither block nor fail.
type Fabric interface {
	// LoadProgram makes prog resident on every node under index idx. The
	// root calls it once per program, with consecutive indices from 0, before
	// the first packet tagged idx is sent.
	LoadProgram(idx int, prog *lang.Program) error
	// Spawn sends a root packet to a processor.
	Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool)
	// NodeDown tells processor to that processor dead has failed.
	NodeDown(to, dead proto.ProcID)
}

// Counters are the stream totals of a wall-clock machine, defined once for
// every transport. The transport charges each protocol message as it carries
// it — at whatever wire size its interconnect really moves — so the counts
// survive the death of the node that sent the message. A task packet a node
// placed on itself is spawned but is no message (the simulator's rule: only
// what crosses the interconnect is charged); the node counts those and the
// transport brings the counts home (CountInPlace).
type Counters struct {
	spawned, reissued, inPlace, drained, msgs, bytes atomic.Int64
	byNode                                           []atomic.Int64
}

// CountSpawn charges one task-packet message sent by processor from
// (proto.HostID for the super-root). Reissues are spawns too — Spawned counts
// every task packet sent, like the simulator's — and are attributed to the
// reissuing node; the super-root's belong to no node.
func (c *Counters) CountSpawn(from proto.ProcID, wire int, reissue bool) {
	c.CountMsg(wire)
	c.spawned.Add(1)
	if reissue {
		c.reissued.Add(1)
		if from >= 0 {
			c.byNode[from].Add(1)
		}
	}
}

// CountInPlace adds the task packets processor from reports having placed on
// itself, reissues of them being reissues: Spawned, Reissued and the per-node
// attribution count them like any other, Messages and MsgBytes do not.
func (c *Counters) CountInPlace(from proto.ProcID, spawns, reissues int64) {
	c.spawned.Add(spawns)
	c.inPlace.Add(spawns)
	c.reissued.Add(reissues)
	c.byNode[from].Add(reissues)
}

// CountMsg charges one result or node-down message.
func (c *Counters) CountMsg(wire int) {
	c.msgs.Add(1)
	c.bytes.Add(int64(wire))
}

// CountDrained charges messages discarded harmlessly: black-holed at dead
// processors, or the late and duplicate results a node reports having
// dropped (§3.4).
func (c *Counters) CountDrained(n int64) { c.drained.Add(n) }

// Snapshot reads the totals as the backend-neutral core.Counters; every
// recovery here is a reissue.
func (c *Counters) Snapshot() core.Counters {
	reissued := c.reissued.Load()
	return core.Counters{
		Messages:   c.msgs.Load(),
		MsgBytes:   c.bytes.Load(),
		Spawned:    c.spawned.Load(),
		InPlace:    c.inPlace.Load(),
		Reissued:   reissued,
		Drained:    c.drained.Load(),
		Recoveries: reissued,
	}
}

// ReissuesByNode reports how many retained child packets each node re-sent
// as a parent after peer deaths.
func (c *Counters) ReissuesByNode() []int64 {
	out := make([]int64, len(c.byNode))
	for i := range c.byNode {
		out[i] = c.byNode[i].Load()
	}
	return out
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
	Counters
	fabric  Fabric
	recover bool

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
	}
	r.byNode = make([]atomic.Int64, spec.Procs)
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

// Fail ends the request that task belongs to with the evaluation error
// processor from hit in it: a program error is determinate (§2.1), so the
// request has no answer on any processor and nothing is recovered.
func (r *Root) Fail(from proto.ProcID, task proto.TaskKey, err error) {
	r.end(task, outcome{err: fmt.Errorf("task %v on node %d: %w", task, from, err)})
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
		r.CountDrained(1)
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
