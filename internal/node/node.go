// Package node is the wall-clock half of the paper's protocol, stated once
// for every substrate that runs on real time: the rollback node (§3), the
// super-root that is every request's parent (§4.3.1), and the core.Session
// that serves a request stream on them. Functional checkpointing (§2) needs
// nothing from the interconnect — a parent that retains its children's task
// packets can regenerate them on any processor after a crash, and
// determinacy (§2.1) makes the regenerated run converge to the same answer
// — so a backend supplies only a transport: internal/livenet moves the
// messages through mailboxes between goroutines, internal/netnode over sockets
// between OS processes, and everything they do with a message is here.
//
// The recovery style is rollback in its simplest form: every parent reissues
// its own lost children (the topmost-table optimization of §3.2 is exercised
// by the deterministic machine in internal/machine and deliberately omitted
// here). Orphaned work keeps running and its results are drained harmlessly
// — "Returns from orphan tasks are theoretically harmless" (§3.4).
package node

import (
	"math/rand"
	"slices"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/stamp"
	"repro/internal/trace"
)

// Link is how task packets and results leave a node. Sends must not block
// the caller and cannot fail: a message to a dead processor vanishes, and
// the sender's retained checkpoint — not the interconnect — is what recovers
// the work. A node does not mail itself: only what crosses the interconnect
// is a message (§2.1's task packet is what a parent sends to another
// processor), the simulator's rule. The one message a Link is handed with the
// sender as addressee is a long in-place run yielding (settle); it is carried
// and charged like any other.
type Link interface {
	// Spawn sends a task packet to a processor; reissue marks the re-send of
	// a retained checkpoint after the original destination died.
	Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool)
	// Result returns a finished task's value to the processor holding its
	// parent (proto.HostID for a root: the super-root).
	Result(to proto.ProcID, res *proto.Result)
	// Fail reports to the super-root that a task's evaluation failed with
	// err (it wraps lang.ErrEval): the request the task belongs to has no
	// answer.
	Fail(task proto.TaskKey, err error)
}

// task is a resident task: one incarnation, linked to the next incarnation
// of its stamp.
type task struct {
	pkt      *proto.TaskPacket
	ep       lang.EvalProgram
	residual lang.TaskState
	nextID   int
	unfilled int
	// holes is indexed by demand id and grown once per pass to nextID: the
	// retained child packets and their destinations are the functional
	// checkpoint (§2.1), everything recovery needs.
	holes []hole
	next  *task
}

// hole is one demand's record. pkt is nil if the demand was never issued
// here; value is a filled hole's answer until the next Resume consumes it.
type hole struct {
	pkt    *proto.TaskPacket
	dest   proto.ProcID
	filled bool
	value  expr.Value
}

// local is a spawn or a result a node addressed to itself: exactly one of
// pkt and res is set, reissue goes with pkt.
type local struct {
	pkt     *proto.TaskPacket
	res     *proto.Result
	reissue bool
}

// settleBudget is how many messages one handler call delivers in place before
// it lets the transport's loop come round again.
const settleBudget = 1 << 12

// Node is one processor's protocol state. It is single-threaded — the
// transport's receive loop calls one On* handler at a time, like §4.2's
// "LOOP CASE received packet OF ..." — and it acts on the world only through
// its Link. What it addresses to itself waits on a private FIFO that the
// handler drains before it returns: delivered later and in order, as the
// interconnect would have, without being a message (settle has the one
// exception). Tasks are keyed by stamp
// (nothing here replicates, so a key's Rep is always zero), each stamp the
// head of a list of incarnations: after recovery several incarnations of one
// logical task (spawned by different parent incarnations) can legitimately
// coexist, and determinacy makes any result valid for all of them.
type Node struct {
	id      proto.ProcID
	link    Link
	program func(idx int) lang.EvalProgram
	tasks   map[stamp.Stamp]*task
	fills   map[int]expr.Value // what the Resume in flight consumes
	rng     *rand.Rand
	live    []bool  // what this node has been told about its peers (§3)
	inbox   []local // self-addressed, not yet delivered

	// Metrics is what only this node sees, so the transport folds it in: the
	// packets it delivered in place (tasks.spawned, tasks.in-place, and
	// recover.reissues for the reissues among them) and the results it
	// drained. Read it from the receive loop, or once it has stopped.
	Metrics trace.Metrics
}

// New builds processor id of a procs-node machine. Placement draws from an
// rng derived from the machine seed, so the same seed gives every node the
// same placement sequence on every transport. program resolves the compiled
// form of a packet's Prog tag; code is resident on every node, so the tag
// names a code segment rather than shipping one.
func New(id proto.ProcID, procs int, seed int64, link Link, program func(idx int) lang.EvalProgram) *Node {
	n := &Node{
		id:      id,
		link:    link,
		program: program,
		tasks:   map[stamp.Stamp]*task{},
		fills:   map[int]expr.Value{},
		rng:     rand.New(rand.NewSource(seed + int64(id)*7919)),
		live:    make([]bool, procs),
	}
	for i := range n.live {
		n.live[i] = true
	}
	return n
}

// OnSpawn receives a task packet from the interconnect.
func (n *Node) OnSpawn(pkt *proto.TaskPacket) {
	n.install(pkt)
	n.settle()
}

// install installs a task and runs its first pass. A duplicate with the same
// parent address is a harmless re-delivery and keeps the incumbent; a
// duplicate with a different parent address is another incarnation (spawned
// by a recovered — or orphaned — parent incarnation) and runs alongside:
// killing either would wedge whichever lineage needed it, and determinacy
// keeps coexistence harmless.
func (n *Node) install(pkt *proto.TaskPacket) {
	last := n.tasks[pkt.Key.Stamp]
	for old := last; old != nil; old = old.next {
		if old.pkt.Parent == pkt.Parent && old.pkt.HoleID == pkt.HoleID {
			return
		}
		last = old
	}
	t := &task{pkt: pkt, ep: n.program(pkt.Prog)}
	if last == nil {
		n.tasks[pkt.Key.Stamp] = t
	} else {
		last.next = t
	}
	out, st, err := t.ep.Flatten(pkt.Fn, pkt.Args, &t.nextID)
	n.apply(t, out, st, err)
}

// apply handles a pass outcome: finish, or checkpoint and spawn the demands.
// A validated program can still fail at run time (10 / x at x = 0). The error
// is as determinate as a value (§2.1) — a reissue would hit it again — so it
// is no fault to recover from: the task retires, its request fails at the
// super-root, and the node serves on. The task's ancestors are left waiting,
// like the parents of any orphan.
func (n *Node) apply(t *task, out lang.Outcome, st lang.TaskState, err error) {
	if err != nil {
		n.retire(t)
		n.link.Fail(t.pkt.Key, err)
		return
	}
	if out.Done {
		n.finish(t, out.Value)
		return
	}
	t.residual = st
	if len(out.Demands) > 0 {
		t.holes = append(t.holes, make([]hole, t.nextID-len(t.holes))...)
	}
	for _, d := range out.Demands {
		child := &proto.TaskPacket{
			Key:    proto.TaskKey{Stamp: t.pkt.Key.Stamp.Child(uint32(d.ID))},
			Fn:     d.Fn,
			Args:   d.Args,
			Parent: proto.Addr{Proc: n.id, Task: t.pkt.Key},
			HoleID: d.ID,
			Prog:   t.pkt.Prog,
		}
		dest := n.pickDest()
		t.holes[d.ID] = hole{pkt: child, dest: dest}
		t.unfilled++
		n.spawn(dest, child, false)
	}
}

// spawn places a task packet: through the interconnect, or — when placement
// drew this node — on the private FIFO.
func (n *Node) spawn(dest proto.ProcID, pkt *proto.TaskPacket, reissue bool) {
	if dest != n.id {
		n.link.Spawn(dest, pkt, reissue)
		return
	}
	n.inbox = append(n.inbox, local{pkt: pkt, reissue: reissue})
}

// settle delivers what the handler addressed to this node, and what those
// deliveries address to it in turn, oldest first, until nothing is left: a
// loop, not a recursion, however deep the subtree that stayed home. However
// long, though, is bounded: a machine down to one processor places everything
// on it, and a handler that ran a whole request — or a program that never
// ends — would keep the transport's loop from seeing a kill or a shutdown.
// Past settleBudget deliveries the node yields: the oldest waiting message
// goes to itself through the Link, a message like any other that crosses,
// and its arrival — or any other's — resumes the rest.
func (n *Node) settle() {
	i := 0
	for ; i < len(n.inbox) && i < settleBudget; i++ {
		if m := n.inbox[i]; m.pkt != nil {
			n.Metrics.TasksSpawned++
			n.Metrics.TasksInPlace++
			if m.reissue {
				n.Metrics.Reissues++
			}
			n.install(m.pkt)
		} else {
			n.fill(m.res)
		}
	}
	if i < len(n.inbox) {
		if m := n.inbox[i]; m.pkt != nil {
			n.link.Spawn(n.id, m.pkt, m.reissue)
		} else {
			n.link.Result(n.id, m.res)
		}
		i++
	}
	rest := copy(n.inbox, n.inbox[i:])
	clear(n.inbox[rest:])
	n.inbox = n.inbox[:rest]
}

// finish returns the task's value to its parent — over the interconnect, or
// on the private FIFO when the parent is resident here — and retires that
// incarnation.
func (n *Node) finish(t *task, v expr.Value) {
	n.retire(t)
	res := &proto.Result{
		Child:      t.pkt.Key,
		ParentTask: t.pkt.Parent.Task,
		HoleID:     t.pkt.HoleID,
		Value:      v,
	}
	if to := t.pkt.Parent.Proc; to != n.id {
		n.link.Result(to, res)
	} else {
		n.inbox = append(n.inbox, local{res: res})
	}
}

// retire unlinks one incarnation from the resident tasks.
func (n *Node) retire(t *task) {
	key := t.pkt.Key.Stamp
	switch head := n.tasks[key]; {
	case head != t:
		for p := head; p != nil; p = p.next {
			if p.next == t {
				p.next = t.next
				break
			}
		}
	case t.next == nil:
		delete(n.tasks, key)
	default:
		n.tasks[key] = t.next
	}
}

// OnResult receives a result from the interconnect.
func (n *Node) OnResult(r *proto.Result) {
	n.fill(r)
	n.settle()
}

// fill fills the matching hole of every incarnation of the addressee task —
// results are determinate, so one child's answer serves them all — and
// resumes whichever incarnations become complete. A hole id the table does
// not hold (a decoded frame can name any) is a hole never issued here.
func (n *Node) fill(r *proto.Result) {
	t := n.tasks[r.ParentTask.Stamp]
	if t == nil {
		n.Metrics.LateResults++ // late/orphan result: ignored (§4.2 rule of thumb)
		return
	}
	consumed := false
	// A resume retires at most its own incarnation: next is read before it.
	var next *task
	for ; t != nil; t = next {
		next = t.next
		if r.HoleID < 0 || r.HoleID >= len(t.holes) {
			continue
		}
		h := &t.holes[r.HoleID]
		if h.pkt == nil || h.filled {
			continue
		}
		consumed = true
		h.filled, h.value = true, r.Value
		if t.unfilled--; t.unfilled > 0 {
			continue
		}
		for id := range t.holes {
			if h := &t.holes[id]; h.value != nil {
				n.fills[id], h.value = h.value, nil
			}
		}
		out, st, err := t.ep.Resume(t.residual, n.fills, &t.nextID)
		clear(n.fills)
		n.apply(t, out, st, err)
	}
	if !consumed {
		n.Metrics.DupResults++ // duplicate: "the second copy is simply ignored"
	}
}

// OnNodeDown reissues the retained packets of unfilled children that were
// placed on the dead processor — the rollback reissue of §3, one parent
// incarnation at a time, in stamp order so the same state draws the same
// placements. Under the "none" scheme no node is ever told of a death, so
// lost work stays lost.
func (n *Node) OnNodeDown(dead proto.ProcID) {
	n.live[dead] = false
	var lost []*hole
	for _, head := range n.tasks {
		for t := head; t != nil; t = t.next {
			for id := range t.holes {
				if h := &t.holes[id]; h.pkt != nil && !h.filled && h.dest == dead {
					lost = append(lost, h)
				}
			}
		}
	}
	// Incarnations of one task retain identical packets: a tie is no choice.
	slices.SortFunc(lost, func(a, b *hole) int { return a.pkt.Key.Compare(b.pkt.Key) })
	for _, h := range lost {
		h.dest = n.pickDest()
		n.spawn(h.dest, h.pkt, true)
	}
	n.settle()
}

// pickDest chooses a uniformly random processor (possibly itself) among
// those this node has not been told are dead. A processor that died
// unannounced may be picked; the packet is lost with it and reissued when
// the announcement arrives.
func (n *Node) pickDest() proto.ProcID {
	for tries := 0; tries < 64; tries++ {
		if d := n.rng.Intn(len(n.live)); n.live[d] {
			return proto.ProcID(d)
		}
	}
	return n.id
}
