// Package node is the wall-clock half of the paper's protocol, stated once
// for every substrate that runs on real time: the rollback node (§3), the
// super-root that is every request's parent (§4.3.1), and the core.Session
// that serves a request stream on them. Functional checkpointing (§2) needs
// nothing from the interconnect — a parent that retains its children's task
// packets can regenerate them on any processor after a crash, and
// determinacy (§2.1) makes the regenerated run converge to the same answer
// — so a backend supplies only a transport: internal/livenet moves the
// messages over channels between goroutines, internal/netnode over sockets
// between OS processes, and everything they do with a message is here.
//
// The recovery style is rollback in its simplest form: every parent reissues
// its own lost children (the topmost-table optimization of §3.2 is exercised
// by the deterministic machine in internal/machine and deliberately omitted
// here). Orphaned work keeps running and its results are drained harmlessly
// — "Returns from orphan tasks are theoretically harmless" (§3.4).
package node

import (
	"fmt"
	"math/rand"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/stamp"
)

// Link is how task packets and results leave a node. Sends must not block
// the caller and cannot fail: a message to a dead processor vanishes, and
// the sender's retained checkpoint — not the interconnect — is what recovers
// the work.
type Link interface {
	// Spawn sends a task packet to a processor; reissue marks the re-send of
	// a retained checkpoint after the original destination died.
	Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool)
	// Result returns a finished task's value to the processor holding its
	// parent (proto.HostID for a root: the super-root).
	Result(to proto.ProcID, res *proto.Result)
}

// task is a resident task.
type task struct {
	pkt      *proto.TaskPacket
	ep       lang.EvalProgram
	residual lang.TaskState
	nextID   int
	fills    map[int]expr.Value
	unfilled int
	// children maps hole id → retained child packet + destination: the
	// functional checkpoint (§2.1), everything recovery needs.
	children map[int]*ckpt
}

type ckpt struct {
	pkt    *proto.TaskPacket
	dest   proto.ProcID
	filled bool
}

// Node is one processor's protocol state. It is single-threaded — the
// transport's receive loop calls one On* handler at a time, like §4.2's
// "LOOP CASE received packet OF ..." — and it acts on the world only through
// its Link. Tasks are keyed by stamp (nothing here replicates, so a key's
// Rep is always zero), with a list per stamp: after recovery
// several incarnations of one logical task (spawned by different parent
// incarnations) can legitimately coexist, and determinacy makes any result
// valid for all of them.
type Node struct {
	id      proto.ProcID
	link    Link
	program func(idx int) lang.EvalProgram
	tasks   map[stamp.Stamp][]*task
	rng     *rand.Rand
	live    []bool // what this node has been told about its peers (§3)

	// Drained counts the late, orphan and duplicate results this node
	// discarded; Reissues the retained packets it re-sent after peer deaths.
	// Plain fields: read them once the receive loop has stopped.
	Drained, Reissues int64
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
		tasks:   map[stamp.Stamp][]*task{},
		rng:     rand.New(rand.NewSource(seed + int64(id)*7919)),
		live:    make([]bool, procs),
	}
	for i := range n.live {
		n.live[i] = true
	}
	return n
}

// OnSpawn installs a task and runs its first pass. A duplicate with the same
// parent address is a harmless re-delivery and keeps the incumbent; a
// duplicate with a different parent address is another incarnation (spawned
// by a recovered — or orphaned — parent incarnation) and runs alongside:
// killing either would wedge whichever lineage needed it, and determinacy
// keeps coexistence harmless.
func (n *Node) OnSpawn(pkt *proto.TaskPacket) {
	for _, old := range n.tasks[pkt.Key.Stamp] {
		if old.pkt.Parent == pkt.Parent && old.pkt.HoleID == pkt.HoleID {
			return
		}
	}
	t := &task{
		pkt:      pkt,
		ep:       n.program(pkt.Prog),
		fills:    map[int]expr.Value{},
		children: map[int]*ckpt{},
	}
	n.tasks[pkt.Key.Stamp] = append(n.tasks[pkt.Key.Stamp], t)
	out, st, err := t.ep.Flatten(pkt.Fn, pkt.Args, &t.nextID)
	n.apply(t, out, st, err)
}

// apply handles a pass outcome: finish, or checkpoint and spawn the demands.
func (n *Node) apply(t *task, out lang.Outcome, st lang.TaskState, err error) {
	if err != nil {
		panic(fmt.Sprintf("node %d: %v", n.id, err)) // validated programs cannot fail
	}
	if out.Done {
		n.finish(t, out.Value)
		return
	}
	t.residual = st
	for _, d := range out.Demands {
		child := &proto.TaskPacket{
			Key:    proto.TaskKey{Stamp: t.pkt.Key.Stamp.Child(uint32(d.ID))},
			Fn:     d.Fn,
			Args:   d.Args,
			Parent: proto.Addr{Proc: n.id, Task: t.pkt.Key},
			HoleID: d.ID,
			Prog:   t.pkt.Prog,
		}
		// Seal the memoized wire size before the packet is shared: reissues
		// resend the retained pointer while receivers still hold it.
		child.EncodedSize()
		dest := n.pickDest()
		t.children[d.ID] = &ckpt{pkt: child, dest: dest}
		t.unfilled++
		n.link.Spawn(dest, child, false)
	}
}

// finish sends the task's value to its parent and retires that incarnation.
func (n *Node) finish(t *task, v expr.Value) {
	key := t.pkt.Key.Stamp
	list := n.tasks[key]
	for i, cand := range list {
		if cand == t {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(n.tasks, key)
	} else {
		n.tasks[key] = list
	}
	n.link.Result(t.pkt.Parent.Proc, &proto.Result{
		Child:      t.pkt.Key,
		ParentTask: t.pkt.Parent.Task,
		HoleID:     t.pkt.HoleID,
		Value:      v,
	})
}

// OnResult fills the matching hole of every incarnation of the addressee
// task — results are determinate, so one child's answer serves them all —
// and resumes whichever incarnations become complete.
func (n *Node) OnResult(r *proto.Result) {
	list := n.tasks[r.ParentTask.Stamp]
	if len(list) == 0 {
		n.Drained++ // late/orphan result: ignored (§4.2 rule of thumb)
		return
	}
	consumed := false
	// finish() mutates the list; iterate over a snapshot.
	for _, t := range append([]*task(nil), list...) {
		ck := t.children[r.HoleID]
		if ck == nil || ck.filled {
			continue
		}
		consumed = true
		ck.filled = true
		t.fills[r.HoleID] = r.Value
		t.unfilled--
		if t.unfilled > 0 {
			continue
		}
		fills := t.fills
		t.fills = map[int]expr.Value{}
		out, st, err := t.ep.Resume(t.residual, fills, &t.nextID)
		n.apply(t, out, st, err)
	}
	if !consumed {
		n.Drained++ // duplicate: "the second copy is simply ignored"
	}
}

// OnNodeDown reissues the retained packets of unfilled children that were
// placed on the dead processor — the rollback reissue of §3, one parent
// incarnation at a time. Under the "none" scheme no node is ever told of a
// death, so lost work stays lost.
func (n *Node) OnNodeDown(dead proto.ProcID) {
	n.live[dead] = false
	for _, list := range n.tasks {
		for _, t := range list {
			for _, ck := range t.children {
				if ck.filled || ck.dest != dead {
					continue
				}
				ck.dest = n.pickDest()
				n.Reissues++
				n.link.Spawn(ck.dest, ck.pkt, true)
			}
		}
	}
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
