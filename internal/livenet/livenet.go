// Package livenet runs the applicative machine on real concurrency: one
// goroutine per node, channels as the interconnect, actual asynchrony
// instead of the discrete-event kernel's virtual time. It is a transport and
// nothing else — the rollback node, the super-root and the service session
// are internal/node's, shared with the process-per-node backend — so what it
// demonstrates is the paper's point: functional checkpointing (§2) needs
// nothing from the substrate, and determinacy (§2.1) makes the regenerated
// run converge to the same answer despite wildly nondeterministic
// interleavings.
package livenet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
)

// msg is anything a node can receive; exactly one field is set.
type msg struct {
	spawn  *proto.TaskPacket
	result *proto.Result
	down   proto.ProcID // the dead processor's id + 1
}

// wireSize is what the simulator charges per hop — the exact payload netnode
// writes, under a modelled header — so byte totals compare across backends.
// Frames are sized, never encoded: a packet travels as a pointer.
func (m msg) wireSize() int {
	return (&proto.Msg{Task: m.spawn, Result: m.result}).EncodedSize()
}

// proc is one goroutine-backed processor: a protocol node, its inbox, and
// the flag a cooperative kill clears.
type proc struct {
	id    proto.ProcID
	c     *Cluster
	n     *node.Node
	inbox chan msg
	alive atomic.Bool
}

// Spawn implements node.Link.
func (p *proc) Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool) {
	p.c.send(p.id, to, msg{spawn: pkt}, reissue)
}

// Result implements node.Link. A root's result is handed to the super-root
// in-process, not through the interconnect, so it is not a message.
func (p *proc) Result(to proto.ProcID, res *proto.Result) {
	if to == proto.HostID {
		p.c.root.Deliver(res)
		return
	}
	p.c.send(p.id, to, msg{result: res}, false)
}

// Fail implements node.Link: like a root's result, in-process and no message.
func (p *proc) Fail(task proto.TaskKey, err error) { p.c.root.Fail(p.id, task, err) }

// Cluster is a live machine.
type Cluster struct {
	root  *node.Root
	procs []*proc

	// eval compiles each program once, at its first Submit; progs publishes
	// the compiled forms by packet tag, copy-on-write, so the per-task
	// lookup on every node goroutine is one atomic load.
	eval  lang.Evaluator
	progs atomic.Pointer[[]lang.EvalProgram]

	// quit, when closed, stops every node goroutine, drainer, and pending
	// overflow send. Inbox channels are never closed (closing a channel
	// with concurrent senders is a race).
	quit chan struct{}
	wg   sync.WaitGroup
}

// New starts a cluster of goroutine nodes.
func New(spec node.Spec) (*Cluster, error) {
	ev, err := spec.Evaluator()
	if err != nil {
		return nil, err
	}
	c := &Cluster{eval: ev, quit: make(chan struct{})}
	if c.root, err = node.NewRoot(spec, c); err != nil {
		return nil, err
	}
	c.progs.Store(new([]lang.EvalProgram))
	for i := 0; i < spec.Procs; i++ {
		// The inbox is deep enough that the bundled workloads' fan-out rarely
		// takes send's overflow path, which costs a goroutine per message.
		p := &proc{id: proto.ProcID(i), c: c, inbox: make(chan msg, 4096)}
		p.n = node.New(p.id, spec.Procs, spec.Seed, p, c.program)
		p.alive.Store(true)
		c.procs = append(c.procs, p)
	}
	for _, p := range c.procs {
		c.wg.Add(1)
		go p.run()
	}
	return c, nil
}

// Root implements node.Machine.
func (c *Cluster) Root() *node.Root { return c.root }

// LoadProgram implements node.Fabric: code is resident in-process, so
// loading is compiling and publishing. The root serializes calls.
func (c *Cluster) LoadProgram(idx int, prog *lang.Program) error {
	ep, err := c.eval.Compile(prog)
	if err != nil {
		return fmt.Errorf("livenet: compile: %w", err)
	}
	old := *c.progs.Load()
	next := append(old[:idx:idx], ep)
	c.progs.Store(&next)
	return nil
}

func (c *Cluster) program(idx int) lang.EvalProgram { return (*c.progs.Load())[idx] }

// Spawn implements node.Fabric.
func (c *Cluster) Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool) {
	c.send(proto.HostID, to, msg{spawn: pkt}, reissue)
}

// NodeDown implements node.Fabric.
func (c *Cluster) NodeDown(to, dead proto.ProcID) {
	c.send(proto.HostID, to, msg{down: dead + 1}, false)
}

// send charges the message and delivers it to a node's inbox (dead nodes
// drain theirs). It never blocks the caller: a node that blocked on a full
// peer inbox could deadlock the cluster, so overflow is handed to a
// goroutine that gives up at shutdown. Causal order is preserved
// (a result can only be produced after its spawn was processed); order
// between independent messages is already arbitrary on a real interconnect.
func (c *Cluster) send(from, to proto.ProcID, m msg, reissue bool) {
	switch {
	case m.spawn != nil:
		c.root.CountSpawn(from, m.wireSize(), reissue)
	case m.result != nil:
		c.root.CountResult(m.wireSize())
	default:
		c.root.CountNodeDown(m.wireSize())
	}
	inbox := c.procs[to].inbox
	select {
	case inbox <- m:
	default:
		go func() {
			select {
			case inbox <- m:
			case <-c.quit:
			}
		}()
	}
}

// Kill crashes a node cooperatively: its goroutine stops processing,
// resident tasks are lost, and messages into the void model the paper's
// fail-silent processor. The death is then reported to the super-root.
func (c *Cluster) Kill(id int) error {
	if id < 0 || id >= len(c.procs) {
		return fmt.Errorf("livenet: no node %d", id)
	}
	p := c.procs[id]
	if !p.alive.CompareAndSwap(true, false) {
		return fmt.Errorf("livenet: node %d already dead", id)
	}
	// Drain the dead inbox so senders never block.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-p.inbox:
				c.root.CountBlackholed()
			case <-c.quit:
				return
			}
		}
	}()
	c.root.NodeDown(p.id)
	return nil
}

// Shutdown implements node.Machine: stop every node goroutine and drainer,
// then fold what only the nodes counted — results drained, and the packets
// they placed on themselves, which no send carried — into the stream totals.
func (c *Cluster) Shutdown() {
	close(c.quit)
	c.wg.Wait()
	for _, p := range c.procs {
		c.root.Fold(p.id, &p.n.Metrics)
	}
}

// run is the node's goroutine loop: the live analogue of §4.2's protocol
// loop ("LOOP CASE received packet OF ...").
func (p *proc) run() {
	defer p.c.wg.Done()
	for {
		select {
		case m := <-p.inbox:
			if !p.alive.Load() {
				// Crashed mid-queue: stop processing; the drainer takes
				// over this inbox.
				return
			}
			switch {
			case m.spawn != nil:
				p.n.OnSpawn(m.spawn)
			case m.result != nil:
				p.n.OnResult(m.result)
			default:
				p.n.OnNodeDown(m.down - 1)
			}
		case <-p.c.quit:
			return
		}
	}
}
