// Package livenet runs the applicative machine on real concurrency: one
// goroutine per node, per-node mailboxes as the interconnect, actual
// asynchrony instead of the discrete-event kernel's virtual time. It is a
// transport and nothing else — the rollback node, the super-root and the
// service session are internal/node's, shared with the process-per-node
// backend — so what it demonstrates is the paper's point: functional
// checkpointing (§2) needs nothing from the substrate, and determinacy (§2.1)
// makes the regenerated run converge to the same answer despite wildly
// nondeterministic interleavings.
package livenet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/trace"
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

// proc is one goroutine-backed processor: a protocol node; its mailbox, an
// unbounded queue, FIFO per sender, that the node's goroutine takes whole;
// the flag a cooperative kill clears, read under the mailbox's lock; and what
// the node's own sends charged, folded into the stream totals at Shutdown.
type proc struct {
	id    proto.ProcID
	c     *Cluster
	n     *node.Node
	mu    sync.Mutex
	queue []msg
	wake  sync.Cond // on mu: the queue became non-empty, or the machine stops
	alive atomic.Bool
	sent  trace.Metrics
}

// push queues m; false means the node is dead and m is swallowed. It never
// blocks beyond the lock: a node that blocked on a busy peer could deadlock
// the cluster.
func (p *proc) push(m msg) bool {
	p.mu.Lock()
	ok := p.alive.Load()
	if ok {
		if p.queue = append(p.queue, m); len(p.queue) == 1 {
			p.wake.Signal()
		}
	}
	p.mu.Unlock()
	return ok
}

// take waits for the queue to be non-empty and returns everything in it, in
// order; empty means the machine is stopping. spare — the caller's handled
// batch, cleared — becomes the queue's backing array, so the two swap and
// neither is reallocated.
func (p *proc) take(spare []msg) []msg {
	clear(spare)
	p.mu.Lock()
	for len(p.queue) == 0 && !p.c.stopping.Load() {
		p.wake.Wait()
	}
	batch := p.queue
	p.queue = spare[:0]
	p.mu.Unlock()
	return batch
}

// kill marks the node dead — false if it was already — and returns how many
// queued messages its mailbox swallowed.
func (p *proc) kill() (swallowed int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	swallowed, p.queue = len(p.queue), nil
	return swallowed, p.alive.CompareAndSwap(true, false)
}

// Spawn implements node.Link.
func (p *proc) Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool) {
	p.send(to, msg{spawn: pkt}, reissue)
}

// Result implements node.Link. A root's result is handed to the super-root
// in-process, not through the interconnect, so it is not a message.
func (p *proc) Result(to proto.ProcID, res *proto.Result) {
	if to == proto.HostID {
		p.c.root.Deliver(res)
		return
	}
	p.send(to, msg{result: res}, false)
}

// send charges a node's message to its own tally and pushes it; a dead
// addressee swallows it. Sizing before the push seals a packet's memoized
// wire size before it is shared: reissues resend the retained pointer while
// receivers still hold it.
func (p *proc) send(to proto.ProcID, m msg, reissue bool) {
	node.CountSent(&p.sent, m.spawn != nil, reissue, m.wireSize())
	if !p.c.procs[to].push(m) {
		p.sent.Blackholed++
	}
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

	// stopping, once set, stops every node goroutine.
	stopping atomic.Bool
	wg       sync.WaitGroup
}

// New starts a cluster of goroutine nodes.
func New(spec node.Spec) (*Cluster, error) {
	ev, err := spec.Evaluator()
	if err != nil {
		return nil, err
	}
	c := &Cluster{eval: ev}
	if c.root, err = node.NewRoot(spec, c); err != nil {
		return nil, err
	}
	c.progs.Store(new([]lang.EvalProgram))
	for i := 0; i < spec.Procs; i++ {
		p := &proc{id: proto.ProcID(i), c: c}
		p.wake.L = &p.mu
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
	c.send(to, msg{spawn: pkt}, reissue)
}

// NodeDown implements node.Fabric.
func (c *Cluster) NodeDown(to, dead proto.ProcID) {
	c.send(to, msg{down: dead + 1}, false)
}

// send is proc.send for the super-root's messages, charged to the stream
// totals.
func (c *Cluster) send(to proto.ProcID, m msg, reissue bool) {
	if m.spawn != nil {
		c.root.CountSpawn(m.wireSize(), reissue)
	} else {
		c.root.CountNodeDown(m.wireSize())
	}
	if !c.procs[to].push(m) {
		c.root.CountBlackholed()
	}
}

// Kill crashes a node cooperatively: its goroutine stops processing,
// resident tasks are lost, and its mailbox swallows what was queued and what
// is sent to it later — the paper's fail-silent processor. The death is then
// reported to the super-root.
func (c *Cluster) Kill(id int) error {
	if id < 0 || id >= len(c.procs) {
		return fmt.Errorf("livenet: no node %d", id)
	}
	swallowed, ok := c.procs[id].kill()
	if !ok {
		return fmt.Errorf("livenet: node %d already dead", id)
	}
	for range swallowed {
		c.root.CountBlackholed()
	}
	c.root.NodeDown(proto.ProcID(id))
	return nil
}

// Shutdown implements node.Machine: stop every node goroutine, then fold
// what the nodes counted — what they sent, results drained, and the packets
// they placed on themselves, which no send carried — into the stream totals.
func (c *Cluster) Shutdown() {
	c.stopping.Store(true)
	for _, p := range c.procs {
		p.mu.Lock()
		p.wake.Signal()
		p.mu.Unlock()
	}
	c.wg.Wait()
	for _, p := range c.procs {
		p.sent.Add(&p.n.Metrics)
		c.root.Fold(p.id, &p.sent)
	}
}

// run is the node's goroutine loop: the live analogue of §4.2's protocol
// loop ("LOOP CASE received packet OF ..."). It takes the whole mailbox at
// once and waits only when it finds it empty.
func (p *proc) run() {
	defer p.c.wg.Done()
	for batch := p.take(nil); len(batch) > 0; batch = p.take(batch) {
		for i, m := range batch {
			if !p.alive.Load() {
				// Crashed mid-batch: what it took and never handled is
				// swallowed like the queue Kill emptied.
				p.sent.Blackholed += int64(len(batch) - i)
				return
			}
			if p.c.stopping.Load() {
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
		}
	}
}
