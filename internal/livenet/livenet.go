// Package livenet runs the applicative machine on real concurrency: one
// goroutine per node, per-node mailboxes as the interconnect, actual
// asynchrony instead of the discrete-event kernel's virtual time. It is a
// transport and nothing else — each node, and the super-root's processor,
// is internal/machine's WallProc, the simulator's protocol, and the
// super-root and the service session are internal/node's, shared with the
// process-per-node backend — so what it
// demonstrates is the paper's point: functional checkpointing (§2) needs
// nothing from the substrate, and determinacy (§2.1) makes the regenerated
// run converge to the same answer despite wildly nondeterministic
// interleavings.
package livenet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/trace"
)

// mail is a message in a mailbox: a task packet, or a result with the
// generation of the packet its sender handed back, by pointer; or — rarely —
// any other message whole. Nearly every message is one of the first two, and
// a whole proto.Msg is five times the size to copy into the queue and out.
type mail struct {
	typ    proto.MsgType
	from   proto.ProcID
	task   *proto.TaskPacket
	result *proto.Result
	gen    uint64
	other  *proto.Msg
}

// proc is one goroutine-backed processor: a wall processor; its mailbox, an
// unbounded queue, FIFO per sender, that the node's goroutine takes whole;
// the flag a cooperative kill clears, read under the mailbox's lock; and what
// the node's own sends charged, folded into the stream totals at Shutdown.
type proc struct {
	id    proto.ProcID
	c     *Cluster
	w     *machine.WallProc
	mu    sync.Mutex
	queue []mail
	wake  sync.Cond // on mu: the queue became non-empty, or the machine stops
	alive atomic.Bool
	sent  trace.Metrics
}

// post queues m for its addressee: false means it is dead and m is
// swallowed.
func (c *Cluster) post(m *proto.Msg) bool {
	ml := mail{typ: m.Type, from: m.From, task: m.Task, result: m.Result, gen: m.AckGen}
	if m.Type != proto.MsgTask && m.Type != proto.MsgResult {
		whole := *m
		ml = mail{other: &whole}
	}
	return c.procs[m.To].push(ml)
}

// open returns the message ml carries: in, filled from ml, unless the
// message rode whole. A handler keeps a message's payload, never the
// message, so one in serves every delivery.
func (p *proc) open(ml *mail, in *proto.Msg) *proto.Msg {
	if ml.other != nil {
		return ml.other
	}
	in.Type, in.From, in.To, in.Task, in.Result, in.AckGen = ml.typ, ml.from, p.id, ml.task, ml.result, ml.gen
	return in
}

// push queues m; false means the node is dead and m is swallowed. It never
// blocks beyond the lock: a node that blocked on a busy peer could deadlock
// the cluster.
func (p *proc) push(m mail) bool {
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

// take returns everything in the queue, in order, waiting for it to be
// non-empty if wait; false means the machine is stopping. spare — the
// caller's handled batch, cleared — becomes the queue's backing array, so the
// two swap and neither is reallocated. A node that finds its mailbox empty
// yields its processor once before it waits: the peer it just woke often
// answers within that turn, and a wait costs a wake-up on the request's
// critical path.
func (p *proc) take(spare []mail, wait bool) ([]mail, bool) {
	clear(spare)
	p.mu.Lock()
	if wait && len(p.queue) == 0 {
		p.mu.Unlock()
		runtime.Gosched()
		p.mu.Lock()
	}
	for wait && len(p.queue) == 0 && !p.c.stopping.Load() {
		p.wake.Wait()
	}
	batch := p.queue
	p.queue = spare[:0]
	p.mu.Unlock()
	return batch, !p.c.stopping.Load()
}

// kill marks the node dead — false if it was already — and returns how many
// queued messages its mailbox swallowed.
func (p *proc) kill() (swallowed int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	swallowed, p.queue = len(p.queue), nil
	return swallowed, p.alive.CompareAndSwap(true, false)
}

// Send implements machine.Transport: it charges the message to the node's
// own tally and pushes it; a dead addressee swallows it. A message for the
// super-root is handed to its processor in-process. A packet's wire size was
// sealed by its sender's checkpoint store before it was shared.
func (p *proc) Send(m proto.Msg) {
	node.CountSent(&p.sent, m.Type, m.Type == proto.MsgTask && m.Task.Reissue, m.EncodedSize())
	if m.To == proto.HostID {
		p.c.root.Deliver(&m)
	} else if !p.c.post(&m) {
		p.sent.Blackholed++
	}
}

// Program implements machine.Transport.
func (p *proc) Program(i int) lang.EvalProgram { return p.c.Program(i) }

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
	c.progs.Store(new([]lang.EvalProgram))
	if c.root, err = node.NewRoot(spec, c); err != nil {
		return nil, err
	}
	for i := 0; i < spec.Procs; i++ {
		p := &proc{id: proto.ProcID(i), c: c}
		p.wake.L = &p.mu
		if p.w, err = machine.NewWallProc(p.id, spec.Procs, spec.Seed, spec.Scheme, p); err != nil {
			return nil, err
		}
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
// loading is compiling and publishing, for the nodes and the super-root
// alike. The root serializes calls.
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

// Program implements machine.Transport, for every processor.
func (c *Cluster) Program(idx int) lang.EvalProgram { return (*c.progs.Load())[idx] }

// Send implements machine.Transport for the super-root's processor: what it
// sends is charged to the stream totals.
func (c *Cluster) Send(m proto.Msg) {
	c.root.Charge(m.Type, m.Type == proto.MsgTask && m.Task.Reissue, m.EncodedSize())
	if !c.post(&m) {
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
// what the nodes counted — what they sent, and what their processors counted
// that no send carried — into the stream totals.
func (c *Cluster) Shutdown() {
	c.stopping.Store(true)
	for _, p := range c.procs {
		p.mu.Lock()
		p.wake.Signal()
		p.mu.Unlock()
	}
	c.wg.Wait()
	for _, p := range c.procs {
		local := p.w.Local()
		p.sent.Add(&local)
		c.root.Fold(p.id, &p.sent)
	}
}

// run is the node's goroutine loop: the live analogue of §4.2's protocol
// loop ("LOOP CASE received packet OF ..."). It takes the whole mailbox at
// once, hands the processor one message at a time and runs what each one
// set going, a budget of events at a time. It waits only when the mailbox is
// empty and nothing is pending; otherwise it looks at the mailbox between
// budgets, which is where a long in-place run sees a kill or a shutdown.
func (p *proc) run() {
	defer p.c.wg.Done()
	var batch []mail
	var in proto.Msg
	for pending, ok := false, true; ; {
		if batch, ok = p.take(batch, !pending); !ok {
			return
		}
		for i := range batch {
			if !p.alive.Load() {
				// Crashed mid-batch: what it took and never handled is
				// swallowed like the queue Kill emptied.
				p.sent.Blackholed += int64(len(batch) - i)
				return
			}
			p.w.Deliver(p.open(&batch[i], &in))
			pending = p.w.Run()
		}
		if len(batch) == 0 {
			if !p.alive.Load() {
				return
			}
			pending = p.w.Run()
		}
	}
}
