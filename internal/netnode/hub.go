package netnode

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
)

// sendq is one child's outbox: an unbounded batch of encoded frames, in the
// order they were pushed. The router goroutines append without ever blocking:
// if writes to children were synchronous, two mutually-full socket buffers
// would deadlock the whole mesh (parent blocked writing to a child that is
// itself blocked writing to the parent). Unbounded is safe here — the batch is
// bounded in practice by the task tree in flight, and a dead child's is
// dropped wholesale.
type sendq struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newSendq() *sendq {
	s := &sendq{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push appends whole encoded frames to the batch, copying them; false means
// the queue is closed (child dead).
func (s *sendq) push(wire []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.buf = append(s.buf, wire...)
	s.cond.Signal()
	return true
}

// popAll blocks until bytes are queued and takes every one of them; nil
// means closed and drained. spare, the caller's previous batch, becomes the
// queue's backing array, so the two buffers swap and neither is reallocated
// — unless a burst grew it past maxSpare, which is not worth pinning.
func (s *sendq) popAll(spare []byte) []byte {
	if cap(spare) > maxSpare {
		spare = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.buf) == 0 {
		return nil
	}
	batch := s.buf
	s.buf = spare[:0]
	return batch
}

func (s *sendq) close() {
	s.mu.Lock()
	s.closed = true
	s.buf = nil
	s.cond.Broadcast()
	s.mu.Unlock()
}

// child is the supervisor's handle on one node process.
type child struct {
	id    int
	pid   int
	cmd   *managedProc
	conn  net.Conn
	r     *bufio.Reader // the one reader of conn, from the hello on
	alive atomic.Bool
	out   *sendq // outbound bytes, drained by a dedicated writer goroutine
}

// Cluster is a process-per-node machine: N child processes dialed into the
// parent's socket, the parent routing frames between them and hosting the
// super-root.
//
// The super-root's counters are charged by the router: messages count the
// protocol frames (spawn, result, node-down) it carried, in real frame wire
// sizes — program broadcasts and supervision traffic (hello, stats,
// shutdown) are not interconnect load, matching the resident-code
// model of the other backends — and reissues are attributed from FlagReissue
// frames, so the attribution survives a later SIGKILL of the reissuing node.
// What a node did without the hub — the task packets it placed on itself,
// the results it drained — it reports in stats frames, each ahead of the
// next frame it sends: whatever causally precedes a frame the router has
// seen is counted, and a SIGKILLed node loses only what it never flushed
// (nothing a dead processor counted can be read back). Drained adds the
// frames black-holed at dead nodes.
type Cluster struct {
	root *node.Root
	spec node.Spec
	dir  string // temp dir holding the hub's unix socket
	addr string // the socket's path
	ln   net.Listener

	children []*child

	closing atomic.Bool
	routers sync.WaitGroup // the per-child readers: each ends when its child's socket does
	writers sync.WaitGroup // the per-child writers: each ends when its outbox closes
}

// New brings up a cluster of node processes. Every child must complete the
// dial-and-hello handshake before New returns; a child that fails to appear
// within the setup timeout fails the whole Open, with the already-started
// processes reaped.
func New(spec node.Spec) (*Cluster, error) {
	// A bad evaluator name must fail here, not as N crashed children.
	if _, err := spec.Evaluator(); err != nil {
		return nil, err
	}
	c := &Cluster{spec: spec}
	var err error
	if c.root, err = node.NewRoot(spec, c); err != nil {
		return nil, err
	}
	if c.dir, err = os.MkdirTemp("", SocketPattern); err != nil {
		return nil, err
	}
	c.addr = c.dir + "/hub.sock"
	if c.ln, err = net.Listen("unix", c.addr); err != nil {
		os.RemoveAll(c.dir)
		return nil, err
	}
	if err := c.startChildren(); err != nil {
		c.teardown()
		return nil, err
	}
	for _, ch := range c.children {
		c.routers.Add(1)
		c.writers.Add(1)
		go c.route(ch)
		go c.writer(ch)
	}
	return c, nil
}

// Root implements node.Machine.
func (c *Cluster) Root() *node.Root { return c.root }

// writer drains one child's outbox onto its socket: everything queued since
// the last wake-up leaves in one Write. Write errors are the same failure
// signal as read errors: the child is gone.
func (c *Cluster) writer(ch *child) {
	defer c.writers.Done()
	var batch []byte
	for {
		if batch = ch.out.popAll(batch); batch == nil {
			return
		}
		if _, err := ch.conn.Write(batch); err != nil {
			if !c.closing.Load() {
				c.nodeDied(ch)
			}
			return
		}
	}
}

// startChildren spawns the n processes and completes the hello handshake.
func (c *Cluster) startChildren() error {
	n := c.spec.Procs
	byID := make([]*child, n)
	for i := 0; i < n; i++ {
		proc, err := startNodeProc(i, c.spec, c.addr)
		if err != nil {
			return fmt.Errorf("netnode: start node %d: %w", i, err)
		}
		byID[i] = &child{id: i, cmd: proc, out: newSendq()}
	}
	deadline := time.Now().Add(15 * time.Second)
	for connected := 0; connected < n; connected++ {
		if d, ok := c.ln.(interface{ SetDeadline(time.Time) error }); ok {
			_ = d.SetDeadline(deadline)
		}
		conn, err := c.ln.Accept()
		if err != nil {
			c.children = compactChildren(byID)
			return fmt.Errorf("netnode: waiting for node handshakes (%d/%d): %w", connected, n, err)
		}
		_ = conn.SetReadDeadline(deadline)
		r := bufio.NewReaderSize(conn, connBufSize)
		f, err := proto.ReadFrame(r)
		if err != nil || f.Type != proto.FrameHello {
			conn.Close()
			c.children = compactChildren(byID)
			return fmt.Errorf("netnode: bad handshake: %v (frame %v)", err, f)
		}
		id, pid, err := parseHello(f.Payload)
		if err != nil || id < 0 || id >= n || byID[id].conn != nil {
			conn.Close()
			c.children = compactChildren(byID)
			return fmt.Errorf("netnode: bad hello (id %d): %v", id, err)
		}
		_ = conn.SetReadDeadline(time.Time{})
		byID[id].conn, byID[id].r = conn, r
		byID[id].pid = pid
		byID[id].alive.Store(true)
	}
	c.children = byID
	return nil
}

// compactChildren keeps the partially-started set reapable on a failed New.
func compactChildren(byID []*child) []*child {
	out := byID[:0:0]
	for _, ch := range byID {
		if ch != nil {
			out = append(out, ch)
		}
	}
	return out
}

// Pids lists the node process ids, for tests asserting no orphans survive.
func (c *Cluster) Pids() []int {
	out := make([]int, len(c.children))
	for i, ch := range c.children {
		out[i] = ch.cmd.Pid()
	}
	return out
}

// LoadProgram implements node.Fabric: broadcast the program's source to
// every live node, once, under its index. Children that die later simply
// lose the code with everything else.
func (c *Cluster) LoadProgram(idx int, prog *lang.Program) error {
	if idx > 0xffff {
		return errors.New("netnode: program table full")
	}
	payload := programPayload(idx, lang.Format(prog))
	for _, ch := range c.children {
		// A closed outbox means the child died racing this broadcast; the
		// node that needed the code is gone either way.
		c.push(ch, hostFrame(proto.FrameProgram, 0, proto.ProcID(ch.id), payload))
	}
	return nil
}

// Spawn implements node.Fabric: the super-root's own spawn frames. A dead
// destination black-holes the frame (the dead processor of §3 — the parent's
// checkpoint is what recovers the work, not the interconnect).
func (c *Cluster) Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool) {
	var flags byte
	if reissue {
		flags = proto.FlagReissue
	}
	wire := hostFrame(proto.FrameSpawn, flags, to, appendSpawn(nil, pkt))
	c.root.CountSpawn(proto.HostID, len(wire), reissue)
	if !c.push(c.children[to], wire) {
		c.root.CountDrained(1)
	}
}

// NodeDown implements node.Fabric: the death announcement to one survivor.
func (c *Cluster) NodeDown(to, dead proto.ProcID) {
	wire := hostFrame(proto.FrameNodeDown, 0, to, nodeDownPayload(int(dead)))
	c.root.CountMsg(len(wire))
	c.push(c.children[to], wire)
}

// hostFrame encodes a frame the supervisor originates.
func hostFrame(t proto.FrameType, flags byte, to proto.ProcID, payload []byte) []byte {
	return proto.AppendFrame(nil, &proto.Frame{Type: t, Flags: flags, From: proto.HostID, To: to, Payload: payload})
}

// push queues encoded frames for a child; false means the child is dead.
func (c *Cluster) push(ch *child, wire []byte) bool {
	return ch.alive.Load() && ch.out.push(wire)
}

// route is the per-child reader: relay frames until the connection breaks,
// and turn that into a death. One goroutine per child, so a busy node never
// stalls another's traffic.
func (c *Cluster) route(ch *child) {
	defer c.routers.Done()
	for c.relay(ch) == nil {
	}
	// SIGKILL, crash, garbage, or shutdown: the connection is the failure
	// detector. During Close the EOF is the expected goodbye.
	if !c.closing.Load() {
		c.nodeDied(ch)
	}
}

// relay takes one frame off a child's connection. The hub relays bytes: the
// header is parsed where it lies in the reader's buffer, and a frame for
// another node is copied from there into that node's outbox, never decoded
// and never allocated. A frame too large to lie in the buffer whole is read
// into a buffer of its own. Any error — a cut inside a frame included — is
// the dead node's silence: nothing of a frame is forwarded until all of it
// has arrived.
func (c *Cluster) relay(ch *child) error {
	hdr, err := ch.r.Peek(proto.FrameHeaderSize)
	if err != nil {
		return err
	}
	f, n, err := proto.ParseFrameHeader(hdr)
	if err != nil {
		return err
	}
	size := proto.FrameHeaderSize + n
	if size > ch.r.Size() {
		wire := make([]byte, size)
		if _, err = io.ReadFull(ch.r, wire); err == nil {
			c.carry(ch, f, wire)
		}
		return err
	}
	wire, err := ch.r.Peek(size)
	if err == nil {
		c.carry(ch, f, wire)
		_, err = ch.r.Discard(size)
	}
	return err
}

// carry counts one whole frame from a child and sends it on its way:
// protocol frames are charged and forwarded (a root's result is decoded and
// delivered here), supervision frames absorbed. wire is only valid during
// the call.
func (c *Cluster) carry(ch *child, f proto.Frame, wire []byte) {
	payload := wire[proto.FrameHeaderSize:]
	switch f.Type {
	case proto.FrameStats:
		if inPlace, reissues, drained, err := parseStats(payload); err == nil {
			c.root.CountInPlace(proto.ProcID(ch.id), inPlace, reissues)
			c.root.CountDrained(drained)
		}
	case proto.FrameResult:
		c.root.CountMsg(len(wire))
		if f.To != proto.HostID {
			c.forward(f.To, wire)
		} else if res, err := proto.DecodeResult(payload); err != nil {
			c.root.CountDrained(1)
		} else if f.Flags&proto.FlagFailed == 0 {
			c.root.Deliver(res)
		} else {
			c.root.Fail(proto.ProcID(ch.id), res.Child, evalError(res.Value))
		}
	case proto.FrameSpawn:
		c.root.CountSpawn(proto.ProcID(ch.id), len(wire), f.Flags&proto.FlagReissue != 0)
		c.forward(f.To, wire)
	default:
		// A child never originates other frame types; drop quietly
		// rather than wedge the stream on a protocol slip.
	}
}

// evalError is the evaluation error a node process reported as text v, typed
// again on this side of the socket: it wraps lang.ErrEval and reads the same.
func evalError(v expr.Value) error {
	text, _ := v.(expr.VStr)
	return fmt.Errorf("%w: %s", lang.ErrEval, strings.TrimPrefix(string(text), lang.ErrEval.Error()+": "))
}

// forward relays a child-to-child frame; dead destinations black-hole it.
func (c *Cluster) forward(to proto.ProcID, wire []byte) {
	if to < 0 || int(to) >= len(c.children) || !c.push(c.children[to], wire) {
		c.root.CountDrained(1)
	}
}

// nodeDied is the supervisor's failure handler — idempotent via the alive
// CAS. It closes the conn and reports the death to the super-root, which
// tells the survivors and reissues the roots that were resident on the dead
// node. Kill SIGKILLs and lets the broken connection land here, so injected
// faults and spontaneous crashes take the identical path.
func (c *Cluster) nodeDied(ch *child) {
	if !ch.alive.CompareAndSwap(true, false) {
		return
	}
	ch.conn.Close()
	ch.out.close()
	c.root.NodeDown(proto.ProcID(ch.id))
}

// Kill crashes node id with SIGKILL — no cooperative path. Death detection
// and recovery ride on the broken connection, like any real crash.
func (c *Cluster) Kill(id int) error {
	if id < 0 || id >= len(c.children) {
		return fmt.Errorf("netnode: no node %d", id)
	}
	ch := c.children[id]
	if !ch.alive.Load() {
		return fmt.Errorf("netnode: node %d already dead", id)
	}
	return ch.cmd.Kill()
}

// Shutdown tears the cluster down: graceful stats+exit for live children,
// SIGKILL for stragglers, and a reap of every process — after Shutdown no
// node process exists, whatever state the stream was in. Call exactly once.
func (c *Cluster) Shutdown() {
	c.closing.Store(true)
	for _, ch := range c.children {
		if ch.conn == nil || !ch.alive.Load() {
			continue
		}
		// FIFO behind any pending protocol frames, so the goodbye arrives
		// after the work already queued for this child.
		ch.out.push(hostFrame(proto.FrameShutdown, 0, proto.ProcID(ch.id), nil))
	}
	// Graceful children send their last stats and exit on their own.
	// Stragglers (wedged or never-connected) are killed after a short grace.
	for _, ch := range c.children {
		if !ch.cmd.WaitTimeout(2 * time.Second) {
			_ = ch.cmd.Kill()
			ch.cmd.WaitTimeout(2 * time.Second)
		}
	}
	// A dead process's socket ends: every router reads what its child wrote
	// to the last byte — the goodbye's counts are part of the totals — and
	// returns on EOF. Only then are the hub's ends closed.
	c.routers.Wait()
	c.teardown()
	c.writers.Wait()
}

// teardown closes the listener and sockets and reaps every child process
// unconditionally — also the failure path of a half-built New.
func (c *Cluster) teardown() {
	if c.ln != nil {
		c.ln.Close()
	}
	for _, ch := range c.children {
		if ch.conn != nil {
			ch.conn.Close()
		}
		ch.out.close()
		_ = ch.cmd.Kill()
		ch.cmd.WaitTimeout(2 * time.Second)
	}
	os.RemoveAll(c.dir)
}
