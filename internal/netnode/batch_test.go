package netnode

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/stamp"
	"repro/internal/trace"
)

// The interconnect pays per wake-up, not per frame. These tests count the
// Read and Write calls a connection sees — counts, so they repeat exactly —
// and check what a batch means when its writer dies in the middle of it.

// scriptConn is an in-memory connection end: Read serves a prepared byte
// stream (then io.EOF, the peer hanging up), Write records each call.
type scriptConn struct {
	net.Conn // nil: only the methods below are called
	in       *bytes.Reader
	chunk    int // the most one Read returns, when set
	reads    int // Read calls that returned data
	writes   [][]byte
	fail     error         // what Write returns, when set
	wrote    chan struct{} // signalled per Write, when set
}

func script(in []byte) *scriptConn { return &scriptConn{in: bytes.NewReader(in)} }

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.chunk > 0 && len(p) > c.chunk {
		p = p[:c.chunk]
	}
	n, err := c.in.Read(p)
	if n > 0 {
		c.reads++
	}
	return n, err
}

func (c *scriptConn) Write(p []byte) (int, error) {
	if c.fail != nil {
		return 0, c.fail
	}
	c.writes = append(c.writes, append([]byte(nil), p...))
	if c.wrote != nil {
		c.wrote <- struct{}{}
	}
	return len(p), nil
}

func (c *scriptConn) Close() error { return nil }

// fakeCluster is a hub over scripted connections: no node process, so a test
// decides exactly what each "child" sends and sees exactly what it is sent.
func fakeCluster(t *testing.T, conns ...*scriptConn) *Cluster {
	t.Helper()
	spec := node.Spec{Procs: len(conns), Seed: 1}
	ev, err := spec.Evaluator()
	if err != nil {
		t.Fatal(err)
	}
	c := &Cluster{spec: spec, eval: ev}
	if c.root, err = node.NewRoot(spec, c); err != nil {
		t.Fatal(err)
	}
	for i, conn := range conns {
		ch := &child{id: i, conn: conn, r: bufio.NewReaderSize(conn, connBufSize), out: newSendq()}
		ch.alive.Store(true)
		c.children = append(c.children, ch)
	}
	return c
}

// totals is what a report derives from the super-root's metrics.
func totals(c *Cluster) core.Counters {
	m, _ := c.Root().Metrics()
	return core.CountersOf(&m)
}

// frames decodes a byte stream that must hold whole frames only.
func frames(t *testing.T, stream []byte) []*proto.Frame {
	t.Helper()
	r := bytes.NewReader(stream)
	var out []*proto.Frame
	for {
		f, err := proto.ReadFrame(r)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("stream is not whole frames: %v after %d", err, len(out))
		}
		out = append(out, f)
	}
}

func orphanResult(i int) *proto.Frame {
	return &proto.Frame{Type: proto.FrameResult, From: 1, To: 0, Payload: proto.EncodeResult(&proto.Result{
		Child:      proto.TaskKey{Stamp: stamp.FromPath(9, uint32(i))},
		ParentTask: proto.TaskKey{Stamp: stamp.FromPath(9)},
		HoleID:     i,
		Value:      expr.VInt(int64(i)),
	})}
}

func TestSendqPopAllSwapsSlices(t *testing.T) {
	q := newSendq()
	a, b, c := proto.AppendFrame(nil, orphanResult(0)), proto.AppendFrame(nil, orphanResult(1)), proto.AppendFrame(nil, orphanResult(2))
	q.push(a)
	q.push(b)
	first := q.popAll(nil)
	if !bytes.Equal(first, append(append([]byte(nil), a...), b...)) {
		t.Fatalf("popAll = %x, want both queued frames in order", first)
	}
	q.push(c)
	second := q.popAll(first)
	if !bytes.Equal(second, c) {
		t.Fatalf("second popAll = %x", second)
	}
	q.push(a)
	if third := q.popAll(second); &third[0] != &first[0] {
		t.Error("the queue did not reuse the spare batch's backing array")
	}
	// A batch a burst grew is handed back to the collector, not pinned.
	q.push(make([]byte, maxSpare+1))
	huge := q.popAll(nil)
	q.push(a)
	q.popAll(huge)
	q.push(a)
	if after := q.popAll(nil); cap(after) > maxSpare {
		t.Errorf("the queue kept a %d-byte spare", cap(after))
	}
	q.close()
	if got := q.popAll(nil); got != nil {
		t.Error("popAll on a closed queue reported frames")
	}
}

// TestHubWriterOneWritePerWakeup: N frames queued before the writer runs
// leave in exactly one Write, whose bytes are AppendFrame of each in order.
func TestHubWriterOneWritePerWakeup(t *testing.T) {
	conn := script(nil)
	conn.wrote = make(chan struct{}, 1)
	c := fakeCluster(t, conn, script(nil))
	ch := c.children[0]
	var want []byte
	const n = 100
	for i := 0; i < n; i++ {
		f := proto.AppendFrame(nil, orphanResult(i))
		want = append(want, f...)
		if !c.push(ch, f) {
			t.Fatal("push refused")
		}
	}
	c.writers.Add(1)
	go c.writer(ch)
	<-conn.wrote
	ch.out.close()
	c.writers.Wait()
	if len(conn.writes) != 1 || !bytes.Equal(conn.writes[0], want) {
		t.Fatalf("%d frames left in %d writes (first %d bytes), want 1 write of %d bytes equal to AppendFrame of each",
			n, len(conn.writes), len(conn.writes[0]), len(want))
	}
}

// hubInput is what a hub would send a fresh node: the program, then frames.
func hubInput(prog *lang.Program, fs ...*proto.Frame) []byte {
	in := proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameProgram, From: proto.HostID, Payload: programPayload(0, lang.Format(prog))})
	for _, f := range fs {
		in = proto.AppendFrame(in, f)
	}
	return in
}

// resident is a node's program table holding prog alone, under index 0.
func resident(t testing.TB, prog *lang.Program) func(int) lang.EvalProgram {
	t.Helper()
	ep, err := lang.EvaluatorByName(lang.DefaultEvaluator)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ep.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	return func(i int) lang.EvalProgram {
		if i != 0 {
			return nil
		}
		return cp
	}
}

// TestChildOneWritePerHandlerBurst: a handler that emits k spawns produces
// one write, not k — and the input that caused it arrived in one Read. The
// burst holds the spawns placement did not draw for the node itself: those
// run in place and cross as nothing but a count, here in the goodbye.
func TestChildOneWritePerHandlerBurst(t *testing.T) {
	const k, seed = 8, 1
	root := &proto.TaskPacket{
		Key: proto.TaskKey{Stamp: stamp.FromPath(0)}, Fn: "tree", Args: []expr.Value{expr.VInt(1)},
		Parent: proto.Addr{Proc: proto.HostID},
	}
	conn := script(hubInput(lang.TreeSum(k),
		&proto.Frame{Type: proto.FrameSpawn, From: proto.HostID, Payload: appendSpawn(nil, root)},
		&proto.Frame{Type: proto.FrameShutdown, From: proto.HostID}))
	if err := runChild(0, node.Spec{Procs: 2, Seed: seed}, conn); err != nil {
		t.Fatalf("runChild = %v, want a quiet exit at the hub's goodbye", err)
	}
	if conn.reads != 1 {
		t.Errorf("%d Read calls for one small input, want 1", conn.reads)
	}
	if len(conn.writes) != 2 {
		t.Fatalf("%d writes, want 2 (the hello, then the burst)", len(conn.writes))
	}
	if hello := frames(t, conn.writes[0]); len(hello) != 1 || hello[0].Type != proto.FrameHello {
		t.Fatalf("first write = %v, want the hello alone", hello)
	}
	// The burst is one spawn frame per hole placement sent to node 1, in
	// hole order; the holes missing from it were placed on node 0.
	burst, home := frames(t, conn.writes[1]), int64(k)
	for i := 0; len(burst) > 0 && burst[0].Type == proto.FrameSpawn; i++ {
		f := burst[0]
		burst = burst[1:]
		pkt, err := parseSpawn(f.Payload, resident(t, lang.TreeSum(k)))
		if f.To != 1 || err != nil || pkt.Fn != "tree" || pkt.HoleID < i || pkt.HoleID >= k {
			t.Fatalf("spawn frame %d = %+v (%v, %v)", i, f, pkt, err)
		}
		i = pkt.HoleID
		home--
		// Byte-identical to the unbatched encoding: header, program tag, packet.
		// The header is four bytes: the length, spawn (3), from 0 and to 1
		// (zigzag 0 and 2); the tag is one.
		enc := proto.EncodePacket(pkt)
		want := append([]byte{byte(1 + len(enc)), 0x03, 0x00, 0x02, 0x00}, enc...)
		if got := proto.AppendFrame(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("frame for hole %d bytes\n  %x\nwant\n  %x", i, got, want)
		}
	}
	if home == 0 || home == k {
		t.Fatalf("seed %d placed %d of %d holes at home: the test needs both kinds", seed, home, k)
	}
	if len(burst) != 1 || burst[0].Type != proto.FrameStats {
		t.Fatalf("after the last hole: %+v, want the goodbye's stats frame", burst)
	}
	// The goodbye carries every count the node keeps: the packets it placed
	// at home, each of which completed there, and the steps they took.
	m, err := parseStats(burst[0].Payload)
	steps := m.StepsExecuted
	m.StepsExecuted = 0
	if err != nil || steps == 0 || m != (trace.Metrics{TasksSpawned: home, TasksInPlace: home, TasksCompleted: home}) {
		t.Fatalf("the goodbye counts %q and %d steps (%v), want %d in place and completed", m.Rows(), steps, err, home)
	}
}

// TestChildCountsGoAheadOfWhatFollows: what a node counted on its own leaves
// ahead of the next frame that crosses, in the same write. Here the node has
// been told its only peer is dead, so fib(5)'s fourteen child packets all run
// in place; the hub must learn of them before — not after, and not only at
// shutdown — it sees the answer they produced.
func TestChildCountsGoAheadOfWhatFollows(t *testing.T) {
	root := &proto.TaskPacket{
		Key: proto.TaskKey{Stamp: stamp.FromPath(0)}, Fn: "fib", Args: []expr.Value{expr.VInt(5)},
		Parent: proto.Addr{Proc: proto.HostID},
	}
	conn := script(hubInput(lang.Fib(),
		&proto.Frame{Type: proto.FrameControl, From: proto.HostID, Payload: proto.AppendControl(nil, &proto.Msg{Type: proto.MsgFaultAnnounce, Failed: 1})},
		&proto.Frame{Type: proto.FrameSpawn, From: proto.HostID, Payload: appendSpawn(nil, root)}))
	if err := runChild(0, node.Spec{Procs: 2, Seed: 1}, conn); err != nil {
		t.Fatal(err)
	}
	if len(conn.writes) != 2 {
		t.Fatalf("%d writes, want 2 (the hello, then the answer)", len(conn.writes))
	}
	out := frames(t, conn.writes[1])
	if len(out) != 2 || out[0].Type != proto.FrameStats || out[1].Type != proto.FrameResult || out[1].To != proto.HostID {
		t.Fatalf("second write = %+v, want a stats frame and then the root's result", out)
	}
	// Completions and steps ride along: the root and its 14 children.
	m, err := parseStats(out[0].Payload)
	steps := m.StepsExecuted
	m.StepsExecuted = 0
	if err != nil || steps == 0 || m != (trace.Metrics{TasksSpawned: 14, TasksInPlace: 14, TasksCompleted: 15}) {
		t.Fatalf("stats count %q and %d steps (%v), want fib(5)'s 14 child packets in place and 15 tasks completed", m.Rows(), steps, err)
	}
	if res, err := proto.DecodeResult(out[1].Payload); err != nil || !res.Value.Equal(expr.VInt(5)) {
		t.Fatalf("the root answered %+v (%v), want 5", res, err)
	}
}

// TestChildOneReadPerBufferful: a buffer's worth of small frames costs one
// Read; nothing is written while input is still buffered, and the goodbye —
// stats with the node's drain count — is flushed before runChild returns.
func TestChildOneReadPerBufferful(t *testing.T) {
	shutdown := proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameShutdown, From: proto.HostID})
	in := hubInput(lang.Fib())
	results := 0
	for {
		f := proto.AppendFrame(nil, orphanResult(results))
		if len(in)+len(f)+len(shutdown) > connBufSize {
			break
		}
		in = append(in, f...)
		results++
	}
	conn := script(append(in, shutdown...))
	if err := runChild(0, node.Spec{Procs: 2, Seed: 1}, conn); err != nil {
		t.Fatal(err)
	}
	if results < 500 || conn.reads != 1 {
		t.Errorf("%d frames (%d bytes) took %d Read calls, want 1", results+2, len(in)+len(shutdown), conn.reads)
	}
	if len(conn.writes) != 2 {
		t.Fatalf("%d writes, want 2 (hello, stats)", len(conn.writes))
	}
	bye := frames(t, conn.writes[1])
	if len(bye) != 1 || bye[0].Type != proto.FrameStats {
		t.Fatalf("last write = %v, want the stats frame", bye)
	}
	if m, err := parseStats(bye[0].Payload); err != nil || m != (trace.Metrics{LateResults: int64(results)}) {
		t.Fatalf("stats report %q (%v), want %d late results and nothing else", m.Rows(), err, results)
	}
}

// TestChildFlushFailure: Flush is the one place a broken socket surfaces on
// the write side. A failed write ends the node as quietly as a read EOF; a
// frame the wire cannot carry ends it loudly, and is never half-sent.
func TestChildFlushFailure(t *testing.T) {
	conn := script(hubInput(lang.Fib()))
	conn.fail = syscall.EPIPE
	if err := runChild(0, node.Spec{Procs: 2, Seed: 1}, conn); err != nil {
		t.Fatalf("runChild with the hub gone = %v, want a quiet exit", err)
	}

	dbl, err := lang.Parse("fn dbl(xs) = append(xs, xs)")
	if err != nil {
		t.Fatal(err)
	}
	half := make([]int64, proto.MaxFramePayload/11/2+1000) // 11 bytes an element: a tag and a 10-byte varint
	for i := range half {
		half[i] = 1 << 62
	}
	pkt := &proto.TaskPacket{
		Key: proto.TaskKey{Stamp: stamp.FromPath(0)}, Fn: "dbl", Args: []expr.Value{expr.IntList(half...)},
		Parent: proto.Addr{Proc: proto.HostID},
	}
	conn = script(hubInput(dbl, &proto.Frame{Type: proto.FrameSpawn, From: proto.HostID, Payload: appendSpawn(nil, pkt)}))
	if err := runChild(0, node.Spec{Procs: 2, Seed: 1}, conn); !errors.Is(err, proto.ErrFrame) {
		t.Fatalf("runChild with an oversized result = %v, want ErrFrame", err)
	}
	if len(conn.writes) != 1 {
		t.Fatalf("%d writes, want the hello only: no byte of a refused frame may leave", len(conn.writes))
	}
}

// TestHubTornBatch is the fail-silent property at the hub: a node killed
// mid-write leaves whole frames and a torn one. The whole ones are counted
// and forwarded, the torn one is the dead node's silence, and the death is
// handled once — survivors told, and every root the super-root had placed on
// the dead node reissued from its retained packet, as the super-root's own.
func TestHubTornBatch(t *testing.T) {
	spawn := func(i int) *proto.Frame {
		return &proto.Frame{Type: proto.FrameSpawn, From: 0, To: 1, Payload: appendSpawn(nil, &proto.TaskPacket{
			Key: proto.TaskKey{Stamp: stamp.FromPath(0, uint32(i))}, Fn: "fib", Args: []expr.Value{expr.VInt(3)},
			Parent: proto.Addr{Proc: 0, Task: proto.TaskKey{Stamp: stamp.FromPath(0)}}, HoleID: i,
		})}
	}
	res := orphanResult(7)
	res.From, res.To = 0, 1
	sent := []*proto.Frame{spawn(0), spawn(1), res}
	var stream []byte
	for _, f := range sent {
		stream = proto.AppendFrame(stream, f)
	}
	torn := proto.AppendFrame(nil, spawn(2))
	stream = append(stream, torn[:len(torn)/2]...)

	c := fakeCluster(t, script(stream), script(nil))
	prog := lang.Fib()
	for range 4 {
		if _, err := c.Root().Submit(prog, "fib", []expr.Value{expr.VInt(10)}); err != nil {
			t.Fatal(err)
		}
	}
	// Where the super-root placed each root: the spawn frames it queued.
	var lost, kept []*proto.TaskPacket
	for i, ch := range c.children {
		for _, f := range frames(t, ch.out.buf) {
			if f.Type != proto.FrameSpawn {
				continue
			}
			pkt, err := parseSpawn(f.Payload, c.Program)
			if err != nil || f.From != proto.HostID || f.Flags != 0 {
				t.Fatalf("node %d was queued %+v (%v), want a fresh root from the super-root", i, f, err)
			}
			if i == 0 {
				lost = append(lost, pkt)
			} else {
				kept = append(kept, pkt)
			}
		}
	}
	if len(lost) == 0 || len(lost)+len(kept) != 4 {
		t.Fatalf("roots placed %d on node 0 and %d on node 1: the case exercises no reissue", len(lost), len(kept))
	}
	before, _ := c.Root().Metrics()
	c.routers.Add(1)
	c.route(c.children[0]) // returns at the torn frame's io.ErrUnexpectedEOF
	c.nodeDied(c.children[0])

	got, by := c.Root().Metrics()
	if d := got.TotalMessages() - before.TotalMessages(); d != int64(4+len(lost)) { // 3 carried, 1 death announced, the reissues
		t.Errorf("%d messages counted after the roots, want %d", d, 4+len(lost))
	}
	if drained := totals(c).Drained; got.TasksSpawned-before.TasksSpawned != int64(2+len(lost)) || got.Reissues != int64(len(lost)) || drained != 0 {
		t.Errorf("spawned +%d reissued %d drained %d, want +%d, %d, 0", got.TasksSpawned-before.TasksSpawned, got.Reissues, drained, 2+len(lost), len(lost))
	}
	if by[0] != 0 || by[1] != 0 {
		t.Errorf("the super-root's reissues were credited to nodes: %v", by)
	}
	if c.children[0].alive.Load() {
		t.Error("node 0 still marked alive")
	}
	q := frames(t, c.children[1].out.buf)
	want := []proto.FrameType{proto.FrameProgram}
	for range kept {
		want = append(want, proto.FrameSpawn)
	}
	want = append(want, proto.FrameSpawn, proto.FrameSpawn, proto.FrameResult, proto.FrameControl)
	for range lost {
		want = append(want, proto.FrameSpawn)
	}
	if len(q) != len(want) {
		t.Fatalf("node 1 was queued %d frames, want %d", len(q), len(want))
	}
	for i, f := range q {
		if f.Type != want[i] {
			t.Fatalf("node 1's frame %d is %v, want %v", i, f.Type, want[i])
		}
	}
	relayed := q[1+len(kept):]
	for i, f := range sent {
		if !bytes.Equal(proto.AppendFrame(nil, relayed[i]), proto.AppendFrame(nil, f)) {
			t.Errorf("forwarded frame %d differs from what node 0 wrote", i)
		}
	}
	if !bytes.Equal(proto.AppendFrame(nil, relayed[3]), announcement(1, 0)) {
		t.Errorf("frame %+v is not node 0's death announcement", relayed[3])
	}
	for i, f := range relayed[4:] {
		pkt, err := parseSpawn(f.Payload, c.Program)
		if err != nil || f.Flags&proto.FlagReissue == 0 || f.From != proto.HostID || pkt.Key != lost[i].Key || !pkt.Reissue {
			t.Errorf("frame %+v is not the super-root's reissue of root %v", f, lost[i].Key)
		}
	}
}

// TestFramesAcrossBufferBoundaries: a program whose source exceeds the
// reader's buffer, and results carrying a 20 000-element list, cross two
// real processes' sockets intact.
func TestFramesAcrossBufferBoundaries(t *testing.T) {
	var src strings.Builder
	src.WriteString("fn main(xs) = echo(xs)\nfn echo(xs) = xs\n")
	for i := 0; src.Len() <= connBufSize+1024; i++ {
		fmt.Fprintf(&src, "fn pad%d(x) = x + %d\n", i, i)
	}
	prog, err := lang.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(lang.Format(prog)); n <= connBufSize {
		t.Fatalf("program source is %d bytes, want more than the %d-byte buffer", n, connBufSize)
	}
	xs := make([]int64, 20000)
	for i := range xs {
		xs[i] = int64(i) * 7919
	}
	list := expr.IntList(xs...)
	c, err := New(node.Spec{Procs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer requireAllDead(t, c.Pids())
	defer c.Shutdown()
	// Four requests, roots alternating between the nodes, children placed at
	// random: the list crosses hub→node, node→hub→node and node→hub.
	var reqs []*node.Request
	for i := 0; i < 4; i++ {
		r, err := c.Root().Submit(prog, "main", []expr.Value{list})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	for i, r := range reqs {
		v, err := r.Wait(30*time.Second, nil)
		if err != nil {
			t.Fatalf("request %d: %v (%+v)", i, err, totals(c))
		}
		if !v.Equal(list) {
			t.Fatalf("request %d: the list came back changed (%d elements)", i, v.(expr.VList).Len())
		}
	}
}

// TestNoDeadlockUnderMutualFlood is the scenario the sendq comment describes,
// now that writes are large: every mid below emits 64 spawns of 11 KB each
// (a thousand ints that each take a 10-byte varint), of which the half placed
// on the other node must cross, so a node writes ≈ 350 KB — more than a
// socket buffer — toward the hub in one call while the hub holds megabytes
// for it, on both nodes at once. The hub never blocks a reader on a write, so
// it completes.
func TestNoDeadlockUnderMutualFlood(t *testing.T) {
	calls := func(fn string, n int) string { return strings.TrimSuffix(strings.Repeat(fn+"(xs) + ", n), " + ") }
	prog, err := lang.Parse("fn main(xs) = " + calls("mid", 32) + "\nfn mid(xs) = " + calls("leaf", 64) + "\nfn leaf(xs) = len(xs)\n")
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = 1<<62 + int64(i)
	}
	args := []expr.Value{expr.IntList(xs...)}
	leaf := len(proto.EncodePacket(&proto.TaskPacket{Key: proto.TaskKey{Stamp: stamp.FromPath(0, 0, 0)}, Fn: "leaf", Args: args}))
	if leaf < 10_000 {
		t.Fatalf("a leaf packet is %d bytes: too small to flood a socket buffer", leaf)
	}
	want, err := lang.RefEval(prog, "main", args)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(node.Spec{Procs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer requireAllDead(t, c.Pids())
	r, err := c.Root().Submit(prog, "main", args)
	if err != nil {
		c.Shutdown()
		t.Fatal(err)
	}
	v, err := r.Wait(60*time.Second, nil)
	c.Shutdown() // the routers' tallies are folded in as they end
	if err != nil {
		t.Fatalf("flood did not complete: %v (%+v)", err, totals(c))
	}
	if !v.Equal(want) {
		t.Fatalf("flood answered %v, want %v", v, want)
	}
	// Half of the 32·64 leaf packets, give or take what placement drew.
	if got := totals(c); got.MsgBytes < int64(32*64*leaf*4/10) {
		t.Errorf("only %d bytes crossed the hub: the flood did not happen", got.MsgBytes)
	}
}

// TestChildRejectsUnknownNodes: a frame is input from outside the node. A
// packet owed to a processor the machine does not have, or the death of one,
// ends the node with an error instead of reaching the protocol, which indexes
// its tables by processor.
func TestChildRejectsUnknownNodes(t *testing.T) {
	stray := &proto.TaskPacket{
		Key: proto.TaskKey{Stamp: stamp.FromPath(0)}, Fn: "fib", Args: []expr.Value{expr.VInt(3)},
		Parent: proto.Addr{Proc: 9},
	}
	for name, f := range map[string]*proto.Frame{
		"packet": {Type: proto.FrameSpawn, From: proto.HostID, Payload: appendSpawn(nil, stray)},
		"death": {Type: proto.FrameControl, From: proto.HostID,
			Payload: proto.AppendControl(nil, &proto.Msg{Type: proto.MsgFaultAnnounce, Failed: 9})},
	} {
		if err := runChild(0, node.Spec{Procs: 2, Seed: 1}, script(hubInput(lang.Fib(), f))); err == nil || !strings.Contains(err.Error(), "unknown node 9") {
			t.Errorf("%s naming node 9 of 2: runChild = %v", name, err)
		}
	}
}

// TestDecodedMessagesOwnTheirBytes: a node reads every frame into one
// reused buffer, so what it decodes must copy what it keeps. Scribbling over
// the buffer after each decode leaves every packet, result and control
// message as it was sent.
func TestDecodedMessagesOwnTheirBytes(t *testing.T) {
	progs := resident(t, lang.MustParse("fn echo(s, xs) = s"))
	parent := proto.Addr{Proc: 1, Task: proto.TaskKey{Stamp: stamp.FromPath(3, 9), Rep: 2}}
	child := proto.TaskKey{Stamp: stamp.FromPath(3, 9, 12), Rep: 2}
	sent := []proto.Msg{
		{Type: proto.MsgTask, From: 1, To: 0, Task: &proto.TaskPacket{Key: child, Gen: 4, ParentGen: 3, Fn: "echo",
			Args: []expr.Value{expr.VStr("a string argument"), expr.IntList(1, 2, 3)}, Parent: parent, HoleID: 12,
			Ancestors: []proto.Addr{{Proc: 0, Task: proto.TaskKey{Stamp: stamp.FromPath(3)}}}, Replicas: 1}},
		{Type: proto.MsgResult, From: 0, To: 1, Result: &proto.Result{Child: child, ParentTask: parent.Task, HoleID: 12,
			Value: expr.ListOf(expr.VStr("a string answer"), expr.VInt(7))}},
		{Type: proto.MsgAbort, From: 1, To: 0, AbortTask: child, AbortGen: 4, AbortScope: parent.Task.Stamp},
	}
	frame := func(m *proto.Msg) []byte {
		var b bytes.Buffer
		w := proto.NewFrameWriter(&b)
		if err := appendMsg(w, m.From, m); err != nil || w.Flush() != nil {
			t.Fatalf("%v does not frame: %v", m.Type, err)
		}
		return b.Bytes()
	}
	var stream []byte
	for i := range sent {
		stream = append(stream, frame(&sent[i])...)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var f proto.Frame
	var got []proto.Msg
	for range sent {
		if err := proto.ReadFrameInto(r, &f); err != nil {
			t.Fatal(err)
		}
		m, err := msgOf(&f, progs)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
		buf := f.Payload[:cap(f.Payload)]
		for i := range buf {
			buf[i] = 0xff
		}
	}
	for i := range sent {
		if g, w := frame(&got[i]), frame(&sent[i]); !bytes.Equal(g, w) {
			t.Errorf("%v after the buffer changed frames as %x, sent as %x", sent[i].Type, g, w)
		}
	}
	if got[0].Task.Fn != "echo" {
		t.Errorf("the packet names its function %q, want echo", got[0].Task.Fn)
	}
}

// TestSpawnOfAnAbsentFunctionIsInvalid: a spawn frame names its function by
// index in a program the node holds; an index past the program's table, like
// a program the node does not hold, is an invalid message (§1).
func TestSpawnOfAnAbsentFunctionIsInvalid(t *testing.T) {
	progs := resident(t, lang.Fib())
	pkt := &proto.TaskPacket{Key: proto.TaskKey{Stamp: stamp.FromPath(0)}, Fn: "fib", Args: []expr.Value{expr.VInt(3)},
		Parent: proto.Addr{Proc: proto.HostID}, Replicas: 1}
	if got, err := parseSpawn(appendSpawn(nil, pkt), progs); err != nil || got.Fn != "fib" {
		t.Fatalf("fib's spawn parses to %+v, %v", got, err)
	}
	for _, bad := range []*proto.TaskPacket{
		{Key: pkt.Key, FnIndex: 1, Args: pkt.Args, Parent: pkt.Parent, Replicas: 1},
		{Key: pkt.Key, FnIndex: 1 << 20, Args: pkt.Args, Parent: pkt.Parent, Replicas: 1},
		{Key: pkt.Key, Args: pkt.Args, Parent: pkt.Parent, Replicas: 1, Prog: 1},
	} {
		if got, err := parseSpawn(appendSpawn(nil, bad), progs); err == nil {
			t.Errorf("function %d of program %d parsed to %+v", bad.FnIndex, bad.Prog, got)
		}
	}
	spawn := proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameSpawn, From: proto.HostID,
		Payload: appendSpawn(nil, &proto.TaskPacket{Key: pkt.Key, FnIndex: 1, Args: pkt.Args, Parent: pkt.Parent, Replicas: 1})})
	if err := runChild(0, node.Spec{Procs: 2, Seed: 1}, script(append(hubInput(lang.Fib()), spawn...))); err == nil {
		t.Error("a node ran a spawn of a function its program lacks")
	}
}
