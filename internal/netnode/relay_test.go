package netnode

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/stamp"
)

// The hub relays bytes. These tests pin what that means: a forwarded frame
// is the bytes that arrived, wherever they lay in the reader's buffer; a
// frame is forwarded whole or not at all; relaying allocates nothing; and
// the one thing the hub does decode — a root's result — owns its memory.

// opaque is a result-typed frame from node 0 to node to of exactly size
// bytes on the wire. The hub never decodes what it forwards, so the payload
// is a pattern that makes a misplaced byte visible.
func opaque(to proto.ProcID, size int, seed byte) []byte {
	payload := make([]byte, size-proto.FrameHeaderSize)
	for i := range payload {
		payload[i] = seed + byte(i*7)
	}
	return proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameResult, From: 0, To: to, Payload: payload})
}

// routeAll runs node 0's router over a scripted stream until the connection
// ends (which the hub takes for node 0's death) and returns what node 1 was
// queued, split at the death announcement that must end it.
func routeAll(t *testing.T, c *Cluster) (relayed []byte) {
	t.Helper()
	c.routers.Add(1)
	c.route(c.children[0])
	if c.children[0].alive.Load() {
		t.Fatal("node 0 still marked alive after its connection ended")
	}
	out := c.children[1].out.buf
	down := hostFrame(proto.FrameNodeDown, 0, 1, nodeDownPayload(0))
	if !bytes.HasSuffix(out, down) {
		t.Fatalf("node 1's outbox does not end with node 0's death announcement (%d bytes queued)", len(out))
	}
	return out[:len(out)-len(down)]
}

// TestRelayForwardsTheBytesThatArrived: frames of every awkward size — far
// more than a buffer's worth of small ones, so many straddle the buffer's
// end; one of exactly the buffer's size; its neighbours; one of several
// buffers, which takes the read-into-its-own-buffer path — trickling in 997
// bytes at a time, reach node 1's outbox byte for byte, and are counted as
// what they are.
func TestRelayForwardsTheBytesThatArrived(t *testing.T) {
	var stream []byte
	count := 0
	add := func(size int) {
		stream = append(stream, opaque(1, size, byte(count))...)
		count++
	}
	for i := 0; len(stream) < 3*connBufSize; i++ {
		add(proto.FrameHeaderSize + i%211)
	}
	for _, size := range []int{connBufSize - 1, connBufSize, connBufSize + 1, 3*connBufSize + 5, proto.FrameHeaderSize, 100} {
		add(size)
	}
	conn := script(stream)
	conn.chunk = 997
	c := fakeCluster(t, conn, script(nil))
	if got := routeAll(t, c); !bytes.Equal(got, stream) {
		at := 0
		for at < len(got) && at < len(stream) && got[at] == stream[at] {
			at++
		}
		t.Fatalf("node 1 was queued %d bytes, node 0 wrote %d; they first differ at byte %d", len(got), len(stream), at)
	}
	got := c.Root().Snapshot()
	if got.Messages != int64(count)+1 || got.MsgBytes != int64(len(stream))+proto.FrameHeaderSize+4 || got.Drained != 0 {
		t.Errorf("%d messages, %d bytes, %d drained; want the %d frames of %d bytes and one death announcement",
			got.Messages, got.MsgBytes, got.Drained, count, len(stream))
	}
}

// TestRelayCutAtEveryOffset is FuzzFrameStream's shape against the router: a
// connection cut anywhere — inside a header, inside a payload the router was
// peeking at, inside a frame too big to peek — is the dead node's silence.
// Exactly the whole frames before the cut are counted and forwarded, nothing
// of the torn one, and the death is handled once.
func TestRelayCutAtEveryOffset(t *testing.T) {
	spawn := proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameSpawn, From: 0, To: 1, Flags: proto.FlagReissue,
		Payload: appendSpawn(nil, &proto.TaskPacket{
			Key: proto.TaskKey{Stamp: stamp.FromPath(4, 1)}, Fn: "fib", Args: []expr.Value{expr.VInt(3)},
			Parent: proto.Addr{Proc: 0, Task: proto.TaskKey{Stamp: stamp.FromPath(4)}}, HoleID: 1,
		})})
	type part struct {
		wire                           []byte
		msgs, spawned, inPlace, drains int64
		forwarded                      bool
	}
	toHost := orphanResult(3) // no such request: the super-root drains it
	toHost.From, toHost.To = 0, proto.HostID
	nowhere := orphanResult(4)
	nowhere.From, nowhere.To = 0, 7
	parts := []part{
		{wire: spawn, msgs: 1, spawned: 1, forwarded: true},
		{wire: proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameStats, From: 0, To: proto.HostID, Payload: appendStats(nil, 5, 2, 3)}),
			spawned: 5, inPlace: 5, drains: 3},
		{wire: proto.AppendFrame(nil, toHost), msgs: 1, drains: 1},
		{wire: opaque(1, 40, 9), msgs: 1, forwarded: true},
		{wire: proto.AppendFrame(nil, nowhere), msgs: 1, drains: 1},
		{wire: proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameHeartbeat, From: 0, To: proto.HostID})},
		{wire: opaque(1, connBufSize+100, 1), msgs: 1, forwarded: true},
		{wire: opaque(1, 14, 0), msgs: 1, forwarded: true},
	}
	var stream []byte
	for _, p := range parts {
		stream = append(stream, p.wire...)
	}
	for cut := 0; cut <= len(stream); cut++ {
		if big := len(stream) - connBufSize - 100; cut > big+20 && cut < len(stream)-40 && cut%1009 != 0 {
			continue // inside the big frame's payload every offset is the same case
		}
		c := fakeCluster(t, script(stream[:cut]), script(nil))
		var want []byte
		var msgs, spawned, inPlace, drains int64
		for end, i := 0, 0; i < len(parts) && end+len(parts[i].wire) <= cut; i++ {
			p := parts[i]
			end += len(p.wire)
			msgs, spawned, inPlace, drains = msgs+p.msgs, spawned+p.spawned, inPlace+p.inPlace, drains+p.drains
			if p.forwarded {
				want = append(want, p.wire...)
			}
		}
		if got := routeAll(t, c); !bytes.Equal(got, want) {
			t.Fatalf("cut at %d of %d: node 1 was queued %d bytes, want the %d of the whole frames before the cut", cut, len(stream), len(got), len(want))
		}
		got := c.Root().Snapshot()
		if got.Messages != msgs+1 || got.Spawned != spawned || got.InPlace != inPlace || got.Drained != drains {
			t.Fatalf("cut at %d of %d: messages/spawned/in place/drained = %d/%d/%d/%d, want %d/%d/%d/%d",
				cut, len(stream), got.Messages, got.Spawned, got.InPlace, got.Drained, msgs+1, spawned, inPlace, drains)
		}
		if want := min(spawned, 1) + min(inPlace, 2); got.Reissued != want || c.Root().ReissuesByNode()[0] != want {
			t.Fatalf("cut at %d of %d: %d reissued (%v by node), want %d", cut, len(stream), got.Reissued, c.Root().ReissuesByNode(), want)
		}
	}

	// Garbage is a cut too: a header no frame can have ends the connection
	// with everything before it forwarded.
	bad := append(append([]byte(nil), spawn...), 0xff, 0xff, 0xff, 0xff, byte(proto.FrameSpawn), 0, 0, 0, 0, 0, 0, 0, 0, 1)
	c := fakeCluster(t, script(bad), script(nil))
	if got := routeAll(t, c); !bytes.Equal(got, spawn) {
		t.Fatalf("before an oversized length node 1 was queued %d bytes, want the %d of the frame ahead of it", len(got), len(spawn))
	}
}

// loopConn is a connection whose peer repeats itself for ever.
type loopConn struct {
	net.Conn
	data []byte
	off  int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.data[c.off:])
	c.off = (c.off + n) % len(c.data)
	return n, nil
}

func (c *loopConn) Close() error { return nil }

// TestRelayAllocatesNothing: in steady state — buffers grown, outbox swapped
// by its writer — relaying a frame costs no allocation: no Frame, no payload,
// no outbox growth.
func TestRelayAllocatesNothing(t *testing.T) {
	spawn := proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameSpawn, From: 0, To: 1,
		Payload: appendSpawn(nil, &proto.TaskPacket{
			Key: proto.TaskKey{Stamp: stamp.FromPath(4, 1, 0)}, Fn: "fib", Args: []expr.Value{expr.VInt(12)},
			Parent: proto.Addr{Proc: 0, Task: proto.TaskKey{Stamp: stamp.FromPath(4, 1)}},
		})})
	res := orphanResult(1)
	res.From, res.To = 0, 1
	stats := proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameStats, From: 0, To: proto.HostID, Payload: appendStats(nil, 1, 0, 0)})
	data := append(append(spawn, proto.AppendFrame(nil, res)...), stats...)

	c := fakeCluster(t, script(nil), script(nil))
	ch := c.children[0]
	ch.conn = &loopConn{data: data}
	ch.r.Reset(ch.conn)
	var batch []byte
	step := func() {
		for i := 0; i < 3; i++ {
			if err := c.relay(ch); err != nil {
				t.Fatal(err)
			}
		}
		batch = c.children[1].out.popAll(batch) // the writer's half of the swap
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("relaying a spawn, a result and a stats frame allocated %v times, want 0", n)
	}
	if want := append(spawn, proto.AppendFrame(nil, res)...); !bytes.Equal(batch, want) {
		t.Errorf("the last batch is %d bytes, want the spawn and the result (%d)", len(batch), len(want))
	}
}

// TestHostResultOwnsItsMemory: a root's result is decoded from bytes the
// router was only peeking at. The value the request receives, and the stamps
// of the Result it came in, must not point into the reader's buffer — which
// the frames that follow overwrite.
func TestHostResultOwnsItsMemory(t *testing.T) {
	answer := expr.ListOf(expr.VStr("determinacy"), expr.ListOf(expr.VStr("is"), expr.VInt(21)), expr.VStr("why"))
	res := &proto.Result{
		Child:      proto.TaskKey{Stamp: stamp.FromPath(0)},
		ParentTask: proto.TaskKey{Stamp: stamp.FromPath(6, 5, 4)},
		HoleID:     3,
		Value:      answer,
	}
	wire := proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameResult, From: 0, To: proto.HostID, Payload: proto.EncodeResult(res)})

	stream := append([]byte(nil), wire...)
	for len(stream) < 2*connBufSize {
		stream = append(stream, proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameResult, From: 0, To: 1,
			Payload: bytes.Repeat([]byte{0xff}, 1000)})...)
	}
	c := fakeCluster(t, script(stream), script(nil))
	q, err := c.Root().Submit(lang.Fib(), "fib", []expr.Value{expr.VInt(3)}) // request 0: stamp (0)
	if err != nil {
		t.Fatal(err)
	}
	routeAll(t, c)
	if got, err := q.Wait(0, nil); err != nil || !got.Equal(answer) {
		t.Fatalf("request 0 was answered %v (%v) once the buffer had been reused, want %v", got, err, answer)
	}

	got, err := proto.DecodeResult(wire[proto.FrameHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xff
	}
	if got.Child != res.Child || got.ParentTask != res.ParentTask || got.HoleID != 3 || !got.Value.Equal(answer) {
		t.Fatalf("decoded result changed with the bytes it was decoded from: %+v", got)
	}
}
