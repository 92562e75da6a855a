package netnode

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/trace"
)

// ChildMain is the hidden node-process entry point. Call it first thing in
// main() (before flag parsing) and in TestMain: when the APSIM_NETNODE_*
// environment is present the process is a re-exec'd node — ChildMain runs
// the node loop and never returns. In a normal invocation it is a no-op.
func ChildMain() {
	id, spec, addr, ok, err := childEnv()
	if !ok {
		return
	}
	var conn net.Conn
	if err == nil {
		conn, err = net.DialTimeout("unix", addr, 10*time.Second)
	}
	if err == nil {
		err = runChild(id, spec, conn)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "apsim node %d: %v\n", id, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// childLink is a node process's end of the interconnect: the batch of
// frames bound for the hub, which relays every one. The node is
// single-threaded (one frame at a time), so nothing else touches the batch;
// Spawn and Result only append, runChild decides when it is written, and a
// frame the batch refuses is sticky in the writer until that flush.
type childLink struct {
	id  proto.ProcID
	out *proto.FrameWriter
	// n is the node behind the link; told is what n had counted on its own
	// as of the last stats frame.
	n    *node.Node
	told trace.Metrics
}

// Spawn implements node.Link. Reissue frames carry FlagReissue so the hub
// can count recovery traffic without decoding payloads.
func (l *childLink) Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool) {
	l.tally()
	var flags byte
	if reissue {
		flags = proto.FlagReissue
	}
	_ = l.out.End(appendSpawn(l.out.Begin(proto.FrameSpawn, flags, l.id, to), pkt))
}

// Result implements node.Link; the hub is the addressee of root results.
func (l *childLink) Result(to proto.ProcID, res *proto.Result) {
	l.tally()
	_ = l.out.End(proto.AppendResult(l.out.Begin(proto.FrameResult, 0, l.id, to), res))
}

// Fail implements node.Link: a result frame for the hub with FlagFailed,
// the error's text where the value would be.
func (l *childLink) Fail(task proto.TaskKey, err error) {
	l.tally()
	res := &proto.Result{Child: task, Value: expr.VStr(err.Error())}
	_ = l.out.End(proto.AppendResult(l.out.Begin(proto.FrameResult, proto.FlagFailed, l.id, proto.HostID), res))
}

// tally appends a stats frame when the node has counted something on its own
// since the last one: task packets placed on itself and results drained, as
// deltas. It runs ahead of every frame that crosses, so the hub has counted
// whatever a frame it sees causally follows — a packet that ran in place
// before its result left, say — even when the node dies mid-batch.
func (l *childLink) tally() {
	if l.n.Metrics == l.told {
		return
	}
	buf := l.out.Begin(proto.FrameStats, 0, l.id, proto.HostID)
	_ = l.out.End(appendStats(buf, &l.n.Metrics, &l.told))
	l.told = l.n.Metrics
}

// hubGone ends the node on a connection error: a read or a flush that fails
// means the parent is gone — the orphan watchdog every OS gets — and the exit
// is silent; garbage on the stream, or a frame the batch refused, is loud.
func hubGone(err error) error {
	if errors.Is(err, proto.ErrFrame) {
		return err
	}
	return nil
}

// runChild feeds the hub's frames to one protocol node until the hub says
// goodbye or disappears. What the handlers emit is written when the reader
// has nothing buffered (the next read may block) or the batch is a buffer
// full, never in between: a wide OnSpawn leaves in one write. (A partial
// frame in the buffer means the hub is inside the Write that completes it.)
func runChild(id int, spec node.Spec, conn io.ReadWriter) error {
	ev, err := spec.Evaluator()
	if err != nil {
		return err
	}
	r := bufio.NewReaderSize(conn, connBufSize)
	link := &childLink{id: proto.ProcID(id), out: proto.NewFrameWriter(conn)}
	// evals holds each program compiled at FrameProgram receipt, so the
	// per-task path never compiles.
	evals := map[int]lang.EvalProgram{}
	link.n = node.New(link.id, spec.Procs, spec.Seed, link, func(idx int) lang.EvalProgram { return evals[idx] })
	n := link.n
	_ = link.out.Append(&proto.Frame{
		Type: proto.FrameHello, From: link.id, To: proto.HostID,
		Payload: helloPayload(id, os.Getpid()),
	})
	for {
		if r.Buffered() == 0 || link.out.Len() >= connBufSize {
			if err := link.out.Flush(); err != nil {
				return hubGone(err)
			}
		}
		f, err := proto.ReadFrame(r)
		if err != nil {
			return hubGone(err)
		}
		switch f.Type {
		case proto.FrameProgram:
			idx, src, err := parseProgram(f.Payload)
			if err != nil {
				return err
			}
			prog, err := lang.Parse(src)
			if err != nil {
				return fmt.Errorf("netnode: program %d does not parse: %v", idx, err)
			}
			if evals[idx], err = ev.Compile(prog); err != nil {
				return fmt.Errorf("netnode: program %d does not compile: %v", idx, err)
			}
		case proto.FrameSpawn:
			pkt, err := parseSpawn(f.Payload)
			if err != nil {
				return err
			}
			if evals[pkt.Prog] == nil {
				return fmt.Errorf("netnode: node %d has no program %d", id, pkt.Prog)
			}
			n.OnSpawn(pkt)
		case proto.FrameResult:
			res, err := proto.DecodeResult(f.Payload)
			if err != nil {
				return err
			}
			n.OnResult(res)
		case proto.FrameNodeDown:
			dead, err := parseNodeDown(f.Payload)
			if err != nil {
				return err
			}
			if dead < 0 || dead >= spec.Procs {
				return fmt.Errorf("netnode: node-down for unknown node %d", dead)
			}
			n.OnNodeDown(proto.ProcID(dead))
		case proto.FrameShutdown:
			link.tally() // the goodbye: what no later frame will carry
			return hubGone(link.out.Flush())
		default:
			return fmt.Errorf("netnode: unexpected %v frame at node %d", f.Type, id)
		}
	}
}
