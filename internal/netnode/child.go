package netnode

import (
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
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
	if err == nil {
		err = runChild(id, spec, addr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "apsim node %d: %v\n", id, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// childLink is a node process's end of the interconnect: the socket to the
// hub, which relays every frame. The node is single-threaded (one frame at a
// time), so nothing else writes to the connection.
type childLink struct {
	id   proto.ProcID
	conn net.Conn
}

// write sends one frame. A failed write means the parent is gone; the read
// loop sees the same broken connection and exits the process, so senders
// need not act on the error.
func (l *childLink) write(f *proto.Frame) error {
	_, err := proto.WriteFrame(l.conn, f)
	return err
}

// Spawn implements node.Link. Reissue frames carry FlagReissue so the hub
// can count recovery traffic without decoding payloads.
func (l *childLink) Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool) {
	var flags byte
	if reissue {
		flags = proto.FlagReissue
	}
	_ = l.write(&proto.Frame{
		Type: proto.FrameSpawn, Flags: flags, From: l.id, To: to,
		Payload: spawnPayload(pkt),
	})
}

// Result implements node.Link; the hub is the addressee of root results.
func (l *childLink) Result(to proto.ProcID, res *proto.Result) {
	_ = l.write(&proto.Frame{
		Type: proto.FrameResult, From: l.id, To: to,
		Payload: proto.EncodeResult(res),
	})
}

// runChild dials the hub and feeds its frames to one protocol node until the
// hub says goodbye or disappears.
func runChild(id int, spec node.Spec, addr string) error {
	ev, err := spec.Evaluator()
	if err != nil {
		return err
	}
	conn, err := net.DialTimeout("unix", addr, 10*time.Second)
	if err != nil {
		return err
	}
	link := &childLink{id: proto.ProcID(id), conn: conn}
	// evals holds each program compiled at FrameProgram receipt, so the
	// per-task path never compiles.
	evals := map[int]lang.EvalProgram{}
	n := node.New(link.id, spec.Procs, spec.Seed, link, func(idx int) lang.EvalProgram { return evals[idx] })
	if err := link.write(&proto.Frame{
		Type: proto.FrameHello, From: link.id, To: proto.HostID,
		Payload: helloPayload(id, os.Getpid()),
	}); err != nil {
		return err
	}
	for {
		f, err := proto.ReadFrame(conn)
		if err != nil {
			// The parent is gone (EOF/reset) — the orphan watchdog every
			// OS gets. Exit silently on a clean break, loudly on garbage.
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil
			}
			return err
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
			return link.write(&proto.Frame{
				Type: proto.FrameStats, From: link.id, To: proto.HostID,
				Payload: statsPayload(n.Drained),
			})
		default:
			return fmt.Errorf("netnode: unexpected %v frame at node %d", f.Type, id)
		}
	}
}
