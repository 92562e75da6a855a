package netnode

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/lang"
	"repro/internal/machine"
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
// single-threaded, so nothing else touches the batch; Send only appends,
// runChild decides when it is written, and a frame the batch refuses is
// sticky in the writer until that flush.
type childLink struct {
	id  proto.ProcID
	out *proto.FrameWriter
	// w is the processor behind the link; told is what w had counted on its
	// own as of the last stats frame. evals holds each program compiled at
	// FrameProgram receipt, so the per-task path never compiles.
	w     *machine.WallProc
	told  trace.Metrics
	evals map[int]lang.EvalProgram
}

// Send implements machine.Transport: the stats of what the node counted on
// its own, then the message's frame (appendMsg).
func (l *childLink) Send(m proto.Msg) {
	l.tally(false)
	_ = appendMsg(l.out, l.id, &m)
}

// Program implements machine.Transport.
func (l *childLink) Program(i int) lang.EvalProgram { return l.evals[i] }

// tally appends a stats frame of deltas of every count the node keeps on its
// own when it has placed a task packet on itself or drained a result since
// the last one, or at the goodbye. It runs ahead of every frame that crosses,
// so the hub has counted whatever a frame it sees causally follows — a
// packet that ran in place before its result left, say — even when the node
// dies mid-batch. Completions, aborts and steps only ride along: nearly every
// result follows one.
func (l *childLink) tally(goodbye bool) {
	now, was := l.w.Local(), l.told
	if !goodbye {
		was.TasksCompleted, was.TasksAborted, was.StepsExecuted = now.TasksCompleted, now.TasksAborted, now.StepsExecuted
	}
	if now == was {
		return
	}
	buf := l.out.Begin(proto.FrameStats, 0, l.id, proto.HostID)
	_ = l.out.End(appendStats(buf, &now, &l.told))
	l.told = now
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

// pollWait is how long a node with work pending waits for a frame before it
// runs its next budget of events.
const pollWait = 50 * time.Microsecond

// arrived reports whether the hub has sent something, waiting at most
// pollWait; a connection that cannot time out always reads.
func arrived(conn io.Reader, r *bufio.Reader) bool {
	d, ok := conn.(interface{ SetReadDeadline(time.Time) error })
	if !ok {
		return true
	}
	_ = d.SetReadDeadline(time.Now().Add(pollWait))
	_, err := r.Peek(1)
	_ = d.SetReadDeadline(time.Time{})
	return !errors.Is(err, os.ErrDeadlineExceeded)
}

// runChild feeds the hub's frames to one wall processor until the hub says
// goodbye or disappears. After each frame the processor runs a budget of what
// it set going; while events are still pending the node only polls the
// socket between budgets. What the processor emits is written when the
// reader has nothing buffered (the next read may block) or the batch is a
// buffer full, never in between: a wide pass leaves in one write. (A partial
// frame in the buffer means the hub is inside the Write that completes it.)
// Every frame is read into the one Frame the loop keeps, and decoded before
// the next read: what is decoded copies what it keeps.
func runChild(id int, spec node.Spec, conn io.ReadWriter) error {
	ev, err := spec.Evaluator()
	if err != nil {
		return err
	}
	r := bufio.NewReaderSize(conn, connBufSize)
	link := &childLink{id: proto.ProcID(id), out: proto.NewFrameWriter(conn), evals: map[int]lang.EvalProgram{}}
	if link.w, err = machine.NewWallProc(link.id, spec.Procs, spec.Seed, spec.Scheme, link); err != nil {
		return err
	}
	_ = link.out.Append(&proto.Frame{
		Type: proto.FrameHello, From: link.id, To: proto.HostID,
		Payload: helloPayload(id, os.Getpid()),
	})
	var f proto.Frame
	for {
		pending := link.w.Run()
		if r.Buffered() == 0 || link.out.Len() >= connBufSize {
			if err := link.out.Flush(); err != nil {
				return hubGone(err)
			}
		}
		if pending && r.Buffered() == 0 && !arrived(conn, r) {
			continue
		}
		if err := proto.ReadFrameInto(r, &f); err != nil {
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
			if link.evals[idx], err = ev.Compile(prog); err != nil {
				return fmt.Errorf("netnode: program %d does not compile: %v", idx, err)
			}
			continue
		case proto.FrameShutdown:
			link.tally(true) // the goodbye: what no later frame will carry
			return hubGone(link.out.Flush())
		}
		m, err := msgOf(&f, link.Program)
		switch {
		case err != nil:
			return err
		case m.Type == proto.MsgTask && m.Task.Parent.Proc != proto.HostID && (m.Task.Parent.Proc < 0 || int(m.Task.Parent.Proc) >= spec.Procs):
			return fmt.Errorf("netnode: packet owed to unknown node %d", m.Task.Parent.Proc)
		case m.Type == proto.MsgFaultAnnounce && (m.Failed < 0 || int(m.Failed) >= spec.Procs):
			return fmt.Errorf("netnode: death of unknown node %d", m.Failed)
		}
		m.To = link.id
		link.w.Deliver(&m)
	}
}
