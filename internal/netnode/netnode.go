// Package netnode runs the applicative machine as separate OS processes:
// one child process per node, real sockets as the interconnect, and the
// internal/proto codec as the actual wire format. It is the third backend
// ("net") behind the same core.Backend contract as the simulator and the
// goroutine live network — the paper's claim that functional checkpointing
// (§2) needs nothing from a particular substrate, now demonstrated across a
// process boundary where a crash is a SIGKILL, not a cooperative teardown.
//
// It is a transport and nothing else: each child runs one
// internal/machine WallProc, the simulator's protocol over a wall-clock env,
// and the parent hosts internal/node's super-root (§4.3.1), a WallProc of
// its own, and serves its session — the same three the goroutine backend
// runs on.
//
// Topology is hub-and-spoke: the parent process is the supervisor and the
// frame router. Children dial the parent's unix socket, introduce themselves
// with a hello frame, and then speak the protocol: task packets travel as
// spawn frames, results as result frames, and the rest of what the protocol
// sends — aborts, child aborts, refused placements and the supervisor's death
// announcements — as control frames, plus the stats reports of what a node
// counted on its own. Fault injection SIGKILLs the child's PID — the
// supervisor learns of the death the way a real cluster does, by the
// connection breaking — and reports it to the super-root like any crash.
//
// Program code is resident, not shipped per packet: the parent broadcasts
// each program's lang.Format source once (a program frame carrying an
// index), children lang.Parse it, and every spawn payload names its
// program by index — the same code-segment model the simulator and livenet
// use in-process.
//
// Child processes are re-execs of the current binary: the parent runs
// os.Executable() with the hidden "-node" argv marker and the APSIM_NETNODE_*
// environment carrying the real configuration; ChildMain, called first thing
// in main (and in TestMain), detects the environment and never returns.
// Three layers prevent orphans: PDEATHSIG delivers SIGKILL to children when
// the parent dies (linux), children exit when their connection to the parent
// breaks (any OS — the kernel closes the socket when the parent exits, even
// on a panic), and Close reaps every child, SIGKILLing stragglers.
package netnode

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"

	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/trace"
)

// Environment contract between the parent and its re-exec'd children.
// NodeEnvID doubles as the detection flag: ChildMain is a no-op unless it
// is set.
const (
	// NodeEnvID is the child's node id (0-based).
	NodeEnvID = "APSIM_NETNODE_ID"
	// NodeEnvAddr is the path of the parent's unix socket.
	NodeEnvAddr = "APSIM_NETNODE_ADDR"
	// NodeEnvProcs is the node count.
	NodeEnvProcs = "APSIM_NETNODE_PROCS"
	// NodeEnvSeed is the cluster seed every node derives its placement rng
	// from.
	NodeEnvSeed = "APSIM_NETNODE_SEED"
	// NodeEnvEval is the evaluator name the child runs reduction passes
	// with ("" = lang.DefaultEvaluator). Children compile each program at
	// FrameProgram receipt, so tasks never pay compilation.
	NodeEnvEval = "APSIM_NETNODE_EVAL"
	// NodeEnvScheme is the child's recovery scheme (node.Spec.Scheme).
	NodeEnvScheme = "APSIM_NETNODE_SCHEME"
)

// ArgvMarker is the cosmetic argv tag children run under. Configuration
// travels in the environment; the marker exists so process listings read
// honestly and cleanup can `pkill -f apsim-netnode`.
const ArgvMarker = "-node"

// connBufSize is both a connection's read buffer and the batch size past
// which a node flushes without waiting for its input to run dry.
const connBufSize = 64 << 10

// maxSpare is the largest drained outbox the hub's writer keeps to swap back
// in; a burst's megabytes go back to the collector instead.
const maxSpare = 16 * connBufSize

// SocketPattern is the temp-directory pattern for unix sockets; it shares
// the "apsim-netnode" stem with ArgvMarker's help text so one pkill pattern
// covers both.
const SocketPattern = "apsim-netnode-*"

// childEnv reads the environment contract; ok is false when NodeEnvID is
// absent (a normal, non-child invocation).
func childEnv() (id int, spec node.Spec, addr string, ok bool, err error) {
	idStr := os.Getenv(NodeEnvID)
	if idStr == "" {
		return 0, spec, "", false, nil
	}
	fail := func(name string) (int, node.Spec, string, bool, error) {
		return id, spec, "", true, fmt.Errorf("netnode: bad %s %q", name, os.Getenv(name))
	}
	if id, err = strconv.Atoi(idStr); err != nil {
		return fail(NodeEnvID)
	}
	if spec.Procs, err = strconv.Atoi(os.Getenv(NodeEnvProcs)); err != nil || spec.Procs < 2 {
		return fail(NodeEnvProcs)
	}
	if spec.Seed, err = strconv.ParseInt(os.Getenv(NodeEnvSeed), 10, 64); err != nil {
		return fail(NodeEnvSeed)
	}
	spec.Eval = os.Getenv(NodeEnvEval)
	if _, err = spec.Evaluator(); err != nil {
		return fail(NodeEnvEval)
	}
	spec.Scheme = os.Getenv(NodeEnvScheme)
	if addr = os.Getenv(NodeEnvAddr); addr == "" {
		return fail(NodeEnvAddr)
	}
	return id, spec, addr, true, nil
}

// Payload layouts. Every frame payload is one of:
//
//	hello:     uint32 node id, uint32 pid
//	program:   uint16 program index, then lang.Format source bytes
//	spawn:     uvarint program index, then proto.EncodePacket bytes; with
//	           its header exactly the proto.Msg.EncodedSize sim and live
//	           charge, as a result or control frame is
//	result:    proto.EncodeResult bytes (with FlagFailed: the failed task as
//	           Child, the evaluation error's text as a string Value)
//	control:   proto.AppendControl bytes
//	stats:     uvarint × 7, what the node counted since its last report: task
//	           packets it placed on itself, the reissues among them, the
//	           duplicate and the late results it drained, the tasks it
//	           completed and aborted, and the reduction steps it executed
//	shutdown:  empty

func helloPayload(id, pid int) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(id))
	return binary.BigEndian.AppendUint32(buf, uint32(pid))
}

func parseHello(p []byte) (id, pid int, err error) {
	if len(p) != 8 {
		return 0, 0, fmt.Errorf("netnode: hello payload %d bytes", len(p))
	}
	return int(binary.BigEndian.Uint32(p)), int(binary.BigEndian.Uint32(p[4:])), nil
}

func programPayload(idx int, src string) []byte {
	buf := binary.BigEndian.AppendUint16(nil, uint16(idx))
	return append(buf, src...)
}

func parseProgram(p []byte) (idx int, src string, err error) {
	if len(p) < 2 {
		return 0, "", fmt.Errorf("netnode: program payload %d bytes", len(p))
	}
	return int(binary.BigEndian.Uint16(p)), string(p[2:]), nil
}

// appendMsg batches m, from processor from, in its frame: a spawn frame,
// with FlagReissue so the hub counts reissues without decoding; a result
// frame, with FlagFailed for Msg.EvalErr, the error's text being the value;
// or a control frame.
func appendMsg(w *proto.FrameWriter, from proto.ProcID, m *proto.Msg) error {
	switch m.Type {
	case proto.MsgTask:
		var flags byte
		if m.Task.Reissue {
			flags = proto.FlagReissue
		}
		return w.End(appendSpawn(w.Begin(proto.FrameSpawn, flags, from, m.To), m.Task))
	case proto.MsgResult:
		var flags byte
		if m.EvalErr {
			flags = proto.FlagFailed
		}
		return w.End(proto.AppendResult(w.Begin(proto.FrameResult, flags, from, m.To), m.Result))
	default:
		return w.End(proto.AppendControl(w.Begin(proto.FrameControl, 0, from, m.To), m))
	}
}

// msgOf decodes the message appendMsg framed, FlagFailed as Msg.EvalErr; a
// task packet resolves its function in progs (parseSpawn).
func msgOf(f *proto.Frame, progs func(int) lang.EvalProgram) (proto.Msg, error) {
	m := proto.Msg{From: f.From, To: f.To}
	var err error
	switch f.Type {
	case proto.FrameSpawn:
		m.Type = proto.MsgTask
		m.Task, err = parseSpawn(f.Payload, progs)
	case proto.FrameResult:
		m.Type = proto.MsgResult
		m.Result, err = proto.DecodeResult(f.Payload)
		m.EvalErr = f.Flags&proto.FlagFailed != 0
	case proto.FrameControl:
		var c *proto.Msg
		if c, err = proto.DecodeControl(f.Payload); err == nil {
			c.From, c.To = f.From, f.To
			m = *c
		}
	default:
		err = fmt.Errorf("netnode: unexpected %v frame from %d", f.Type, f.From)
	}
	return m, err
}

// appendSpawn appends a spawn payload: the packet's in-process program tag
// as a uvarint (the packet codec leaves it out: code is resident, not
// shipped) ahead of the packet.
func appendSpawn(buf []byte, pkt *proto.TaskPacket) []byte {
	return proto.AppendPacket(binary.AppendUvarint(buf, uint64(pkt.Prog)), pkt)
}

// parseSpawn decodes a spawn payload and names the packet's function from
// its index in the program progs holds under the packet's tag. A program or
// a function the node does not hold makes the frame an invalid message (§1).
func parseSpawn(p []byte, progs func(int) lang.EvalProgram) (*proto.TaskPacket, error) {
	prog, n := binary.Uvarint(p)
	if n <= 0 || prog > 0xffff {
		return nil, fmt.Errorf("netnode: spawn payload without a program tag")
	}
	pkt, err := proto.DecodePacket(p[n:])
	if err != nil {
		return nil, err
	}
	pkt.Prog = int(prog)
	ep := progs(pkt.Prog)
	if ep == nil {
		return nil, fmt.Errorf("netnode: no program %d", prog)
	}
	var ok bool
	if pkt.Fn, ok = ep.Source().FuncName(int(pkt.FnIndex)); !ok {
		return nil, fmt.Errorf("netnode: program %d has no function %d", prog, pkt.FnIndex)
	}
	return pkt, nil
}

// statsRows are the counts a stats frame carries, in its order.
func statsRows(m *trace.Metrics) [7]*int64 {
	return [...]*int64{&m.TasksInPlace, &m.Reissues, &m.DupResults, &m.LateResults,
		&m.TasksCompleted, &m.TasksAborted, &m.StepsExecuted}
}

// appendStats appends what a node counted on its own between was and now.
func appendStats(buf []byte, now, was *trace.Metrics) []byte {
	prev := statsRows(was)
	for i, v := range statsRows(now) {
		buf = binary.AppendUvarint(buf, uint64(*v-*prev[i]))
	}
	return buf
}

func parseStats(p []byte) (m trace.Metrics, err error) {
	for _, v := range statsRows(&m) {
		u, n := binary.Uvarint(p)
		if n <= 0 || int64(u) < 0 {
			return trace.Metrics{}, fmt.Errorf("netnode: stats payload malformed")
		}
		*v, p = int64(u), p[n:]
	}
	if len(p) != 0 || m.TasksInPlace < m.Reissues {
		return trace.Metrics{}, fmt.Errorf("netnode: stats report of %d in place, %d reissued, %d trailing bytes", m.TasksInPlace, m.Reissues, len(p))
	}
	m.TasksSpawned = m.TasksInPlace
	return m, nil
}
