// Package netnode runs the applicative machine as separate OS processes:
// one child process per node, real sockets as the interconnect, and the
// internal/proto codec as the actual wire format. It is the third backend
// ("net") behind the same core.Backend contract as the simulator and the
// goroutine live network — the paper's claim that functional checkpointing
// (§2) needs nothing from a particular substrate, now demonstrated across a
// process boundary where a crash is a SIGKILL, not a cooperative teardown.
//
// It is a transport and nothing else: each child runs one internal/node
// rollback node, the parent hosts that package's super-root (§4.3.1) and
// serves its session — the same three the goroutine backend runs on.
//
// Topology is hub-and-spoke: the parent process is the supervisor and the
// frame router. Children dial the parent's unix socket, introduce themselves
// with a hello frame, and then speak
// the protocol: task packets travel as spawn frames, results as result
// frames, death announcements as node-down gossip from the supervisor, plus
// the stats reports of what a node counted on its own. Fault injection
// SIGKILLs the child's PID — the supervisor learns of the death the way a
// real cluster does, by the connection breaking — and reports it to the
// super-root like any crash.
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

	"repro/internal/node"
	"repro/internal/proto"
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
// absent (a normal, non-child invocation). The recovery scheme is not part
// of it: under "none" a node is simply never told of a death.
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
	if addr = os.Getenv(NodeEnvAddr); addr == "" {
		return fail(NodeEnvAddr)
	}
	return id, spec, addr, true, nil
}

// Payload layouts. Every frame payload is one of:
//
//	hello:     uint32 node id, uint32 pid
//	program:   uint16 program index, then lang.Format source bytes
//	spawn:     uint16 program index, then proto.EncodePacket bytes — exactly
//	           the packet's EncodedSize, which sim and live charge too
//	result:    proto.EncodeResult bytes (with FlagFailed: the failed task as
//	           Child, the evaluation error's text as a string Value)
//	node-down: uint32 dead node id
//	stats:     uint64 × 3, what the node counted since its last report: task
//	           packets it placed on itself, the reissues among them, and
//	           results it drained
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

// appendSpawn appends a spawn payload: the packet's in-process program tag
// (which the packet codec leaves out: code is resident, not shipped) ahead of
// the packet.
func appendSpawn(buf []byte, pkt *proto.TaskPacket) []byte {
	return proto.AppendPacket(binary.BigEndian.AppendUint16(buf, uint16(pkt.Prog)), pkt)
}

func parseSpawn(p []byte) (*proto.TaskPacket, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("netnode: spawn payload %d bytes", len(p))
	}
	pkt, err := proto.DecodePacket(p[2:])
	if err == nil {
		pkt.Prog = int(binary.BigEndian.Uint16(p))
	}
	return pkt, err
}

func nodeDownPayload(dead int) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(dead))
}

func parseNodeDown(p []byte) (int, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("netnode: node-down payload %d bytes", len(p))
	}
	return int(binary.BigEndian.Uint32(p)), nil
}

func appendStats(buf []byte, inPlace, reissues, drained int64) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(inPlace))
	buf = binary.BigEndian.AppendUint64(buf, uint64(reissues))
	return binary.BigEndian.AppendUint64(buf, uint64(drained))
}

func parseStats(p []byte) (inPlace, reissues, drained int64, err error) {
	if len(p) != 24 {
		return 0, 0, 0, fmt.Errorf("netnode: stats payload %d bytes", len(p))
	}
	inPlace = int64(binary.BigEndian.Uint64(p))
	reissues = int64(binary.BigEndian.Uint64(p[8:]))
	drained = int64(binary.BigEndian.Uint64(p[16:]))
	if reissues < 0 || inPlace < reissues || drained < 0 {
		return 0, 0, 0, fmt.Errorf("netnode: stats report %d/%d/%d", inPlace, reissues, drained)
	}
	return inPlace, reissues, drained, nil
}
