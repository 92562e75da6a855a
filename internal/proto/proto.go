// Package proto defines the wire-level vocabulary of the simulated
// applicative multiprocessor: processor addresses, task packets (the unit of
// functional checkpointing, §2.1), and the message types of the splice
// recovery protocol loop in §4.2 (forward result, task packet,
// error-detection) plus the supporting traffic the paper assumes exists
// (placement/result acknowledgements, heartbeats, fault announcements, load
// exchange for the gradient model).
package proto

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"repro/internal/expr"
	"repro/internal/stamp"
)

// ProcID identifies a processor. HostID (-1) is the host / super-root
// pseudo-processor of §4.3.1: the parent of all user programs, assumed
// reliable, which holds the pre-evaluation checkpoint of the root task.
type ProcID int32

// HostID is the super-root pseudo-processor.
const HostID ProcID = -1

// Letter names a processor the way the paper's figures do: A–Z for the
// first 26 processors, then P26, P27, … for larger grids (so a 6×6 mesh no
// longer renders a misleading mix of letters and proc%d). HostID renders as
// "host".
func (p ProcID) Letter() string {
	switch {
	case p == HostID:
		return "host"
	case p >= 0 && p < 26:
		return string(rune('A' + int32(p)))
	default:
		return fmt.Sprintf("P%d", int32(p))
	}
}

// Rep distinguishes replica lineages when tasks are replicated (§5.3).
// A task is uniquely keyed by (Stamp, Rep): replicas of the same logical
// application share a stamp but carry distinct Rep values; children inherit
// the Rep of their parent.
type Rep uint64

// TaskKey uniquely identifies a resident task instance.
type TaskKey struct {
	Stamp stamp.Stamp
	Rep   Rep
}

// Compare orders keys by stamp preorder, then replica: the deterministic
// iteration order of every per-processor table.
func (k TaskKey) Compare(o TaskKey) int {
	if c := k.Stamp.Compare(o.Stamp); c != 0 {
		return c
	}
	return cmp.Compare(k.Rep, o.Rep)
}

func (k TaskKey) String() string {
	if k.Rep == 0 {
		return k.Stamp.String()
	}
	return fmt.Sprintf("%s#%d", k.Stamp, k.Rep)
}

// Addr is the location of a task instance: which processor it settled on
// and which task it is. Parents record the Addr of children once placement
// is acknowledged; packets carry the ancestor Addr chain for splice
// recovery.
type Addr struct {
	Proc ProcID
	Task TaskKey
}

func (a Addr) String() string { return fmt.Sprintf("%v@%d", a.Task, a.Proc) }

// TaskPacket is the paper's task packet: "The packet contains all necessary
// information, either directly or indirectly accessible, to activate the
// child task" (§2.1). The retained copy of this struct at the parent *is*
// the functional checkpoint.
type TaskPacket struct {
	Key TaskKey
	// Gen distinguishes incarnations of the same logical task (original,
	// reissue, twin). Results are addressed by Key — determinacy makes any
	// incarnation's answer equally valid — but destructive operations
	// (aborts) are addressed by (Key, Gen) so a kill aimed at an abandoned
	// incarnation can never hit its replacement.
	Gen uint64
	// ParentGen is the generation of the parent incarnation that spawned
	// this packet; upward abort propagation targets exactly that
	// incarnation.
	ParentGen uint64
	Fn        string       // function to apply; FnIndex below names it on the wire
	Args      []expr.Value // fully evaluated arguments

	// Parent is where the result must be returned; HoleID is the demand
	// slot in the parent the result fills.
	Parent Addr
	HoleID int

	// Ancestors is the backward linkage of §4 (and its §5.2 extension):
	// Ancestors[0] is the grandparent address, Ancestors[1] the
	// great-grandparent, and so on, newest first. Packets carry up to
	// K-1 entries for ancestor-pointer depth K.
	Ancestors []Addr

	// Twin marks a splice-recovery step-parent task (§4.1). Twins reuse
	// the stamp of the dead task they replace.
	Twin bool

	// Reissue marks a rollback re-execution of a checkpointed packet (§3.2).
	Reissue bool

	// FnIndex is Fn's index in the function table of program Prog
	// (lang.Program.FuncIndex), set wherever Fn is. Code is resident on
	// every node, so the wire carries the index and the receiver resolves
	// the name from it. It fits in the padding after the flags.
	FnIndex int32

	// Replicas is the number of copies the parent spawned for this logical
	// task (1 = not replicated). Used by the §5.3 voter.
	Replicas int

	// Prog selects which loaded program the packet's Fn resolves in: in
	// service mode one machine multiplexes several request streams whose
	// programs may define clashing function names, so every packet is tagged
	// with its request's program index (children inherit their parent's).
	// Program code is resident on every node of the machine — the tag names
	// a code segment rather than shipping one — so it is not part of the
	// packet codec: a spawn frame carries it as a uvarint ahead of the packet,
	// and Msg.EncodedSize charges it there. Zero is the machine's first-loaded
	// program, which keeps one-shot runs unchanged.
	Prog int

	// encSize memoizes EncodedSize (codec.go states the rule that keeps it
	// the wire length). 0 = not yet computed (real sizes are always
	// positive).
	encSize int
}

// Clone returns a deep-enough copy: values are immutable and shared, the
// slices are fresh. Reissuing or twinning a packet must never alias the
// original's mutable slices. The copy carries no size memo: a respawn
// rewrites its generations, flags or lineage, and those change the encoding,
// so the clone is sized afresh after its last write.
func (p *TaskPacket) Clone() *TaskPacket {
	q := *p
	q.Args = append([]expr.Value(nil), p.Args...)
	q.Ancestors = append([]Addr(nil), p.Ancestors...)
	q.encSize = 0
	return &q
}

// MsgType enumerates protocol messages.
type MsgType int

// Message types. MsgTask..MsgFaultAnnounce mirror the §4.2 protocol loop;
// the rest are the machinery the paper assumes (acknowledgements, failure
// detection, load balancing, and the periodic-global-checkpoint baseline).
const (
	// MsgTask carries a task packet toward a processor (possibly multi-hop
	// under gradient routing; transient states b/d of Figure 6).
	MsgTask MsgType = iota
	// MsgTaskAck acknowledges that a task settled on Ack.Proc (state c/e of
	// Figure 6: the parent "establishes a parent-to-child pointer").
	MsgTaskAck
	// MsgResult returns a child's value to its parent ("forward result",
	// level stamp interpreted as child — §4.2).
	MsgResult
	// MsgResultAck acknowledges a result. OK=false means the addressee task
	// was unknown (completed-and-retired or aborted): the sender treats the
	// result as undeliverable.
	MsgResultAck
	// MsgGrandResult forwards an orphan result to an ancestor ("forward
	// result", level stamp interpreted as grandchild — §4.2).
	MsgGrandResult
	// MsgAbort kills a task and, transitively, its descendants (the
	// "garbage collection" of aborted subtrees, §3.2).
	MsgAbort
	// MsgFaultAnnounce floods the identity of a failed processor
	// ("error-detection" — §4.2).
	MsgFaultAnnounce
	// MsgHeartbeat is a processor's periodic beat to a neighbor. It is
	// one-way: under the fail-silent model (§1) hearing the beat is the
	// liveness evidence, so nothing answers it. On the simulator a beat is
	// counted on send but never delivered: the watcher reads its arrival off
	// the sender's fixed schedule.
	MsgHeartbeat
	// MsgLoad carries gradient-model proximity information to a neighbor.
	MsgLoad
	// MsgChildAbort tells a parent that a child incarnation it placed was
	// aborted by recovery garbage collection on a live processor. Without
	// it, an abort scope that cuts across lineages (a reissue triggered by
	// a late failure detection) can kill a live child whose parent then
	// waits on the hole forever; the parent answers by respawning the
	// child from its retained checkpoint.
	MsgChildAbort
)

var msgNames = map[MsgType]string{
	MsgTask: "task", MsgTaskAck: "task-ack", MsgResult: "result",
	MsgResultAck: "result-ack", MsgGrandResult: "grand-result",
	MsgAbort: "abort", MsgFaultAnnounce: "fault-announce",
	MsgHeartbeat: "heartbeat", MsgLoad: "load", MsgChildAbort: "child-abort",
}

func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// Result is the payload of MsgResult and MsgGrandResult.
type Result struct {
	// Child identifies the completed task instance.
	Child TaskKey
	// ParentTask is the task the result is addressed to (for MsgGrandResult
	// it is the ancestor task being asked to relay).
	ParentTask TaskKey
	// HoleID is the demand slot in the original parent.
	HoleID int
	// Value is the computed answer.
	Value expr.Value
	// DeadParent, for MsgGrandResult, names the parent task whose processor
	// failed — the task the ancestor must twin (§4.1).
	DeadParent Addr
	// Remaining, for MsgGrandResult, lists the ancestors above the
	// addressee still available for escalation if the addressee is also
	// dead (§5.2 multi-fault extension).
	Remaining []Addr
}

// Msg is one message in flight.
type Msg struct {
	Type     MsgType
	From, To ProcID

	// Payloads; exactly one is set depending on Type.
	Task      *TaskPacket
	Hops      int // MsgTask: hops traveled so far (hop-by-hop placement)
	Result    *Result
	AckTask   TaskKey // MsgTaskAck: which task settled (To learns placement)
	AckParent TaskKey // MsgTaskAck: the parent task that spawned it
	AckGen    uint64  // MsgTaskAck: generation of the settled incarnation; MsgResult: the sender's, if it let go of its packet
	PlacedOn  ProcID  // MsgTaskAck: where it settled
	AckHole   int     // MsgTaskAck: parent hole
	ResultOK  bool    // MsgResultAck: addressee known?
	// EvalErr, on a MsgResult to the host, says task Result.Child hit an
	// evaluation error, whose text Result.Value holds: the request has no
	// answer. It is the net backend's FlagFailed bit.
	EvalErr   bool
	AckChild  TaskKey // MsgResultAck: child acknowledged
	Failed    ProcID  // MsgFaultAnnounce: who failed
	AbortTask TaskKey // MsgAbort: victim
	AbortGen  uint64  // MsgAbort: only this incarnation may be killed
	// AbortScope, when not the root stamp, is the reissued checkpoint whose
	// genealogical dependents are being garbage-collected (§3.2); receivers
	// propagate the abort to relatives that are still inside the scope.
	AbortScope stamp.Stamp
	LoadVal    int // MsgLoad: sender's proximity/pressure value
}

// EncodedSize is the length of the frame the net backend writes for the
// message, which every backend charges: the frame header, then a task packet
// behind its uvarint program tag, a result, or AppendControl's bytes for the
// control kinds net carries (abort, child-abort, task-ack, fault-announce).
// A kind only the simulator sends has no frame of its own; its payload is a
// modelled 16 bytes.
func (m *Msg) EncodedSize() int {
	var buf [256]byte // sized on the stack, like a packet
	var n int
	switch {
	case m.Task != nil:
		n = len(binary.AppendUvarint(buf[:0], uint64(m.Task.Prog))) + m.Task.EncodedSize()
	case m.Result != nil:
		n = m.Result.EncodedSize()
	case m.Type == MsgAbort || m.Type == MsgChildAbort || m.Type == MsgTaskAck || m.Type == MsgFaultAnnounce:
		n = len(AppendControl(buf[:0], m))
	default:
		n = 16
	}
	return n + len(appendHeader(buf[:0], n, 0, 0, m.From, m.To))
}
