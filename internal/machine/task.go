package machine

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/sim"
)

// taskState is the lifecycle of a resident task.
type taskState int

const (
	// taskReady: queued for execution.
	taskReady taskState = iota
	// taskRunning: a reduction pass is in progress (its completion event is
	// scheduled).
	taskRunning
	// taskWaiting: blocked on outstanding child results (§4.2 "If cannot
	// proceed, suspend the task").
	taskWaiting
	// taskReturning: reduced to a value; awaiting the result ack.
	taskReturning
	// taskAborted: killed; kept only as a tombstone until dropped.
	taskAborted
)

func (s taskState) String() string {
	switch s {
	case taskReady:
		return "ready"
	case taskRunning:
		return "running"
	case taskWaiting:
		return "waiting"
	case taskReturning:
		return "returning"
	case taskAborted:
		return "aborted"
	default:
		return fmt.Sprintf("taskState(%d)", int(s))
	}
}

// childRef tracks one spawned child (one replica of one demand).
type childRef struct {
	key proto.TaskKey
	// gen is the generation of the incarnation currently expected; stale
	// placement acks (older generations) are ignored.
	gen uint64
	// dest is where the child settled; checkpoint.PendingDest while the
	// placement ack is outstanding (Figure 6 states b/d).
	dest proto.ProcID
	// ackTimer fires if no placement ack arrives (state-b reissue).
	ackTimer sim.Timer
	// retries counts placement attempts.
	retries int
	// returned marks that this replica's result has been received (vote
	// bookkeeping; duplicates are ignored).
	returned bool
	// vote is the value this replica returned.
	vote expr.Value
}

// holeRec tracks one demand slot of a task: the children spawned for it
// (one, or R replicas) and the agreed value once filled.
type holeRec struct {
	id       int
	children []*childRef
	filled   bool
	value    expr.Value
}

// child returns the hole's record of the given child, or nil.
func (h *holeRec) child(key proto.TaskKey) *childRef {
	for _, c := range h.children {
		if c.key == key {
			return c
		}
	}
	return nil
}

// majority returns the value agreed by more than half of the replicas, if
// any — the §5.3 asynchronous majority vote. For single-copy holes the first
// returned value wins immediately.
func (h *holeRec) majority() (expr.Value, bool) {
	n := len(h.children)
	need := n/2 + 1
	for i, a := range h.children {
		if !a.returned {
			continue
		}
		count := 1
		for j := i + 1; j < n; j++ {
			b := h.children[j]
			if b.returned && a.vote.Equal(b.vote) {
				count++
			}
		}
		if count >= need {
			return a.vote, true
		}
	}
	return nil, false
}

// returnedCount reports how many replicas have answered.
func (h *holeRec) returnedCount() int {
	n := 0
	for _, c := range h.children {
		if c.returned {
			n++
		}
	}
	return n
}

// task is one resident task instance.
//
// Hole records are a dense slice indexed by demand id rather than a map:
// demand ids are allocated by the task's own monotone counter (nextID), so
// they are small, unique, and created in ascending order — indexing the
// slice is the map lookup, and iterating it is the sorted walk abortGen
// used to pay a sort.Ints for. The fills and prefill maps are lazy: most
// tasks are leaves that never receive either.
type task struct {
	pkt   *proto.TaskPacket
	state taskState

	// Evaluation state: the evaluator's opaque blocked-task state (nil =
	// no pass has run yet), demand counter, and the fills accumulated
	// since the last pass.
	residual     lang.TaskState
	nextID       int
	pendingFills map[int]expr.Value

	// holes[id] records the children spawned for demand id (nil = the
	// demand was never issued here).
	holes    []*holeRec
	unfilled int // demanded-but-unfilled hole count

	// prefill holds inherited orphan results for demands this task has not
	// issued yet (§4.1 cases 4/5: "the answer is already there"); consumed
	// at demand time without spawning.
	prefill map[int]expr.Value

	// stepsSpent accumulates reduction steps, for waste accounting.
	stepsSpent int64

	// passOut/passSt park the in-flight pass outcome between runPass and
	// finishPass, and finishFn is the reusable completion closure (see
	// runPass: one pass per task is in flight at a time).
	passOut  lang.Outcome
	passSt   lang.TaskState
	finishFn func()

	// value is the final result once reduced (taskReturning).
	value expr.Value
	// resultTimer guards the result ack; resultTries counts retries.
	resultTimer sim.Timer
	resultTries int
	// escalated marks that the result has been handed to the recovery
	// policy (orphan escalation); the declare-time fail-fast pass must not
	// hand it over again.
	escalated bool

	// isHostRoot marks the host pseudo-task that owns the program
	// invocation: completing it ends the run.
	isHostRoot bool
}

func newTask(pkt *proto.TaskPacket) *task {
	return &task{pkt: pkt, state: taskReady}
}

// holeAt returns the record for id, or nil if the demand was never issued.
func (t *task) holeAt(id int) *holeRec {
	if id < 0 || id >= len(t.holes) {
		return nil
	}
	return t.holes[id]
}

// addFill records a result value for the next resume pass.
func (t *task) addFill(id int, v expr.Value) {
	if t.pendingFills == nil {
		t.pendingFills = make(map[int]expr.Value)
	}
	t.pendingFills[id] = v
}

// addPrefill buffers an inherited result for a not-yet-issued demand.
func (t *task) addPrefill(id int, v expr.Value) {
	if t.prefill == nil {
		t.prefill = make(map[int]expr.Value)
	}
	t.prefill[id] = v
}

// takePrefill consumes a buffered inherited result, if present.
func (t *task) takePrefill(id int) (expr.Value, bool) {
	v, ok := t.prefill[id]
	if ok {
		delete(t.prefill, id)
	}
	return v, ok
}

// cancelTimers stops every timer the task owns (abort/death cleanup).
func (t *task) cancelTimers() {
	for _, h := range t.holes {
		if h == nil {
			continue
		}
		for _, c := range h.children {
			c.ackTimer.Stop()
		}
	}
	t.resultTimer.Stop()
}
