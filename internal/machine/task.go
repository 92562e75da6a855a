package machine

import (
	"repro/internal/checkpoint"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/sim"
)

// taskState is the lifecycle of a resident task.
type taskState int32

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

// childRef tracks one spawned child (one replica of one demand).
type childRef struct {
	// Slot is the child's checkpoint while the parent holds it, and Dest
	// where the child settled (checkpoint.PendingDest: Figure 6 states b/d).
	checkpoint.Slot
	// rec is the packet this processor drew for the child: the slot and the
	// child's task share it until the child hands it back (onResultMsg).
	rec *packet
	// rep is the child's replica lineage; its stamp is the hole's (§3.1).
	rep proto.Rep
	// gen is the generation of the incarnation currently expected; stale
	// placement acks (older generations) are ignored.
	gen uint64
	// ackTimer fires if no placement ack arrives (state-b reissue).
	ackTimer sim.Timer
	// retries counts placement attempts.
	retries int32
	// returned marks that this replica's result has been received (vote
	// bookkeeping; duplicates are ignored).
	returned bool
	// vote is the value this replica returned.
	vote expr.Value
}

// holeRec tracks one demand slot of a task: the children spawned for it
// (one, or R replicas) and the agreed value once filled. The first child
// and the array children starts on are inline (proc.addChild).
type holeRec struct {
	id       int
	children []*childRef
	first    childRef
	one      [1]*childRef
	filled   bool
	// fresh marks a value the task's next resume pass has not consumed.
	fresh bool
	value expr.Value
}

// fill records the hole's agreed value for the next resume pass.
func (h *holeRec) fill(v expr.Value) {
	h.filled, h.fresh, h.value = true, true, v
}

// child returns the hole's record of the given child, or nil. The hole's
// children share their stamp, so the lineage tells them apart.
func (h *holeRec) child(key proto.TaskKey) *childRef {
	for _, c := range h.children {
		if c.rep == key.Rep {
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
// used to pay a sort.Ints for. A fill since the last pass is a hole marked
// fresh, not a map entry, and the prefill map is lazy: most tasks are
// leaves that never receive one. A task holds no pass state: the one pass
// in flight on a processor parks in its proc.
type task struct {
	pkt   *proto.TaskPacket
	state taskState
	// queued counts the ready-queue entries that name the task: one that
	// retires while an entry still names it is left to the collector.
	queued int32

	// Evaluation state: the evaluator's opaque blocked-task state (nil =
	// no pass has run yet) and demand counter.
	residual lang.TaskState
	nextID   int

	// holes[id] records the children spawned for demand id (nil = the
	// demand was never issued here).
	holes    []*holeRec
	holesBuf [2]*holeRec // holes' backing until a third demand
	unfilled int         // demanded-but-unfilled hole count

	// prefill holds inherited orphan results for demands this task has not
	// issued yet (§4.1 cases 4/5: "the answer is already there"); consumed
	// at demand time without spawning.
	prefill map[int]expr.Value

	// stepsSpent accumulates reduction steps, for waste accounting.
	stepsSpent int64

	// value is the final result once reduced (taskReturning).
	value expr.Value
	// resultTimer guards the result ack; resultTries counts retries.
	resultTimer sim.Timer
	resultTries int32
	// escalated marks that the result has been handed to the recovery
	// policy (orphan escalation); the declare-time fail-fast pass must not
	// hand it over again.
	escalated bool

	// isHostRoot marks the host pseudo-task that owns the program
	// invocation: completing it ends its request (proc.end).
	isHostRoot bool
}

// packet is a task packet with its ancestor chain inline: K = 2 carries
// one address, a deeper K spills to the heap.
type packet struct {
	proto.TaskPacket
	chain [1]proto.Addr
}

// freeList is a processor's stock of one kind of object whose death the
// protocol names (proc.retire, onResultMsg). An empty list allocates a chunk
// of them, 4 growing to 16; made counts the objects it allocated.
type freeList[T any] struct {
	free []*T
	made int
}

func (l *freeList[T]) get() *T {
	if len(l.free) == 0 {
		chunk := make([]T, min(max(l.made, 4), 16))
		l.made += len(chunk)
		for i := range chunk {
			l.free = append(l.free, &chunk[i])
		}
	}
	x := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	return x
}

func (l *freeList[T]) put(x *T) { l.free = append(l.free, x) }

// holeAt returns the record for id, or nil if the demand was never issued.
func (t *task) holeAt(id int) *holeRec {
	if id < 0 || id >= len(t.holes) {
		return nil
	}
	return t.holes[id]
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
