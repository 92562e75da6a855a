package machine

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/balance"
	"repro/internal/checkpoint"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/trace"
)

// proc is one processor of the machine (or the host pseudo-processor).
// It is single-threaded: all methods run inside kernel events.
//
// The per-neighbor and per-peer bookkeeping (faulty, nbGrad) is
// ProcID-indexed slices rather than maps: processor ids are dense small
// integers, and these tables sit on the failure-detection and placement hot
// paths. TestSliceStateMatchesMapSemantics pins the map semantics the
// slices replace (absent key = not faulty / MaxGradient).
type proc struct {
	id     proto.ProcID
	m      *Machine
	isHost bool

	// Shard pinning: every event this processor owns dispatches on shard
	// sc, through kernel k. idx is the kernel owner index (id, or n for the
	// host).
	k   *sim.Kernel
	sc  *shardCtx
	idx int

	// rng is the processor's private randomness stream: per-processor
	// rather than per-kernel so the draw sequence is independent of which
	// processors share a shard.
	rng *rand.Rand

	// genSeq and repSeq drive the processor's private generation and
	// replica-lineage id streams (strided by idx so ids are unique
	// machine-wide without shared counters).
	genSeq uint64
	repSeq uint64

	// failedAt is the injected failure time (-1 = never failed), with the
	// dispatch position of the injection for the detection-latency merge.
	failedAt sim.Time
	failSeg  int
	failKey  sim.Key

	dead    bool
	corrupt bool

	tasks  map[proto.TaskKey]*task
	readyQ []proto.TaskKey
	busy   bool

	store  *checkpoint.Store
	policy recovery.Policy

	faulty    []bool // indexed by ProcID; the host is assumed reliable
	faultyN   int    // count of true entries in faulty (placement fast path)
	neighbors []proto.ProcID

	// Gradient-model state: last gossiped value per neighbor (MaxGradient
	// until heard), last value we sent (to gossip only on change).
	nbGrad       []int
	lastSentGrad int

	// det watches the neighbors' heartbeats; beats[i] is this processor's
	// own stream to neighbors[i], which that neighbour's detector reads.
	// ticking is set once a stream into this processor stopped and its tick
	// chain started (arm); nextBeat is then when the next tick is due.
	det      detector
	beats    []*beatLink
	ticking  bool
	nextBeat sim.Time

	// relayBuf buffers orphan results for twins whose placement is not yet
	// acknowledged (§4.1 "Having the grandparent relay partial results").
	relayBuf map[proto.TaskKey][]*proto.Result

	// hostRelayed marks failures this processor has already announced to
	// the host console, so inheriting console duty (see relaysToHost)
	// relays each failure at most once.
	hostRelayed []bool

	hbTimer     sim.Timer
	gossipTimer sim.Timer

	// hbFn and gossipFn are the periodic tick closures, built once so
	// rescheduling a tick does not allocate a fresh closure every period;
	// armFn is the Wake that starts the heartbeat chain.
	hbFn     func()
	gossipFn func()
	armFn    func()

	// stepsDone counts reduction steps executed here (load accounting).
	stepsDone int64

	// holeSlab and childSlab are bump allocators for the per-demand hole
	// and child records. Both record kinds are proc-private — a task lives
	// on exactly one processor and recovery reissues build fresh tasks on
	// the surviving side — so batching them into chunks replaces one small
	// heap allocation per spawned demand with one per chunk. Appends never
	// move earlier entries (a full chunk is abandoned, not grown), so
	// pointers into a slab stay valid for the record's whole life.
	holeSlab  []holeRec
	childSlab []childRef
}

// recSlabChunk sizes the next slab chunk: doubling from 8 up to 64 keeps
// lightly loaded processors near the footprint of individual allocations
// while busy ones amortize 64 records per chunk.
func recSlabChunk(prev int) int {
	n := prev * 2
	if n < 8 {
		n = 8
	}
	if n > 64 {
		n = 64
	}
	return n
}

// newHole draws a zeroed hole record for id from the proc's slab.
func (p *proc) newHole(id int) *holeRec {
	if len(p.holeSlab) == cap(p.holeSlab) {
		p.holeSlab = make([]holeRec, 0, recSlabChunk(cap(p.holeSlab)))
	}
	p.holeSlab = append(p.holeSlab, holeRec{id: id})
	return &p.holeSlab[len(p.holeSlab)-1]
}

// newChildRef draws a zeroed child record from the proc's slab.
func (p *proc) newChildRef(key proto.TaskKey) *childRef {
	if len(p.childSlab) == cap(p.childSlab) {
		p.childSlab = make([]childRef, 0, recSlabChunk(cap(p.childSlab)))
	}
	p.childSlab = append(p.childSlab, childRef{key: key})
	return &p.childSlab[len(p.childSlab)-1]
}

// holeFor returns t's record for id, drawing it from the proc's slab on
// first use.
func (p *proc) holeFor(t *task, id int) *holeRec {
	for id >= len(t.holes) {
		t.holes = append(t.holes, nil)
	}
	if h := t.holes[id]; h != nil {
		return h
	}
	h := p.newHole(id)
	t.holes[id] = h
	return h
}

func newProc(id proto.ProcID, m *Machine, isHost bool) *proc {
	p := &proc{
		id:           id,
		m:            m,
		isHost:       isHost,
		tasks:        make(map[proto.TaskKey]*task),
		store:        checkpoint.NewStore(),
		faulty:       make([]bool, m.n),
		nbGrad:       make([]int, m.n),
		relayBuf:     make(map[proto.TaskKey][]*proto.Result),
		lastSentGrad: -1,
	}
	for i := range p.nbGrad {
		p.nbGrad[i] = balance.MaxGradient
	}
	if isHost {
		p.neighbors = []proto.ProcID{0}
	} else {
		for _, nb := range m.cfg.Topo.Neighbors(toNode(id)) {
			p.neighbors = append(p.neighbors, proto.ProcID(nb))
		}
		p.det = newDetector(id, p.neighbors, m.cfg.HeartbeatEvery, m.hops)
	}
	p.hbFn = p.heartbeatTick
	p.gossipFn = p.gossipTick
	p.armFn = p.arm
	p.policy = m.cfg.Scheme.New(p)
	return p
}

// --- balance.View ---

// Self implements balance.View and recovery.Ops.
func (p *proc) Self() proto.ProcID { return p.id }

// Size implements balance.View.
func (p *proc) Size() int { return p.m.n }

// QueueLen implements balance.View: ready tasks plus the one running.
func (p *proc) QueueLen() int {
	n := len(p.readyQ)
	if p.busy {
		n++
	}
	return n
}

// Neighbors implements balance.View.
func (p *proc) Neighbors() []proto.ProcID { return p.neighbors }

// NeighborGradient implements balance.View.
func (p *proc) NeighborGradient(q proto.ProcID) int {
	if q >= 0 && int(q) < len(p.nbGrad) {
		return p.nbGrad[q]
	}
	return balance.MaxGradient
}

// isFaulty reports whether q is believed failed. Ids outside the processor
// range (the host, pending placements) are never faulty.
func (p *proc) isFaulty(q proto.ProcID) bool {
	return q >= 0 && int(q) < len(p.faulty) && p.faulty[q]
}

// IsFaulty implements balance.View and part of recovery.Ops.
func (p *proc) IsFaulty(q proto.ProcID) bool { return p.isFaulty(q) }

// FaultyCount implements balance's optional liveView extension: the number
// of processors this one believes failed, kept exactly in sync with the
// faulty bitmap by declareFaulty.
func (p *proc) FaultyCount() int { return p.faultyN }

// Rand implements balance.View.
func (p *proc) Rand() *rand.Rand { return p.rng }

// freshRep allocates a replica lineage id (never 0; 0 means the original
// lineage). The stream is private to this processor and strided by its
// owner index, so ids are machine-unique with no cross-shard counter.
func (p *proc) freshRep() proto.Rep {
	p.repSeq++
	return proto.Rep(p.repSeq*uint64(p.m.n+2) + uint64(p.idx))
}

// freshGen allocates an incarnation generation (never 0; 0 means "any"),
// from the same kind of private strided stream as freshRep.
func (p *proc) freshGen() uint64 {
	p.genSeq++
	return p.genSeq*uint64(p.m.n+2) + uint64(p.idx)
}

// --- recovery.Ops ---

// Store implements recovery.Ops.
func (p *proc) Store() *checkpoint.Store { return p.store }

// ResidentTaskKeys implements recovery.Ops.
func (p *proc) ResidentTaskKeys() []proto.TaskKey {
	out := make([]proto.TaskKey, 0, len(p.tasks))
	for k, t := range p.tasks {
		if t.state != taskAborted {
			out = append(out, k)
		}
	}
	slices.SortFunc(out, proto.TaskKey.Compare)
	return out
}

// TaskWaitingOnHole implements recovery.Ops.
func (p *proc) TaskWaitingOnHole(key proto.TaskKey, holeID int) bool {
	t, ok := p.tasks[key]
	if !ok || t.state == taskAborted {
		return false
	}
	h := t.holeAt(holeID)
	return h != nil && !h.filled
}

// UnfilledHoles implements recovery.Ops.
func (p *proc) UnfilledHoles(key proto.TaskKey) int {
	t, ok := p.tasks[key]
	if !ok || t.state == taskAborted {
		return -1
	}
	return t.unfilled
}

// Defer implements recovery.Ops: fn runs on this processor's own shard
// kernel after delay ticks, which keeps paced recovery decisions on the
// owning shard. A processor that dies before the timer fires does nothing —
// its checkpoints are somebody else's problem by then.
func (p *proc) Defer(delay int64, fn func()) {
	if delay < 1 {
		delay = 1
	}
	p.k.After(sim.Time(delay), func() {
		if p.dead {
			return
		}
		fn()
	})
}

// IsKnownFaulty implements recovery.Ops.
func (p *proc) IsKnownFaulty(q proto.ProcID) bool { return p.isFaulty(q) }

// Metrics implements recovery.Ops. The counters are the owning shard's;
// they merge commutatively at Finish.
func (p *proc) Metrics() *trace.Metrics { return &p.sc.metrics }

// Log implements recovery.Ops.
func (p *proc) Log(kind trace.Kind, task fmt.Stringer, note string) {
	label := ""
	if task != nil {
		label = task.String()
	}
	p.m.log(p.id, kind, label, note)
}

// DropResult implements recovery.Ops.
func (p *proc) DropResult(res *proto.Result, stranded bool) {
	if stranded {
		p.sc.metrics.Stranded++
		p.m.log(p.id, trace.KStrand, res.Child.String(), "no live ancestor")
		return
	}
	p.sc.metrics.LateResults++
	p.m.log(p.id, trace.KLateResult, res.Child.String(), "discarded")
}

// Respawn implements recovery.Ops: re-inject a retained packet (rollback
// reissue or splice twin). The parent's hole record is re-armed so the new
// incarnation's placement and result are tracked like the original's.
func (p *proc) Respawn(pkt *proto.TaskPacket) {
	parent, ok := p.tasks[pkt.Parent.Task]
	if !ok || parent.state == taskAborted {
		p.m.log(p.id, trace.KLateResult, pkt.Key.String(), "respawn skipped: parent gone")
		return
	}
	h := parent.holeAt(pkt.HoleID)
	if h == nil || h.filled {
		p.m.log(p.id, trace.KLateResult, pkt.Key.String(), "respawn skipped: hole filled")
		return
	}
	cr := h.child(pkt.Key)
	if cr == nil {
		cr = p.newChildRef(pkt.Key)
		h.children = append(h.children, cr)
	}
	cr.ackTimer.Stop()
	pkt.Gen = p.freshGen()
	pkt.ParentGen = parent.pkt.Gen
	cr.gen = pkt.Gen
	cr.dest = checkpoint.PendingDest
	cr.retries = 0
	cr.returned = false
	cr.vote = nil
	if pkt.Twin {
		p.sc.metrics.Twins++
	} else if pkt.Reissue {
		p.sc.metrics.Reissues++
	}
	p.sc.metrics.TasksSpawned++
	if !p.m.cfg.DisableCheckpoints {
		p.store.Retain(pkt)
	}
	p.route(parent, pkt, cr, nil)
}

// Abort implements recovery.Ops: kill a resident task and garbage-collect
// its abandoned relatives (§3.2). scope, when not the root stamp, is the
// reissued checkpoint whose genealogical dependents are being collected:
// the abort then propagates both down to children and up to the parent, as
// long as the relative's stamp stays inside the scope. An unscoped abort
// cascades downward only.
func (p *proc) Abort(key proto.TaskKey, scope stamp.Stamp, reason string) {
	p.abortGen(key, 0, scope, reason)
}

// abortGen kills the resident task with the given key if its generation
// matches (gen 0 kills unconditionally — used when the caller identified the
// task locally). Generation targeting guarantees a stale abort aimed at an
// abandoned incarnation can never hit a reissued or twin replacement that
// reuses the stamp; a missed orphan dies lazily when its result proves
// undeliverable.
func (p *proc) abortGen(key proto.TaskKey, gen uint64, scope stamp.Stamp, reason string) {
	t, ok := p.tasks[key]
	if !ok || t.state == taskAborted {
		return
	}
	if gen != 0 && t.pkt.Gen != gen {
		return // different incarnation; not ours to kill
	}
	t.cancelTimers()
	t.state = taskAborted
	delete(p.tasks, key)
	p.sc.metrics.TasksAborted++
	p.sc.metrics.StepsWasted += t.stepsSpent
	p.m.log(p.id, trace.KAbort, key.String(), reason)
	// Holes are stored dense by demand id, so index order is ascending id
	// order — the order the sort.Ints pass used to establish.
	for _, h := range t.holes {
		if h == nil || h.filled {
			continue
		}
		for _, c := range h.children {
			p.store.Release(c.key)
			if c.dest >= 0 && !p.faulty[c.dest] {
				p.m.send(proto.Msg{
					Type: proto.MsgAbort, From: p.id, To: c.dest,
					AbortTask: c.key, AbortGen: c.gen, AbortScope: scope,
				})
			}
		}
	}
	// Upward propagation within the scope: the parent's arguments can no
	// longer be obtained ("a processor is required to abort a task if new
	// arguments of the task cannot be obtained" — §3.2). The parent is
	// targeted by the exact incarnation that spawned us, so replacements
	// are safe.
	if !scope.IsRoot() && scope.IsAncestorOf(t.pkt.Parent.Task.Stamp) {
		pp := t.pkt.Parent.Proc
		if pp == p.id {
			p.abortGen(t.pkt.Parent.Task, t.pkt.ParentGen, scope, "dependent of reissued "+scope.String())
		} else if pp >= 0 && !p.faulty[pp] {
			p.m.send(proto.Msg{
				Type: proto.MsgAbort, From: p.id, To: pp,
				AbortTask: t.pkt.Parent.Task, AbortGen: t.pkt.ParentGen, AbortScope: scope,
			})
		}
		return
	}
	// The cascade stops here: the parent is outside the abort scope (or the
	// abort was unscoped). A live parent still counting on this incarnation
	// must learn it is gone, or its hole can never fill: an abort scope from
	// a stale checkpoint reissued on late failure detection can cut across
	// lineages and kill live-lineage tasks whose parents the scope does not
	// reach (observed as a permanent wedge under multi-fault kills). The
	// parent answers by respawning from its retained checkpoint; stale
	// notifications are filtered by generation there (see onChildAbort).
	pp := t.pkt.Parent.Proc
	if pp == noProc || (pp >= 0 && p.faulty[pp]) {
		return // no parent, or the parent's processor failed (orphan GC)
	}
	p.m.send(proto.Msg{
		Type: proto.MsgChildAbort, From: p.id, To: pp,
		AbortTask: t.pkt.Key, AbortGen: t.pkt.Gen,
	})
}

// onChildAbort handles a notification that a child incarnation this
// processor placed was aborted remotely. If the hole is still unfilled and
// the aborted incarnation is the one being tracked, the child is respawned
// from the retained checkpoint — exactly the reissue path, so placement,
// acks, and result tracking re-arm as usual.
func (p *proc) onChildAbort(msg *proto.Msg) {
	pkt, ok := p.store.Get(msg.AbortTask)
	if !ok {
		return // hole already filled (checkpoint released) or never ours
	}
	parent, ok := p.tasks[pkt.Parent.Task]
	if !ok || parent.state == taskAborted {
		return
	}
	h := parent.holeAt(pkt.HoleID)
	if h == nil || h.filled {
		return
	}
	cr := h.child(msg.AbortTask)
	if cr == nil || cr.gen != msg.AbortGen {
		return // stale: a different incarnation is already in flight
	}
	fresh := pkt.Clone()
	fresh.Reissue = true
	fresh.Twin = false
	p.m.log(p.id, trace.KReissue, fresh.Key.String(), fmt.Sprintf("child aborted on %d", msg.From))
	p.Respawn(fresh)
}

// EscalateResult implements recovery.Ops: forward an undeliverable result to
// the first believed-live ancestor, or strand it (§4.1, §5.2).
func (p *proc) EscalateResult(res *proto.Result) {
	rem := res.Remaining
	for len(rem) > 0 {
		anc := rem[0]
		rem = rem[1:]
		if anc.Proc != proto.HostID && p.faulty[anc.Proc] {
			continue
		}
		fwd := *res
		fwd.ParentTask = anc.Task
		fwd.Remaining = rem
		p.m.send(proto.Msg{Type: proto.MsgGrandResult, From: p.id, To: anc.Proc, Result: &fwd})
		// Guard the escalation with the completing task's result timer: if
		// the ancestor is silently dead too, time out and escalate further
		// (§5.2 multi-fault extension).
		if t, ok := p.tasks[res.Child]; ok {
			t.escalated = true
			t.resultTimer.Stop()
			resCopy := fwd
			ancProc := anc.Proc
			t.resultTimer = p.k.After(p.replyTimeout(DefaultResultTimeout, ancProc), func() {
				p.onGrandTimeout(res.Child, ancProc, &resCopy)
			})
		}
		return
	}
	// No live ancestor remains: the orphan is stranded (§5.2).
	p.DropResult(res, true)
	if t, ok := p.tasks[res.Child]; ok && t.state == taskReturning {
		t.cancelTimers()
		t.state = taskAborted
		delete(p.tasks, res.Child)
		p.sc.metrics.TasksAborted++
		p.sc.metrics.StepsWasted += t.stepsSpent
	}
}

// onGrandTimeout: the ancestor we escalated to never acknowledged — it is
// dead as well. Declare it and continue up the chain with the remaining
// ancestors.
func (p *proc) onGrandTimeout(child proto.TaskKey, ancProc proto.ProcID, res *proto.Result) {
	if p.dead {
		return
	}
	if _, ok := p.tasks[child]; !ok {
		return // retired meanwhile
	}
	p.declareFaulty(ancProc)
	p.EscalateResult(res)
}

// DeclareFaulty implements recovery.Ops.
func (p *proc) DeclareFaulty(q proto.ProcID) { p.declareFaulty(q) }

// relaysToHost reports whether this processor currently holds console duty:
// it is the lowest-numbered processor it does not itself believe failed.
// With processor 0 alive that is processor 0 — the paper's "operator
// console attaches at processor 0's port" (§4.3.1) — and when 0 dies the
// next live processor inherits the duty. Without the inheritance, any crash
// set containing processor 0 left the host deaf to later announcements, so
// a root task whose only checkpoint the host held was never reissued and
// the run stranded until its deadline (the documented ancestor-chain-loss
// wedge, e.g. killing {0,5} of 6 under rollback).
func (p *proc) relaysToHost() bool {
	if p.isHost {
		return false
	}
	for q := proto.ProcID(0); q < p.id; q++ {
		if !p.faulty[q] {
			return false
		}
	}
	return true
}

// relayFailuresToHost forwards every not-yet-relayed known failure to the
// host, in ascending processor order. A processor that just inherited
// console duty thereby back-fills announcements it declared before taking
// over; for processor 0 in a healthy run this degenerates to relaying
// exactly the failure that was just declared.
func (p *proc) relayFailuresToHost() {
	if p.hostRelayed == nil {
		p.hostRelayed = make([]bool, p.m.n)
	}
	for q := 0; q < p.m.n; q++ {
		if p.faulty[q] && !p.hostRelayed[q] {
			p.hostRelayed[q] = true
			p.m.send(proto.Msg{Type: proto.MsgFaultAnnounce, From: p.id, To: proto.HostID, Failed: proto.ProcID(q)})
		}
	}
}

// declareFaulty marks q failed, floods the announcement, fails fast any
// returning results addressed to q, and invokes the recovery policy.
func (p *proc) declareFaulty(q proto.ProcID) {
	if q == proto.HostID || q == p.id || p.dead || p.isFaulty(q) {
		return
	}
	p.faulty[q] = true
	p.faultyN++
	if i, ok := slices.BinarySearch(p.neighbors, q); ok && p.beats != nil {
		p.silence(i, p.dueBeat()) // no beat goes to a neighbour believed dead
	}
	p.sc.metrics.Detections++
	p.m.noteDetection(p, q)
	p.m.log(p.id, trace.KDetect, "", fmt.Sprintf("processor %d failed", q))
	// Flood the announcement (§4.2 "error-detection").
	for _, nb := range p.neighbors {
		if !p.faulty[nb] {
			p.m.send(proto.Msg{Type: proto.MsgFaultAnnounce, From: p.id, To: nb, Failed: q})
		}
	}
	if p.relaysToHost() {
		// The console relay forwards announcements to the host.
		p.relayFailuresToHost()
	}
	// Recovery hook.
	p.policy.OnFailureDetected(q)
	// Fail fast: returning tasks whose parent lived on q should not wait
	// for their result-ack timeout.
	keys := p.ResidentTaskKeys()
	for _, k := range keys {
		t, ok := p.tasks[k]
		if !ok || t.state != taskReturning || t.escalated {
			continue
		}
		if t.pkt.Parent.Proc == q {
			t.resultTimer.Stop()
			p.policy.OnResultUndeliverable(p.buildResult(t))
		}
	}
}

// RelayToTwin implements recovery.Ops: forward an orphan result to the dead
// task's twin, buffering until the twin's placement is acknowledged.
func (p *proc) RelayToTwin(res *proto.Result) {
	key := res.DeadParent.Task
	dest, ok := p.store.Dest(key)
	if !ok {
		p.DropResult(res, false)
		return
	}
	if dest == checkpoint.PendingDest || p.isFaulty(dest) {
		p.relayBuf[key] = append(p.relayBuf[key], res)
		return
	}
	fwd := *res
	fwd.ParentTask = key
	p.m.send(proto.Msg{Type: proto.MsgResult, From: p.id, To: dest, Result: &fwd})
}

// --- task execution ---

// maybeRun starts the next ready task if the processor is free.
func (p *proc) maybeRun() {
	if p.busy || p.dead {
		return
	}
	for len(p.readyQ) > 0 {
		key := p.readyQ[0]
		p.readyQ = p.readyQ[1:]
		t, ok := p.tasks[key]
		if !ok || t.state != taskReady {
			continue
		}
		p.runPass(t)
		return
	}
}

// runPass executes one reduction pass of t: compute the outcome now, charge
// its virtual cost, and apply it when the cost has elapsed.
func (p *proc) runPass(t *task) {
	t.state = taskRunning
	p.busy = true
	if p.m.tracing() {
		p.m.log(p.id, trace.KStart, t.pkt.Key.String(), t.pkt.Fn)
	}

	var out lang.Outcome
	var st lang.TaskState
	var err error
	ep := p.m.evalOf(t.pkt.Prog)
	if t.residual == nil {
		out, st, err = ep.Flatten(t.pkt.Fn, t.pkt.Args, &t.nextID)
	} else {
		// The fills map is consumed synchronously by Resume, then cleared
		// and kept: results arriving after this instant land in the same
		// (now empty) map, exactly as they landed in the fresh map the
		// pre-optimisation kernel allocated per pass.
		fills := t.pendingFills
		out, st, err = ep.Resume(t.residual, fills, &t.nextID)
		clear(fills)
	}
	if err != nil {
		p.m.failRun(p, fmt.Errorf("task %v on processor %d: %w", t.pkt.Key, p.id, err))
		return
	}
	cost := int64(out.Steps)*DefaultStepCost + int64(len(out.Demands))*DefaultSpawnOverhead
	if !p.m.cfg.DisableCheckpoints {
		// Retaining the packet copies it into the local checkpoint store —
		// a small but real cost (§2.1's "fully embedded in the evaluation
		// process").
		cost += int64(len(out.Demands)) * DefaultCheckpointCost
	}
	if cost < 1 {
		cost = 1
	}
	// The pass outcome rides in the task and the completion closure is
	// built once per task: a reduction pass is the machine's most frequent
	// event, and capturing the Outcome struct in a fresh closure per pass
	// was a measurable share of its allocation. At most one pass per task
	// is in flight (ready → running → finish), so the parking slot cannot
	// be overwritten.
	t.passOut, t.passSt = out, st
	if t.finishFn == nil {
		t.finishFn = func() { p.finishPass(t) }
	}
	p.k.After(sim.Time(cost), t.finishFn)
}

// finishPass applies the outcome of a reduction pass (parked in the task by
// runPass).
func (p *proc) finishPass(t *task) {
	out, st := t.passOut, t.passSt
	t.passOut, t.passSt = lang.Outcome{}, nil
	p.busy = false
	defer p.maybeRun()
	if p.dead || t.state != taskRunning {
		return // died or aborted mid-pass; outcome discarded
	}
	t.stepsSpent += int64(out.Steps)
	p.sc.metrics.StepsExecuted += int64(out.Steps)
	p.stepsDone += int64(out.Steps)
	if out.Done {
		v := out.Value
		if p.corrupt {
			v = perturb(v)
		}
		t.value = v
		t.state = taskReturning
		p.sc.metrics.TasksCompleted++
		if p.m.tracing() {
			p.m.log(p.id, trace.KComplete, t.pkt.Key.String(), v.String())
		}
		if t.isHostRoot {
			p.m.session.rootDone(t.pkt.Key, v)
			return
		}
		p.sendResult(t)
		return
	}
	t.residual = st
	t.state = taskWaiting
	for _, d := range out.Demands {
		p.spawnDemand(t, d)
	}
	if p.m.tracing() {
		p.m.log(p.id, trace.KBlock, t.pkt.Key.String(), fmt.Sprintf("%d outstanding", t.unfilled))
	}
	if t.unfilled == 0 {
		// Every demand was satisfied from inherited results (§4.1 case 4/5).
		t.state = taskReady
		p.readyQ = append(p.readyQ, t.pkt.Key)
	}
}

// spawnDemand creates the child task(s) for one demand: DEMAND_IT of §4.2 —
// form the packet, level-stamp it, attach parent and grandparent
// identifications, queue it to the load balancing manager, and functional
// checkpoint it.
func (p *proc) spawnDemand(t *task, d lang.Demand) {
	if v, ok := t.takePrefill(d.ID); ok {
		// The answer is already there (§4.1 case 4/5): consume the
		// inherited result; do not spawn.
		h := p.holeFor(t, d.ID)
		h.filled = true
		h.value = v
		t.addFill(d.ID, v)
		p.sc.metrics.Prefills++
		if p.m.tracing() {
			p.m.log(p.id, trace.KPrefill, t.pkt.Key.String(), fmt.Sprintf("hole %d inherited", d.ID))
		}
		return
	}
	// Replication applies only to spawns from the original lineage: a
	// replica executes its whole subtree single-copy (§5.3 replicates "the
	// task packets" of a marked critical section; §5.4's TMR runs complete
	// copies of the program). Re-replicating inside replicas would compound
	// to R^depth copies.
	reps := 1
	if t.pkt.Key.Rep == 0 {
		reps = p.m.replicasFor(d.Fn)
	}
	h := p.holeFor(t, d.ID)
	childStamp := t.pkt.Key.Stamp.Child(uint32(d.ID))
	// Replicas must land on distinct processors where possible: "Copies of
	// each instruction are carefully distributed so that each copy is
	// executed by a different processor" (§5.4's TMR model, adopted for
	// §5.3 replication).
	var avoid map[proto.ProcID]bool
	if reps > 1 {
		avoid = make(map[proto.ProcID]bool, reps)
	}
	for r := 0; r < reps; r++ {
		rep := t.pkt.Key.Rep
		if reps > 1 {
			rep = p.freshRep()
		}
		pkt := &proto.TaskPacket{
			Key:       proto.TaskKey{Stamp: childStamp, Rep: rep},
			Gen:       p.freshGen(),
			ParentGen: t.pkt.Gen,
			Fn:        d.Fn,
			Args:      d.Args,
			Parent:    proto.Addr{Proc: p.id, Task: t.pkt.Key},
			HoleID:    d.ID,
			Replicas:  reps,
			Prog:      t.pkt.Prog,
		}
		pkt.Ancestors = ancestorChain(t.pkt, p.m.cfg.AncestorDepth)
		cr := p.newChildRef(pkt.Key)
		cr.gen, cr.dest = pkt.Gen, checkpoint.PendingDest
		h.children = append(h.children, cr)
		p.sc.metrics.TasksSpawned++
		if p.m.tracing() {
			p.m.log(p.id, trace.KSpawn, pkt.Key.String(), fmt.Sprintf("%s by %v", d.Fn, t.pkt.Key))
		}
		if !p.m.cfg.DisableCheckpoints {
			p.store.Retain(pkt)
			p.sc.metrics.Checkpoints++
			if p.m.tracing() {
				p.m.log(p.id, trace.KCheckpoint, pkt.Key.String(), "")
			}
		}
		chosen := p.route(t, pkt, cr, avoid)
		if avoid != nil {
			avoid[chosen] = true
		}
	}
	t.unfilled++
}

// ancestorChain derives a child's ancestor addresses from its parent's
// packet: [parent's parent, parent's grandparent, ...], truncated to
// depth-1 entries (§5.2).
func ancestorChain(parentPkt *proto.TaskPacket, depth int) []proto.Addr {
	keep := depth - 1
	if keep <= 0 {
		return nil
	}
	chain := make([]proto.Addr, 0, keep)
	if parentPkt.Parent.Proc != noProc {
		chain = append(chain, parentPkt.Parent)
	}
	for _, a := range parentPkt.Ancestors {
		if len(chain) >= keep {
			break
		}
		chain = append(chain, a)
	}
	return chain
}

// route sends a packet toward its execution site and arms the placement-ack
// timeout (Figure 6 state b: no ack means reissue). avoid lists processors
// that replicas of the same demand already occupy; route makes a bounded
// effort to pick elsewhere. It returns the chosen (first-hop) destination.
// The timeout is sized to that destination: a direct placement settles
// there, and a hop-by-hop one within the gradient's TTL of it, well inside
// the constant.
func (p *proc) route(parent *task, pkt *proto.TaskPacket, cr *childRef, avoid map[proto.ProcID]bool) proto.ProcID {
	dest, hops := p.firstHop(pkt, cr, avoid)
	cr.ackTimer.Stop()
	cr.ackTimer = p.k.After(p.replyTimeout(DefaultAckTimeout, dest), func() {
		p.onAckTimeout(parent, pkt, cr)
	})
	if dest == p.id {
		p.settle(pkt)
	} else {
		p.m.send(proto.Msg{Type: proto.MsgTask, From: p.id, To: dest, Task: pkt, Hops: hops})
	}
	return dest
}

// firstHop picks where route sends the packet — this processor itself means
// it settles here — and the hop count it leaves with. The host never keeps a
// packet: the operator console attaches at processor 0's port.
func (p *proc) firstHop(pkt *proto.TaskPacket, cr *childRef, avoid map[proto.ProcID]bool) (proto.ProcID, int) {
	if cr.retries >= 3 && !p.isHost {
		// Placement escape hatch: repeated unacknowledged placements mean
		// the policy keeps choosing a destination that drops the packet or
		// hosts a foreign incarnation of the same stamp (deterministic
		// policies re-pick it forever). Scatter uniformly among live
		// processors instead (balance.Random's draw: one Intn over the live
		// count, from this processor's private stream).
		return balance.NewRandom().PickDest(p, pkt.Key), 0
	}
	if p.m.cfg.Placement.Mode() == balance.Direct {
		dest := p.m.cfg.Placement.PickDest(p, pkt.Key)
		for tries := 0; avoid != nil && avoid[dest] && tries < 8; tries++ {
			dest = p.m.cfg.Placement.PickDest(p, pkt.Key)
		}
		if p.isHost && dest == p.id {
			dest = 0
		}
		return dest, 0
	}
	// Hop-by-hop (gradient): the host always hands off to processor 0; a
	// packet any other processor forwards arrives having made one hop.
	if p.isHost {
		return 0, 0
	}
	return p.m.cfg.Placement.Step(p, 0), 1
}

// replyTimeout is how long a timer guarding a reply from q waits: the
// protocol constant, or the round trip to q when that is longer — past 74
// hops a 600-tick timer fires while a live addressee's reply is still in
// flight, and the sender would declare it dead.
func (p *proc) replyTimeout(base sim.Time, q proto.ProcID) sim.Time {
	return max(base, 2*flightTime(p.m.hops(p.id, q))+1)
}

// onAckTimeout fires when a spawned packet's placement was never
// acknowledged: the packet is presumed lost in a failed processor and is
// reissued ("processor G times out and reissues a new task P" — §4.3.2
// state b).
func (p *proc) onAckTimeout(parent *task, pkt *proto.TaskPacket, cr *childRef) {
	if p.dead {
		return
	}
	if t, ok := p.tasks[parent.pkt.Key]; !ok || t != parent || parent.state == taskAborted {
		return
	}
	h := parent.holeAt(pkt.HoleID)
	if h == nil || h.filled || cr.dest != checkpoint.PendingDest {
		return
	}
	cr.retries++
	if cr.retries > DefaultSpawnRetry {
		p.m.log(p.id, trace.KAbort, pkt.Key.String(), "placement retries exhausted")
		return
	}
	p.m.log(p.id, trace.KSpawn, pkt.Key.String(), fmt.Sprintf("placement retry %d", cr.retries))
	p.route(parent, pkt, cr, nil)
}

// settle installs a packet as a resident task and acknowledges placement to
// the parent (Figure 6 state c: the parent "establishes a parent-to-child
// pointer").
func (p *proc) settle(pkt *proto.TaskPacket) {
	if p.dead {
		return
	}
	ack := proto.Msg{
		Type: proto.MsgTaskAck, From: p.id, To: pkt.Parent.Proc,
		AckTask: pkt.Key, AckParent: pkt.Parent.Task, AckGen: pkt.Gen,
		PlacedOn: p.id, AckHole: pkt.HoleID,
	}
	if existing, ok := p.tasks[pkt.Key]; ok && existing.state != taskAborted {
		// A foreign incarnation of the same logical task already lives
		// here (a reissue raced a slow original, or an orphan lineage
		// still occupies the key). Keep the incumbent and acknowledge with
		// its generation: the parent of a *different* incarnation will see
		// the mismatch, ignore the ack, and eventually scatter its retry
		// to another processor (see route's retry escape). Killing the
		// incumbent here would be unsound — generation order says nothing
		// about which lineage is the live one.
		ack.AckGen = existing.pkt.Gen
		p.m.send(ack)
		return
	}
	t := newTask(pkt)
	p.tasks[pkt.Key] = t
	p.readyQ = append(p.readyQ, pkt.Key)
	if p.m.tracing() {
		note := ""
		if pkt.Twin {
			note = "twin"
		} else if pkt.Reissue {
			note = "reissue"
		}
		p.m.log(p.id, trace.KPlace, pkt.Key.String(), note)
	}
	p.m.send(ack)
	p.maybeRun()
}

// onTaskMsg handles an arriving task packet: forward it (hop-by-hop
// placement) or settle it here.
func (p *proc) onTaskMsg(msg *proto.Msg) {
	if p.isHost {
		return // the host runs no program tasks
	}
	if p.m.cfg.Placement.Mode() == balance.HopByHop {
		next := p.m.cfg.Placement.Step(p, msg.Hops)
		if next != p.id {
			p.m.send(proto.Msg{Type: proto.MsgTask, From: p.id, To: next, Task: msg.Task, Hops: msg.Hops + 1})
			return
		}
	}
	p.settle(msg.Task)
}

// onTaskAck records a child's placement: the parent now knows where its
// functional checkpoint would need to be re-directed and where aborts go.
func (p *proc) onTaskAck(msg *proto.Msg) {
	t, ok := p.tasks[msg.AckParent]
	if !ok || t.state == taskAborted {
		// The parent is gone: the settled child is an orphan; kill exactly
		// that incarnation (rollback GC). Under splice parents do not
		// abort, so this is a rollback/none path.
		if !p.isFaulty(msg.PlacedOn) {
			p.m.send(proto.Msg{
				Type: proto.MsgAbort, From: p.id, To: msg.PlacedOn,
				AbortTask: msg.AckTask, AbortGen: msg.AckGen,
			})
		}
		return
	}
	h := t.holeAt(msg.AckHole)
	if h == nil {
		return
	}
	for _, cr := range h.children {
		if cr.key == msg.AckTask {
			if cr.gen != msg.AckGen {
				// A stale incarnation settled somewhere; our current spawn
				// is still in flight. Ignore — determinacy means the stale
				// copy's result would be just as good if it arrives first.
				return
			}
			cr.ackTimer.Stop()
			cr.dest = msg.PlacedOn
			break
		}
	}
	p.store.Settle(msg.AckTask, msg.PlacedOn)
	// Flush any orphan results buffered for a twin that just settled.
	if buf, ok := p.relayBuf[msg.AckTask]; ok {
		delete(p.relayBuf, msg.AckTask)
		for _, res := range buf {
			p.RelayToTwin(res)
		}
	}
}

// buildResult constructs the result record for a returning task.
func (p *proc) buildResult(t *task) *proto.Result {
	return &proto.Result{
		Child:      t.pkt.Key,
		ParentTask: t.pkt.Parent.Task,
		HoleID:     t.pkt.HoleID,
		Value:      t.value,
		DeadParent: t.pkt.Parent,
		Remaining:  append([]proto.Addr(nil), t.pkt.Ancestors...),
	}
}

// sendResult returns a completed task's value to its parent, guarding the
// delivery with the result-ack timeout.
func (p *proc) sendResult(t *task) {
	dest := t.pkt.Parent.Proc
	if dest != proto.HostID && p.faulty[dest] {
		// Known-dead parent: invoke the recovery policy directly.
		p.policy.OnResultUndeliverable(p.buildResult(t))
		return
	}
	res := &proto.Result{
		Child: t.pkt.Key, ParentTask: t.pkt.Parent.Task,
		HoleID: t.pkt.HoleID, Value: t.value,
	}
	p.m.send(proto.Msg{Type: proto.MsgResult, From: p.id, To: dest, Result: res})
	t.resultTimer.Stop()
	t.resultTimer = p.k.After(p.replyTimeout(DefaultResultTimeout, dest), func() { p.onResultTimeout(t) })
}

// onResultTimeout: the parent never acknowledged. Retry a bounded number of
// times, then declare the parent's processor failed and let the recovery
// policy decide the orphan's fate.
func (p *proc) onResultTimeout(t *task) {
	if p.dead {
		return
	}
	if cur, ok := p.tasks[t.pkt.Key]; !ok || cur != t || t.state != taskReturning {
		return
	}
	t.resultTries++
	if t.resultTries < p.m.cfg.ResultRetryLimit {
		p.sendResult(t)
		return
	}
	// Hand the orphan to the recovery policy before flooding the
	// announcement: under splice the grandchild result then reaches the
	// grandparent first, which creates the step-parent on demand — the
	// lazy path of §4.2 ("Create a step-parent for the grandchild if there
	// isn't one already"), case 4 of Figure 5.
	parentProc := t.pkt.Parent.Proc
	p.policy.OnResultUndeliverable(p.buildResult(t))
	p.declareFaulty(parentProc)
}

// onResultMsg handles a result delivered to this processor: fill the
// addressee's hole, vote if replicated, buffer as inheritance if the demand
// has not been issued yet, ignore duplicates, reject unknowns (§4.2's
// "forward result" / rule-of-thumb cases; Figure 5 cases 4–8).
func (p *proc) onResultMsg(msg *proto.Msg) {
	res := msg.Result
	t, ok := p.tasks[res.ParentTask]
	if !ok || t.state == taskAborted {
		p.sc.metrics.LateResults++
		p.m.log(p.id, trace.KLateResult, res.Child.String(), "unknown addressee")
		p.ackResult(msg.From, res.Child, false)
		return
	}
	if t.isHostRoot && t.state != taskWaiting && t.state != taskReady && t.state != taskRunning {
		p.ackResult(msg.From, res.Child, true)
		return
	}
	h := t.holeAt(res.HoleID)
	if h == nil {
		// The demand has not been issued yet: this task is a twin running
		// behind its predecessor; inherit the result (§4.1 case 4/5).
		t.addPrefill(res.HoleID, res.Value)
		if p.m.tracing() {
			p.m.log(p.id, trace.KResult, res.Child.String(), fmt.Sprintf("inherited for hole %d", res.HoleID))
		}
		p.ackResult(msg.From, res.Child, true)
		return
	}
	if h.filled {
		p.sc.metrics.DupResults++
		p.m.log(p.id, trace.KDupResult, res.Child.String(), "already filled")
		p.ackResult(msg.From, res.Child, true)
		return
	}
	cr := h.child(res.Child)
	if cr == nil {
		// A result from an incarnation we did not spawn (e.g. relayed from
		// an orphan of the pre-twin generation). Determinacy makes it as
		// good as our own child's.
		p.m.log(p.id, trace.KResult, res.Child.String(), "foreign incarnation accepted")
		p.fillHole(t, h, res.Value)
		p.ackResult(msg.From, res.Child, true)
		return
	}
	if cr.returned {
		p.sc.metrics.DupResults++
		p.ackResult(msg.From, res.Child, true)
		return
	}
	cr.returned = true
	cr.vote = res.Value
	cr.ackTimer.Stop()
	if len(h.children) == 1 {
		p.fillHole(t, h, res.Value)
		p.ackResult(msg.From, res.Child, true)
		return
	}
	// Replicated hole: asynchronous majority voting (§5.3) — accept as soon
	// as a majority of identical results has arrived; do not wait for the
	// slowest replica.
	if v, ok := h.majority(); ok {
		mismatches := 0
		for _, c := range h.children {
			if c.returned && !c.vote.Equal(v) {
				mismatches++
			}
		}
		if mismatches > 0 {
			p.sc.metrics.VoteMismatches += int64(mismatches)
			p.m.log(p.id, trace.KVoteMismatch, t.pkt.Key.String(),
				fmt.Sprintf("hole %d: %d corrupt outvoted", h.id, mismatches))
		}
		p.sc.metrics.Votes++
		p.m.log(p.id, trace.KVote, t.pkt.Key.String(),
			fmt.Sprintf("hole %d agreed on %s", h.id, v))
		p.fillHole(t, h, v)
	} else if h.returnedCount() == len(h.children) {
		// All replicas answered without a majority (possible only with
		// aggressive corruption): take the first answer, flagged loudly.
		p.sc.metrics.VoteMismatches++
		p.m.log(p.id, trace.KVoteMismatch, t.pkt.Key.String(),
			fmt.Sprintf("hole %d: no majority, taking first", h.id))
		p.fillHole(t, h, h.children[0].vote)
	}
	p.ackResult(msg.From, res.Child, true)
}

// fillHole records the agreed value for a demand slot and wakes the task
// when its last outstanding result arrives.
func (p *proc) fillHole(t *task, h *holeRec, v expr.Value) {
	h.filled = true
	h.value = v
	for _, c := range h.children {
		c.ackTimer.Stop()
		if p.store.Release(c.key) && p.m.tracing() {
			p.m.log(p.id, trace.KCkptRelease, c.key.String(), "")
		}
	}
	t.addFill(h.id, v)
	t.unfilled--
	if p.m.tracing() {
		p.m.log(p.id, trace.KResult, t.pkt.Key.String(), fmt.Sprintf("hole %d := %s", h.id, v))
	}
	if t.unfilled == 0 && t.state == taskWaiting {
		t.state = taskReady
		p.readyQ = append(p.readyQ, t.pkt.Key)
		p.maybeRun()
	}
}

// ackResult acknowledges a result delivery.
func (p *proc) ackResult(to proto.ProcID, child proto.TaskKey, ok bool) {
	p.m.send(proto.Msg{Type: proto.MsgResultAck, From: p.id, To: to, AckChild: child, ResultOK: ok})
}

// onResultAck retires the returning task (delivery confirmed) or hands the
// rejection to the recovery policy.
func (p *proc) onResultAck(msg *proto.Msg) {
	t, ok := p.tasks[msg.AckChild]
	if !ok || t.state != taskReturning {
		return
	}
	t.resultTimer.Stop()
	if msg.ResultOK {
		delete(p.tasks, msg.AckChild)
		return
	}
	p.policy.OnResultRejected(p.buildResult(t))
	// Whatever the policy did, the task cannot deliver its value; retire it.
	if cur, ok := p.tasks[msg.AckChild]; ok && cur == t {
		t.cancelTimers()
		delete(p.tasks, msg.AckChild)
	}
}

// onGrandResult handles an orphan result addressed to an ancestor task
// resident here (§4.2 "grandchild" case).
func (p *proc) onGrandResult(msg *proto.Msg) {
	// Always acknowledge: grand results are never retried against a live
	// processor (the rule of thumb: handle or ignore).
	p.ackResult(msg.From, msg.Result.Child, true)
	p.policy.OnGrandResult(msg.Result)
}

// onAbort kills the victim incarnation and cascades.
func (p *proc) onAbort(msg *proto.Msg) {
	p.abortGen(msg.AbortTask, msg.AbortGen, msg.AbortScope, "abort cascade")
}

// --- failure detection ---

// onFaultAnnounce merges flooded failure knowledge.
func (p *proc) onFaultAnnounce(msg *proto.Msg) {
	p.declareFaulty(msg.Failed)
}

// heartbeatTick declares the neighbors the detector reports silent. Beats
// are not its business: the run counts them in closed form (beatLink.sent),
// and declareFaulty ends the stream to a neighbour believed dead.
func (p *proc) heartbeatTick() {
	if p.dead {
		return
	}
	for _, nb := range p.det.tick(p.k.Now()) {
		p.declareFaulty(nb)
	}
	p.nextBeat += p.m.cfg.HeartbeatEvery
	p.hbTimer = p.k.At(p.nextBeat, p.hbFn)
}

// arm starts p's tick chain at its first tick the ensemble has not covered.
// It runs as a Wake, at the window barrier after a stream into p stopped.
// Until then every tick of p was a no-op: no stream into it had stopped, and
// the detector never reports a live neighbour. Nor can arming late miss a
// detection: a stream that stops at until was last heard no earlier than
// until − every, so it is reported only at a tick past until + every, while
// the barrier comes at most one lookahead horizon (one hop, < every) after
// the stop.
func (p *proc) arm() {
	if p.dead || p.ticking {
		return
	}
	p.nextBeat = p.dueBeat()
	p.ticking = true
	p.hbTimer = p.k.At(p.nextBeat, p.hbFn)
}

// dueBeat is when p's first beat not yet sent is due: the next tick of a
// running chain, and otherwise the first instant of p's schedule
// (beatPhase + k·every, k ≥ 1) whose tick would not have run yet — not
// before the covered bound, and not now if the tick due now would already
// have dispatched by the kernel's (time, source, sequence) order. That tick
// is a driver event scheduled when the stream started for k = 1, and p's
// own, scheduled a period earlier, for k ≥ 2.
func (p *proc) dueBeat() sim.Time {
	if p.ticking {
		return p.nextBeat
	}
	every := p.m.cfg.HeartbeatEvery
	first := beatPhase(p.id, every) + every
	now := p.k.Now()
	t := first
	if from := max(now, p.m.kern.Covered()); from > first {
		t += (from - first + every - 1) / every * every
	}
	if t == now {
		cur := p.k.CurrentKey()
		var ticked bool
		if t == first {
			ticked = cur.Src != sim.DriverSrc || cur.Seq >= p.m.session.startSeq
		} else {
			// p's own event dispatches first iff it was scheduled before the
			// previous tick scheduled this one. The own events that declare
			// are mostly reply timers waiting DefaultResultTimeout, which this
			// orders exactly; one waiting a longer round trip, or a result p
			// escalated to itself, that lands on a beat can miscount that
			// one beat.
			src := int32(p.idx)
			ticked = cur.Src > src || cur.Src == src && every >= DefaultResultTimeout
		}
		if ticked {
			t += every
		}
	}
	return t
}

// silence ends p's stream to neighbour i at the beat due at due and wakes
// that neighbour's detector, which until then had nothing to detect.
func (p *proc) silence(i int, due sim.Time) {
	if p.beats[i].stop(due) {
		q := p.m.procs[p.neighbors[i]]
		p.k.Wake(int32(q.idx), q.armFn)
	}
}

// --- gradient gossip ---

// gossipTick broadcasts the local gradient value when it changes (§3.3's
// gradient model substrate). Session.start arms it only under the gradient
// policy.
func (p *proc) gossipTick() {
	if p.dead {
		return
	}
	val := p.m.cfg.Placement.(*balance.Gradient).LocalGradient(p)
	if val != p.lastSentGrad {
		p.lastSentGrad = val
		for _, nb := range p.neighbors {
			if !p.faulty[nb] {
				p.m.send(proto.Msg{Type: proto.MsgLoad, From: p.id, To: nb, LoadVal: val})
			}
		}
	}
	p.gossipTimer = p.k.After(DefaultLoadGossipEvery, p.gossipFn)
}

func (p *proc) onLoad(msg *proto.Msg) {
	p.nbGrad[msg.From] = msg.LoadVal
}

// --- dispatch ---

// handle dispatches a delivered message. Dead processors never reach here
// (the machine drops their deliveries).
func (p *proc) handle(msg *proto.Msg) {
	switch msg.Type {
	case proto.MsgTask:
		p.onTaskMsg(msg)
	case proto.MsgTaskAck:
		p.onTaskAck(msg)
	case proto.MsgResult:
		p.onResultMsg(msg)
	case proto.MsgResultAck:
		p.onResultAck(msg)
	case proto.MsgGrandResult:
		p.onGrandResult(msg)
	case proto.MsgAbort:
		p.onAbort(msg)
	case proto.MsgChildAbort:
		p.onChildAbort(msg)
	case proto.MsgFaultAnnounce:
		p.onFaultAnnounce(msg)
	case proto.MsgLoad:
		p.onLoad(msg)
	default:
		// §4.2 rule of thumb: "if a processor receives a packet and cannot
		// find a proper rule to handle it, the processor simply ignores the
		// received message."
	}
}

// die makes the processor fail: it stops transmitting, loses all resident
// tasks, and (if announced) floods a final declaration. Resident tasks are
// torn down in map order: the per-task work (timer cancel, counter bumps)
// is commutative and schedules nothing, so no deterministic order is needed
// here — unlike declareFaulty's fail-fast pass, which sends messages and
// keeps the sorted walk.
func (p *proc) die(announced bool) {
	if p.dead {
		return
	}
	for _, t := range p.tasks {
		if t.state == taskAborted {
			continue
		}
		p.sc.metrics.TasksLost++
		p.sc.metrics.StepsWasted += t.stepsSpent
		t.cancelTimers()
	}
	if announced {
		// The dying gasp (§1: "must voluntarily declare itself faulty").
		for _, nb := range p.neighbors {
			p.m.send(proto.Msg{Type: proto.MsgFaultAnnounce, From: p.id, To: nb, Failed: p.id})
		}
		console := proto.ProcID(0)
		if p.id == 0 {
			console = proto.HostID
		}
		p.m.send(proto.Msg{Type: proto.MsgFaultAnnounce, From: p.id, To: console, Failed: p.id})
	}
	p.dead = true
	p.busy = false
	p.tasks = make(map[proto.TaskKey]*task)
	p.readyQ = nil
	if p.beats != nil {
		due := p.dueBeat()
		for i := range p.beats {
			p.silence(i, due)
		}
	}
	p.hbTimer.Stop()
	p.gossipTimer.Stop()
}

// perturb corrupts a value the way a faulty node with bad arithmetic would.
func perturb(v expr.Value) expr.Value {
	switch x := v.(type) {
	case expr.VInt:
		return x + 1
	case expr.VBool:
		return !x
	case expr.VStr:
		return x + "?"
	case expr.VList:
		return x.Cons(expr.VInt(0))
	default:
		return v
	}
}

func toNode(id proto.ProcID) nodeID { return nodeID(id) }
