package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/balance"
	"repro/internal/checkpoint"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/topology"
	"repro/internal/trace"
)

// env is everything a processor touches outside itself. A processor holds
// no kernel, shard or machine: the simulator's shard (shardCtx) is its env in
// production, and a FIFO world with no machine is one in tests.
type env interface {
	Now() sim.Time
	After(d sim.Time, fn func()) sim.Timer
	transmit(msg proto.Msg)           // msg, From set, onto the wire; lost if To is dead on arrival
	placedHere(pkt *proto.TaskPacket) // route kept pkt, which is no message
	tracing() bool                    // whether log keeps events
	log(ev trace.Event)
	suspected(p *proc, q proto.ProcID) // p now believes q failed
	died(p *proc)
	program(i int) lang.EvalProgram // what packets tagged Prog = i run
	ended(o Outcome)                // the host's request o.Req ended (end)
}

// proc is one processor of the machine (or the host pseudo-processor).
// It is single-threaded: all methods run inside events of its env, one
// at a time.
//
// The per-neighbor and per-peer bookkeeping (faulty, nbGrad) is
// ProcID-indexed slices rather than maps: processor ids are dense small
// integers, and these tables sit on the failure-detection and placement hot
// paths. TestSliceStateMatchesMapSemantics pins the map semantics the
// slices replace (absent key = not faulty / MaxGradient).
type proc struct {
	*params
	id     proto.ProcID
	isHost bool

	// env is the processor's world and mt the counters it bumps (its
	// shard's). idx is its owner index (id, or n for the host).
	env env
	mt  *trace.Metrics
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
	failPos  dispatchPos

	dead    bool
	corrupt bool

	// readyQ[readyHead:] are the tasks queued to run, oldest first. An
	// entry runs whichever incarnation holds its key when it is popped —
	// its own unless that is aborted or returning, the tasks that leave.
	tasks     map[proto.TaskKey]*task
	readyQ    []*task
	readyHead int
	busy      bool

	// The pass in flight, parked between runPass and finishPass: its task,
	// outcome and state (busy guarantees there is at most one), and fills,
	// the values its Resume consumed. finishFn is finishPass, bound once.
	passTask *task
	passOut  lang.Outcome
	passSt   lang.TaskState
	fills    map[int]expr.Value
	finishFn func()

	store  *checkpoint.Store
	policy recovery.Policy

	faulty    []bool // indexed by ProcID; the host is assumed reliable
	faultyN   int    // count of true entries in faulty (placement fast path)
	neighbors []proto.ProcID

	// Gradient-model state: last gossiped value per neighbor (MaxGradient
	// until heard), last value we sent (to gossip only on change).
	nbGrad       []int
	lastSentGrad int

	// relayBuf buffers orphan results for twins whose placement is not yet
	// acknowledged (§4.1 "Having the grandparent relay partial results").
	relayBuf map[proto.TaskKey][]*proto.Result

	// gossipTimer is the pending gossip tick; gossipFn is gossipTick, bound
	// once so rescheduling it does not allocate a closure every period.
	gossipTimer sim.Timer
	gossipFn    func()

	// stepsDone counts reduction steps executed here (load accounting).
	stepsDone int64

	// Free lists of what the protocol says dies (retire, onResultMsg): a
	// result goes back on its consumer's list, a packet on its drawer's.
	taskFree freeList[task]
	holeFree freeList[holeRec]
	pktFree  freeList[packet]
	resFree  freeList[proto.Result]
}

// newTask draws a task for pkt from the processor's free list.
func (p *proc) newTask(pkt *proto.TaskPacket) *task {
	t := p.taskFree.get()
	t.pkt, t.state = pkt, taskReady
	if t.holes == nil {
		t.holes = t.holesBuf[:0]
	}
	return t
}

// retire removes a task whose value has left (§4.2) and puts it and its hole
// records back on the free lists: every hole filled, so every checkpoint
// under it was dropped and every timer over it stopped. A task a ready-queue
// entry still names is left to the collector, since maybeRun will read it.
func (p *proc) retire(t *task) {
	delete(p.tasks, t.pkt.Key)
	if t.queued > 0 {
		return
	}
	for _, h := range t.holes {
		if h != nil {
			p.holeFree.put(h)
		}
	}
	clear(t.holes)
	*t = task{holes: t.holes[:0]}
	p.taskFree.put(t)
}

// addChild records a new child of h: a hole's first in its inline slot,
// every later one (a replica, a re-placement under a new lineage) on the
// heap.
func (p *proc) addChild(h *holeRec, key proto.TaskKey) *childRef {
	cr := &h.first
	if h.children == nil {
		h.children = h.one[:0]
		cr.rep = key.Rep
	} else {
		cr = &childRef{rep: key.Rep}
	}
	h.children = append(h.children, cr)
	return cr
}

// holeFor returns t's record for id, drawing it from the free list on first
// use. The table grows once per pass, to every id issued so far.
func (p *proc) holeFor(t *task, id int) *holeRec {
	if id >= len(t.holes) {
		t.holes = append(t.holes, make([]*holeRec, max(id+1, t.nextID)-len(t.holes))...)
	}
	if h := t.holes[id]; h != nil {
		return h
	}
	h := p.holeFree.get()
	*h = holeRec{id: id}
	t.holes[id] = h
	return h
}

// newProc builds processor id, or the host when id is proto.HostID, as
// owner idx of env, with the machine's parameters and configuration. Its
// determinism streams (the RNG here, the generation and replica counters of
// fresh) are private to it rather than per-kernel, so their consumption
// order — and hence every value drawn — is independent of which processors
// share a shard.
func newProc(id proto.ProcID, idx int, pr *params, cfg *Config, e env, mt *trace.Metrics) *proc {
	p := &proc{
		params:       pr,
		id:           id,
		isHost:       id == proto.HostID,
		env:          e,
		mt:           mt,
		idx:          idx,
		rng:          cachedRand(mixSeed(cfg.Seed, idx)),
		failedAt:     -1,
		tasks:        make(map[proto.TaskKey]*task),
		store:        checkpoint.NewStore(),
		faulty:       make([]bool, pr.n),
		nbGrad:       make([]int, pr.n),
		relayBuf:     make(map[proto.TaskKey][]*proto.Result),
		fills:        make(map[int]expr.Value),
		lastSentGrad: -1,
	}
	for i := range p.nbGrad {
		p.nbGrad[i] = balance.MaxGradient
	}
	if p.isHost {
		p.neighbors = []proto.ProcID{0}
	} else {
		for _, nb := range cfg.Topo.Neighbors(topology.NodeID(id)) {
			p.neighbors = append(p.neighbors, proto.ProcID(nb))
		}
	}
	p.gossipFn = p.gossipTick
	p.finishFn = p.finishPass
	p.policy = cfg.Scheme.New(p)
	return p
}

// --- balance.View ---

// Self implements balance.View and recovery.Ops.
func (p *proc) Self() proto.ProcID { return p.id }

// Size implements balance.View.
func (p *proc) Size() int { return p.n }

// QueueLen implements balance.View: ready tasks plus the one running.
func (p *proc) QueueLen() int {
	n := len(p.readyQ) - p.readyHead
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

// IsFaulty implements balance.View and recovery.Ops: whether q is believed
// failed. Ids outside the processor range (the host, pending placements) are
// never faulty.
func (p *proc) IsFaulty(q proto.ProcID) bool {
	return q >= 0 && int(q) < len(p.faulty) && p.faulty[q]
}

// FaultyCount implements balance's optional liveView extension: the number
// of processors this one believes failed, kept exactly in sync with the
// faulty bitmap by declareFaulty.
func (p *proc) FaultyCount() int { return p.faultyN }

// Rand implements balance.View.
func (p *proc) Rand() *rand.Rand { return p.rng }

// fresh draws the next id of one of the processor's private streams: a
// replica lineage id (repSeq; 0 means the original lineage) or an
// incarnation generation (genSeq; 0 means "any"), never 0. Strided by the
// owner index, the ids are machine-unique with no cross-shard counter.
func (p *proc) fresh(seq *uint64) uint64 {
	*seq++
	return *seq*uint64(p.n+2) + uint64(p.idx)
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

// UnfilledHoles implements recovery.Ops.
func (p *proc) UnfilledHoles(key proto.TaskKey) int {
	t, ok := p.tasks[key]
	if !ok || t.state == taskAborted {
		return -1
	}
	return t.unfilled
}

// Defer implements recovery.Ops: fn runs on this processor's own clock
// after delay ticks, which keeps paced recovery decisions on the owning
// shard. A processor that dies before the timer fires does nothing —
// its checkpoints are somebody else's problem by then.
func (p *proc) Defer(delay int64, fn func()) {
	if delay < 1 {
		delay = 1
	}
	p.env.After(sim.Time(delay), func() {
		if p.dead {
			return
		}
		fn()
	})
}

// Metrics implements recovery.Ops.
func (p *proc) Metrics() *trace.Metrics { return p.mt }

// Log implements recovery.Ops and is the one way anything writes the event
// log: an event attributed to this processor, at the current tick.
func (p *proc) Log(kind trace.Kind, task fmt.Stringer, note string) {
	if !p.env.tracing() {
		return
	}
	ev := trace.Event{Time: int64(p.env.Now()), Proc: int32(p.id), Kind: kind, Note: note}
	if task != nil {
		ev.Task = task.String()
	}
	p.env.log(ev)
}

// send transmits a message from this processor, unless it is dead (§1; the
// announced crash's "dying gasp" is sent by die before the flag is set).
func (p *proc) send(msg proto.Msg) {
	if p.dead {
		return
	}
	msg.From = p.id
	p.env.transmit(msg)
}

// DropResult implements recovery.Ops.
func (p *proc) DropResult(res *proto.Result, stranded bool) {
	if stranded {
		p.mt.Stranded++
		p.Log(trace.KStrand, res.Child, "no live ancestor")
		return
	}
	p.mt.LateResults++
	p.Log(trace.KLateResult, res.Child, "discarded")
}

// Respawn implements recovery.Ops: re-inject a retained packet (rollback
// reissue or splice twin). The parent's hole record is re-armed so the new
// incarnation's placement and result are tracked like the original's.
func (p *proc) Respawn(pkt *proto.TaskPacket) {
	parent, ok := p.tasks[pkt.Parent.Task]
	if !ok || parent.state == taskAborted {
		p.Log(trace.KLateResult, pkt.Key, "respawn skipped: parent gone")
		return
	}
	h := parent.holeAt(pkt.HoleID)
	if h == nil || h.filled {
		p.Log(trace.KLateResult, pkt.Key, "respawn skipped: hole filled")
		return
	}
	cr := h.child(pkt.Key)
	if cr == nil {
		cr = p.addChild(h, pkt.Key)
	}
	cr.ackTimer.Stop()
	pkt.Gen = p.fresh(&p.genSeq)
	pkt.ParentGen = parent.pkt.Gen
	cr.gen = pkt.Gen
	p.store.Move(&cr.Slot, checkpoint.PendingDest)
	cr.retries = 0
	cr.returned = false
	cr.vote = nil
	if pkt.Twin {
		p.mt.Twins++
	} else if pkt.Reissue {
		p.mt.Reissues++
	}
	p.mt.TasksSpawned++
	if p.acked && !p.noCkpt {
		p.store.Hold(&cr.Slot, pkt, checkpoint.PendingDest) // without acks route holds it at its destination
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
	p.mt.TasksAborted++
	p.mt.StepsWasted += t.stepsSpent
	p.Log(trace.KAbort, key, reason)
	p.abortChildren(t, scope)
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
			p.send(proto.Msg{
				Type: proto.MsgAbort, To: pp,
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
	p.send(proto.Msg{
		Type: proto.MsgChildAbort, To: pp,
		AbortTask: t.pkt.Key, AbortGen: t.pkt.Gen,
	})
}

// abortChildren drops the checkpoints of t's children still owed a value
// and aborts each child's current incarnation under scope. Holes are stored
// dense by demand id, so index order is ascending id order.
func (p *proc) abortChildren(t *task, scope stamp.Stamp) {
	for _, h := range t.holes {
		if h == nil || h.filled {
			continue
		}
		for _, c := range h.children {
			p.store.Drop(&c.Slot)
			if c.Dest >= 0 && !p.faulty[c.Dest] {
				p.send(proto.Msg{
					Type: proto.MsgAbort, To: c.Dest, AbortGen: c.gen, AbortScope: scope,
					AbortTask: proto.TaskKey{Stamp: t.pkt.Key.Stamp.Child(uint32(h.id)), Rep: c.rep},
				})
			}
		}
	}
}

// onChildAbort handles a notification that a child incarnation this
// processor placed was aborted remotely. If the hole is still unfilled and
// the aborted incarnation is the one being tracked, the child is respawned
// from the retained checkpoint — exactly the reissue path, so placement,
// acks, and result tracking restart as usual. Its checkpoint is settled on
// the sender, or still pending.
func (p *proc) onChildAbort(msg *proto.Msg) {
	sl := p.store.Find(msg.From, msg.AbortTask)
	if sl == nil {
		sl = p.store.Find(checkpoint.PendingDest, msg.AbortTask)
	}
	if sl == nil || sl.Packet.Gen != msg.AbortGen {
		return // hole already filled, never ours, or a later incarnation is in flight
	}
	fresh := sl.Packet.Clone()
	fresh.Reissue = true
	fresh.Twin = false
	if p.env.tracing() {
		p.Log(trace.KReissue, fresh.Key, fmt.Sprintf("child aborted on %d", msg.From))
	}
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
		p.send(proto.Msg{Type: proto.MsgGrandResult, To: anc.Proc, Result: &fwd})
		// Guard the escalation with the completing task's result timer: if
		// the ancestor is silently dead too, time out and escalate further
		// (§5.2 multi-fault extension).
		if t, ok := p.tasks[res.Child]; ok {
			t.escalated = true
			t.resultTimer.Stop()
			resCopy := fwd
			ancProc := anc.Proc
			t.resultTimer = p.env.After(p.replyTimeout(DefaultResultTimeout, ancProc), func() {
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
		p.mt.TasksAborted++
		p.mt.StepsWasted += t.stepsSpent
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
	p.declareFaulty(ancProc, false)
	p.EscalateResult(res)
}

// DeclareFaulty implements recovery.Ops.
func (p *proc) DeclareFaulty(q proto.ProcID) { p.declareFaulty(q, false) }

// declareFaulty marks q failed, announces it, fails fast any returning
// results addressed to q, and invokes the recovery policy. told says the
// news came from another processor's announcement rather than from p's own
// evidence (its detector, a reply timer, or q's dying gasp).
func (p *proc) declareFaulty(q proto.ProcID, told bool) {
	if q == proto.HostID || q == p.id || p.dead || p.IsFaulty(q) {
		return
	}
	p.faulty[q] = true
	p.faultyN++
	p.mt.Detections++
	p.env.suspected(p, q)
	if p.env.tracing() {
		p.Log(trace.KDetect, nil, fmt.Sprintf("processor %d failed", q))
	}
	p.announce(q, told)
	// Recovery hook.
	p.policy.OnFailureDetected(q)
	// Fail fast: returning tasks whose parent lived on q should not wait
	// for their result-ack timeout. Recovery can only disqualify a task, so
	// the ones that qualify now are all the pass visits.
	var fail []*task
	for _, t := range p.tasks {
		if t.state == taskReturning && !t.escalated && t.pkt.Parent.Proc == q {
			fail = append(fail, t)
		}
	}
	slices.SortFunc(fail, func(a, b *task) int { return a.pkt.Key.Compare(b.pkt.Key) })
	for _, t := range fail {
		if t.state == taskReturning && !t.escalated {
			t.resultTimer.Stop()
			p.policy.OnResultUndeliverable(p.buildResult(t))
		}
	}
}

// announce spreads the news that q failed (§4.2 "error-detection").
// Whoever has the news first hand tells the host directly, under both
// protocols: the host retains every request's root checkpoint (§4.3.1), so
// it must hear of any death that strands a root, whichever processors died
// with it. Among processors, the four-message protocol floods: each tells
// the neighbours it believes live as it first learns. Without acks a
// processor that never learns of a failure never reissues what it placed
// there, and a flood stops at a dead region that cuts the survivors apart;
// so the first-hand holder also tells every processor it believes live
// directly, and those told pass nothing on.
func (p *proc) announce(q proto.ProcID, told bool) {
	if p.acked {
		for _, nb := range p.neighbors {
			if !p.faulty[nb] {
				p.send(proto.Msg{Type: proto.MsgFaultAnnounce, To: nb, Failed: q})
			}
		}
	} else if !told {
		for r := range proto.ProcID(p.n) {
			if r != p.id && !p.faulty[r] {
				p.send(proto.Msg{Type: proto.MsgFaultAnnounce, To: r, Failed: q})
			}
		}
	}
	if !told && !p.isHost {
		p.send(proto.Msg{Type: proto.MsgFaultAnnounce, To: proto.HostID, Failed: q})
	}
}

// RelayToTwin implements recovery.Ops: forward an orphan result to the dead
// task's twin, buffering until the twin's placement is acknowledged.
func (p *proc) RelayToTwin(res *proto.Result) {
	key := res.DeadParent.Task
	sl := p.Retained(res.ParentTask, key)
	if sl == nil {
		p.DropResult(res, false)
		return
	}
	if sl.Dest == checkpoint.PendingDest || p.IsFaulty(sl.Dest) {
		p.relayBuf[key] = append(p.relayBuf[key], res)
		return
	}
	fwd := *res
	fwd.ParentTask = key
	p.send(proto.Msg{Type: proto.MsgResult, To: sl.Dest, Result: &fwd})
}

// Retained implements recovery.Ops. Child's parent holds the checkpoint in
// the hole that child's last stamp component names (§3.1). The parent is
// the task a result names, unless the result was escalated past a dead
// grandparent (§5.2): then it is a twin placed here, in child's lineage or
// the original one.
func (p *proc) Retained(parent, child proto.TaskKey) *checkpoint.Slot {
	up, hole := child.Stamp.Parent(), child.Stamp.Component(child.Stamp.Level()-1)
	for _, k := range [...]proto.TaskKey{parent, {Stamp: up, Rep: child.Rep}, {Stamp: up}} {
		if t := p.tasks[k]; t != nil && t.state != taskAborted && k.Stamp == up {
			if h := t.holeAt(int(hole)); h != nil {
				if c := h.child(child); c != nil && c.Packet != nil {
					return &c.Slot
				}
			}
		}
	}
	return nil
}

// --- task execution ---

// enqueue queues t to run. The queue's slice is reused: a full one first
// slides its live entries down over the popped ones.
func (p *proc) enqueue(t *task) {
	if p.readyHead > 0 && len(p.readyQ) == cap(p.readyQ) {
		n := copy(p.readyQ, p.readyQ[p.readyHead:])
		clear(p.readyQ[n:])
		p.readyQ, p.readyHead = p.readyQ[:n], 0
	}
	p.readyQ = append(p.readyQ, t)
	t.queued++
}

// maybeRun starts the next ready task if the processor is free. A pass
// that fails leaves it free, so the next ready task starts at once.
func (p *proc) maybeRun() {
	for !p.busy && !p.dead && p.readyHead < len(p.readyQ) {
		t := p.readyQ[p.readyHead]
		p.readyQ[p.readyHead] = nil
		p.readyHead++
		if p.readyHead == len(p.readyQ) {
			p.readyQ, p.readyHead = p.readyQ[:0], 0
		}
		t.queued--
		if t.state == taskAborted || t.state == taskReturning {
			t = p.tasks[t.pkt.Key]
		}
		if t != nil && t.state == taskReady {
			p.runPass(t)
		}
	}
}

// runPass executes one reduction pass of t: compute the outcome now, charge
// its virtual cost, and apply it when the cost has elapsed.
func (p *proc) runPass(t *task) {
	t.state = taskRunning
	p.busy = true
	if p.env.tracing() {
		p.Log(trace.KStart, t.pkt.Key, t.pkt.Fn)
	}

	var out lang.Outcome
	var st lang.TaskState
	var err error
	ep := p.env.program(t.pkt.Prog)
	if t.residual == nil {
		out, st, err = ep.Flatten(t.pkt.Fn, t.pkt.Args, &t.nextID)
	} else {
		// Resume consumes the fresh holes synchronously; results arriving
		// after this instant mark their holes fresh for the next pass.
		for _, h := range t.holes {
			if h != nil && h.fresh {
				p.fills[h.id] = h.value
				h.fresh = false
			}
		}
		out, st, err = ep.Resume(t.residual, p.fills, &t.nextID)
		clear(p.fills)
	}
	if err != nil {
		p.fail(t, err)
		return
	}
	cost := int64(out.Steps)*DefaultStepCost + int64(len(out.Demands))*DefaultSpawnOverhead
	if !p.noCkpt {
		// Retaining the packet copies it into the local checkpoint store —
		// a small but real cost (§2.1's "fully embedded in the evaluation
		// process").
		cost += int64(len(out.Demands)) * DefaultCheckpointCost
	}
	if cost < 1 {
		cost = 1
	}
	// The pass parks in the processor and the completion closure is built
	// once per processor: a reduction pass is the machine's most frequent
	// event. busy holds until finishPass, so the slot cannot be overwritten.
	p.passTask, p.passOut, p.passSt = t, out, st
	p.env.After(sim.Time(cost), p.finishFn)
}

// fail retires a task whose pass hit an evaluation error and frees the
// processor. The error is as determinate as a value (§2.1) — a reissue would
// hit it again — so it is no fault to recover from: the host hears of it as
// a result whose value is the error's text, flagged EvalErr, and ends the
// task's request, which tears down the rest of its tree (end).
func (p *proc) fail(t *task, err error) {
	t.cancelTimers()
	t.state = taskAborted
	delete(p.tasks, t.pkt.Key)
	p.busy = false
	p.send(proto.Msg{Type: proto.MsgResult, To: proto.HostID, EvalErr: true,
		Result: &proto.Result{Child: t.pkt.Key, Value: expr.VStr(err.Error())}})
}

// finishPass applies the outcome of the reduction pass runPass parked.
func (p *proc) finishPass() {
	t, out, st := p.passTask, p.passOut, p.passSt
	p.passTask, p.passOut, p.passSt = nil, lang.Outcome{}, nil
	p.busy = false
	defer p.maybeRun()
	if p.dead || t.state != taskRunning {
		return // died or aborted mid-pass; outcome discarded
	}
	t.stepsSpent += int64(out.Steps)
	p.mt.StepsExecuted += int64(out.Steps)
	p.stepsDone += int64(out.Steps)
	if out.Done {
		v := out.Value
		if p.corrupt {
			v = perturb(v)
		}
		t.value = v
		t.state = taskReturning
		p.mt.TasksCompleted++
		if p.env.tracing() {
			p.Log(trace.KComplete, t.pkt.Key, v.String())
		}
		if t.isHostRoot {
			p.end(t.pkt.Key, Outcome{Value: v})
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
	if p.env.tracing() {
		p.Log(trace.KBlock, t.pkt.Key, fmt.Sprintf("%d outstanding", t.unfilled))
	}
	if t.unfilled == 0 {
		// Every demand was satisfied from inherited results (§4.1 case 4/5).
		t.state = taskReady
		p.enqueue(t)
	}
}

// installRoot makes the host pseudo-task key for fn(args) of program prog and
// demands the root application: the super-root retains its packet (§4.3.1).
func (p *proc) installRoot(key proto.TaskKey, prog int, fn string, args []expr.Value) {
	ep := p.env.program(prog)
	i, _ := ep.Source().FuncIndex(fn)
	idx := int32(i)
	t := p.newTask(&proto.TaskPacket{Key: key, Fn: fn, FnIndex: idx, Parent: proto.Addr{Proc: noProc}, Prog: prog})
	t.isHostRoot = true
	t.state = taskWaiting
	t.residual = ep.RootState(0)
	t.nextID = 1
	p.tasks[key] = t
	p.spawnDemand(t, lang.Demand{ID: 0, Fn: fn, Index: idx, Args: args})
}

// end ends the host's request key at its first outcome, on every backend:
// its pseudo-task retires, and a root that never answered is aborted with
// its whole tree, whose checkpoints drop as it goes (§3.2) — an evaluation
// error is as determinate as a value (§2.1), so the rest of the tree is
// unproductive. A root whose placement is not yet acknowledged is collected
// when the ack finds no parent (onTaskAck). A later outcome finds no
// pseudo-task. The root packet, which the tree may hold, and the results the
// host took, which it never sends, go to the collector.
func (p *proc) end(key proto.TaskKey, o Outcome) {
	t := p.tasks[key]
	if t == nil {
		return
	}
	t.cancelTimers()
	p.abortChildren(t, stamp.Root())
	p.retire(t)
	p.resFree.free = nil
	o.Req = reqOf(key)
	p.env.ended(o)
}

// spawnDemand creates the child task(s) for one demand: DEMAND_IT of §4.2 —
// form the packet, level-stamp it, attach parent and grandparent
// identifications, queue it to the load balancing manager, and functional
// checkpoint it.
func (p *proc) spawnDemand(t *task, d lang.Demand) {
	if v, ok := t.takePrefill(d.ID); ok {
		// The answer is already there (§4.1 case 4/5): consume the
		// inherited result; do not spawn.
		p.holeFor(t, d.ID).fill(v)
		p.mt.Prefills++
		if p.env.tracing() {
			p.Log(trace.KPrefill, t.pkt.Key, fmt.Sprintf("hole %d inherited", d.ID))
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
		reps = p.replicasFor(d.Fn)
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
			rep = proto.Rep(p.fresh(&p.repSeq))
		}
		rec := p.pktFree.get()
		rec.TaskPacket = proto.TaskPacket{
			Key:       proto.TaskKey{Stamp: childStamp, Rep: rep},
			Gen:       p.fresh(&p.genSeq),
			ParentGen: t.pkt.Gen,
			Fn:        d.Fn,
			FnIndex:   d.Index,
			Args:      d.Args,
			Parent:    proto.Addr{Proc: p.id, Task: t.pkt.Key},
			HoleID:    d.ID,
			Ancestors: ancestorChain(rec.chain[:0], t.pkt, p.depth),
			Replicas:  reps,
			Prog:      t.pkt.Prog,
		}
		pkt := &rec.TaskPacket
		cr := p.addChild(h, pkt.Key)
		cr.gen, cr.Dest, cr.rec = pkt.Gen, checkpoint.PendingDest, rec
		p.mt.TasksSpawned++
		if p.env.tracing() {
			p.Log(trace.KSpawn, pkt.Key, fmt.Sprintf("%s by %v", d.Fn, t.pkt.Key))
		}
		if !p.noCkpt {
			if p.acked {
				p.store.Hold(&cr.Slot, pkt, checkpoint.PendingDest)
			}
			p.mt.Checkpoints++
			if p.env.tracing() {
				p.Log(trace.KCheckpoint, pkt.Key, "")
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
// packet into buf, or onto the heap when buf is too short: [parent's parent,
// parent's grandparent, ...], truncated to depth-1 entries (§5.2).
func ancestorChain(buf []proto.Addr, parentPkt *proto.TaskPacket, depth int) []proto.Addr {
	keep := depth - 1
	if keep <= 0 {
		return nil
	}
	chain := slices.Grow(buf[:0], keep)
	if parentPkt.Parent.Proc != noProc {
		chain = append(chain, parentPkt.Parent)
	}
	for _, a := range parentPkt.Ancestors {
		if len(chain) >= keep {
			break
		}
		chain = append(chain, a)
	}
	return slices.Clip(chain)
}

// route sends a packet toward its execution site. avoid lists processors
// that replicas of the same demand already occupy; route makes a bounded
// effort to pick elsewhere. It returns the chosen (first-hop) destination.
//
// Under the four-message protocol route arms the placement-ack timeout
// (Figure 6 state b: no ack means reissue), sized to that destination: a
// direct placement settles there, and a hop-by-hop one within the gradient's
// TTL of it, well inside the constant. Otherwise the destination is where
// the packet settles, and its checkpoint is retained there as it leaves, so
// Figure 6's states b and c are one: a packet lost in flight is reissued
// like a settled one, when the detector reports its destination.
func (p *proc) route(parent *task, pkt *proto.TaskPacket, cr *childRef, avoid map[proto.ProcID]bool) proto.ProcID {
	dest, hops := p.firstHop(pkt, cr, avoid)
	if p.acked {
		cr.ackTimer.Stop()
		cr.ackTimer = p.env.After(p.replyTimeout(DefaultAckTimeout, dest), func() {
			p.onAckTimeout(parent, pkt, cr)
		})
	} else if p.noCkpt {
		cr.Dest = dest
	} else {
		p.store.Hold(&cr.Slot, pkt, dest)
	}
	if dest == p.id {
		p.env.placedHere(pkt)
		p.settle(pkt)
	} else {
		p.send(proto.Msg{Type: proto.MsgTask, To: dest, Task: pkt, Hops: hops})
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
	if p.placement.Mode() == balance.Direct {
		dest := p.placement.PickDest(p, pkt.Key)
		for tries := 0; avoid != nil && avoid[dest] && tries < 8; tries++ {
			dest = p.placement.PickDest(p, pkt.Key)
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
	return p.placement.Step(p, 0), 1
}

// replyTimeout is how long a timer guarding a reply from q waits: the
// protocol constant, or the round trip to q when that is longer — past 74
// hops a 600-tick timer fires while a live addressee's reply is still in
// flight, and the sender would declare it dead.
func (p *proc) replyTimeout(base sim.Time, q proto.ProcID) sim.Time {
	return max(base, 2*flightTime(p.hops(p.id, q))+1)
}

// onAckTimeout fires when a spawned packet's placement was never
// acknowledged: the packet is presumed lost in a failed processor and is
// reissued ("processor G times out and reissues a new task P" — §4.3.2
// state b). A packet whose placement failed DefaultSpawnRetry times — a
// survivor that hosts an orphan of its stamp refuses it every time — is
// re-placed under a lineage of its own, which no orphan occupies.
func (p *proc) onAckTimeout(parent *task, pkt *proto.TaskPacket, cr *childRef) {
	if p.dead {
		return
	}
	if t, ok := p.tasks[parent.pkt.Key]; !ok || t != parent || parent.state == taskAborted {
		return
	}
	h := parent.holeAt(pkt.HoleID)
	if h == nil || h.filled || cr.Dest != checkpoint.PendingDest {
		return
	}
	cr.retries++
	if cr.retries > DefaultSpawnRetry {
		fresh := pkt.Clone()
		fresh.Key.Rep = proto.Rep(p.fresh(&p.repSeq))
		p.store.Drop(&cr.Slot)
		cr.rep = fresh.Key.Rep
		p.Log(trace.KReissue, fresh.Key, "placement retries exhausted: re-placed under a new lineage")
		p.Respawn(fresh)
		return
	}
	if p.env.tracing() {
		p.Log(trace.KSpawn, pkt.Key, fmt.Sprintf("placement retry %d", cr.retries))
	}
	p.route(parent, pkt, cr, nil)
}

// settle installs a packet as a resident task and, under the four-message
// protocol, acknowledges placement to the parent (Figure 6 state c: the
// parent "establishes a parent-to-child pointer"; without acks the parent
// established it as it sent).
func (p *proc) settle(pkt *proto.TaskPacket) {
	if p.dead {
		return
	}
	ack := proto.Msg{
		Type: proto.MsgTaskAck, To: pkt.Parent.Proc,
		AckTask: pkt.Key, AckParent: pkt.Parent.Task, AckGen: pkt.Gen,
		PlacedOn: p.id, AckHole: pkt.HoleID,
	}
	if existing, ok := p.tasks[pkt.Key]; ok && existing.state != taskAborted {
		// A foreign incarnation of the same logical task already lives
		// here (a reissue raced a slow original, or an orphan lineage
		// still occupies the key). Keep the incumbent: killing it would be
		// unsound — generation order says nothing about which lineage is
		// the live one. Under acks, acknowledge with its generation: the
		// parent of a *different* incarnation will see the mismatch, ignore
		// the ack, and eventually scatter its retry to another processor
		// (see route's retry escape). Without acks, an incumbent spawned by
		// the same parent address returns its result to the same hole, so
		// the packet is dropped; any other parent is told at once that its
		// packet was refused (onRefused), the one task-ack this protocol
		// sends.
		if p.acked {
			ack.AckGen = existing.pkt.Gen
		} else if existing.pkt.Parent == pkt.Parent {
			return
		}
		p.send(ack)
		return
	}
	t := p.newTask(pkt)
	p.tasks[pkt.Key] = t
	p.enqueue(t)
	if p.env.tracing() {
		note := ""
		if pkt.Twin {
			note = "twin"
		} else if pkt.Reissue {
			note = "reissue"
		}
		p.Log(trace.KPlace, pkt.Key, note)
	}
	if p.acked {
		p.send(ack)
	}
	p.maybeRun()
}

// onTaskMsg handles an arriving task packet: forward it (hop-by-hop
// placement) or settle it here.
func (p *proc) onTaskMsg(msg *proto.Msg) {
	if p.isHost {
		return // the host runs no program tasks
	}
	if p.placement.Mode() == balance.HopByHop {
		next := p.placement.Step(p, msg.Hops)
		if next != p.id {
			p.send(proto.Msg{Type: proto.MsgTask, To: next, Task: msg.Task, Hops: msg.Hops + 1})
			return
		}
	}
	p.settle(msg.Task)
}

// onTaskAck records a child's placement: the parent now knows where its
// functional checkpoint would need to be re-directed and where aborts go.
func (p *proc) onTaskAck(msg *proto.Msg) {
	if !p.acked {
		p.onRefused(msg)
		return
	}
	t, ok := p.tasks[msg.AckParent]
	if !ok || t.state == taskAborted {
		// The parent is gone: the settled child is an orphan; kill exactly
		// that incarnation (rollback GC). Under splice parents do not
		// abort, so this is a rollback/none path.
		if !p.IsFaulty(msg.PlacedOn) {
			p.send(proto.Msg{
				Type: proto.MsgAbort, To: msg.PlacedOn,
				AbortTask: msg.AckTask, AbortGen: msg.AckGen,
			})
		}
		return
	}
	h := t.holeAt(msg.AckHole)
	if h == nil {
		return
	}
	if cr := h.child(msg.AckTask); cr != nil {
		if cr.gen != msg.AckGen {
			// A stale incarnation settled somewhere; our current spawn is
			// still in flight. Ignore — determinacy means the stale copy's
			// result would be just as good if it arrives first.
			return
		}
		cr.ackTimer.Stop()
		p.store.Move(&cr.Slot, msg.PlacedOn)
	}
	// Flush any orphan results buffered for a twin that just settled.
	if buf, ok := p.relayBuf[msg.AckTask]; ok {
		delete(p.relayBuf, msg.AckTask)
		for _, res := range buf {
			p.RelayToTwin(res)
		}
	}
}

// onRefused re-places a packet its destination refused because a foreign
// incarnation of its stamp lives there (settle), exactly as an ack timeout
// would have: the retry count rises, so a policy that keeps choosing that
// destination scatters after three refusals.
func (p *proc) onRefused(msg *proto.Msg) {
	t, ok := p.tasks[msg.AckParent]
	if !ok || t.state == taskAborted {
		return
	}
	h := t.holeAt(msg.AckHole)
	if h == nil || h.filled {
		return
	}
	cr := h.child(msg.AckTask)
	if cr == nil || cr.gen != msg.AckGen || cr.Packet == nil {
		return // a later incarnation is already placed, or nothing to resend
	}
	p.store.Move(&cr.Slot, checkpoint.PendingDest) // the packet is unplaced again
	p.onAckTimeout(t, cr.Packet, cr)
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
// delivery with the result-ack timeout under the four-message protocol.
// Otherwise nothing comes back, so the task retires as its value leaves: a
// parent that died with the result in flight is reissued by its own parent,
// and the value was worthless (§3.4). A retiring task hands its packet back
// with the result, unless a ready-queue entry will still read it (retire):
// AckGen, its generation, tells the parent that the packet its slot holds
// has no other holder. It retires before the result leaves, so nothing here
// reads the packet once the parent may reuse it.
func (p *proc) sendResult(t *task) {
	dest := t.pkt.Parent.Proc
	if dest != proto.HostID && p.faulty[dest] {
		// Known-dead parent: invoke the recovery policy directly.
		p.policy.OnResultUndeliverable(p.buildResult(t))
		return
	}
	// Field by field: a literal would be built aside and copied in.
	res := p.resFree.get()
	res.Child, res.ParentTask, res.HoleID, res.Value = t.pkt.Key, t.pkt.Parent.Task, t.pkt.HoleID, t.value
	res.DeadParent, res.Remaining = proto.Addr{}, nil
	msg := proto.Msg{Type: proto.MsgResult, To: dest, Result: res}
	if !p.acked {
		if t.queued == 0 {
			msg.AckGen = t.pkt.Gen
		}
		p.retire(t)
		p.send(msg)
		return
	}
	p.send(msg)
	t.resultTimer.Stop()
	t.resultTimer = p.env.After(p.replyTimeout(DefaultResultTimeout, dest), func() { p.onResultTimeout(t) })
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
	if int(t.resultTries) < p.retryLimit {
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
	p.declareFaulty(parentProc, false)
}

// onResultMsg handles a result delivered to this processor: fill the
// addressee's hole, vote if replicated, buffer as inheritance if the demand
// has not been issued yet, ignore duplicates, reject unknowns (§4.2's
// "forward result" / rule-of-thumb cases; Figure 5 cases 4–8).
func (p *proc) onResultMsg(msg *proto.Msg) {
	res := msg.Result
	if msg.EvalErr {
		text, _ := res.Value.(expr.VStr)
		p.end(hostKey(reqOf(res.Child)), Outcome{Err: fmt.Errorf("task %v on processor %d: %w: %s",
			res.Child, msg.From, lang.ErrEval, strings.TrimPrefix(string(text), lang.ErrEval.Error()+": "))})
		return
	}
	defer p.resFree.put(res) // every path below copies out what it keeps
	t, ok := p.tasks[res.ParentTask]
	if !ok || t.state == taskAborted {
		p.mt.LateResults++
		p.Log(trace.KLateResult, res.Child, "unknown addressee")
		p.ackResult(msg.From, res.Child, false)
		return
	}
	h := t.holeAt(res.HoleID)
	if h == nil {
		// The demand has not been issued yet: this task is a twin running
		// behind its predecessor; inherit the result (§4.1 case 4/5).
		t.addPrefill(res.HoleID, res.Value)
		if p.env.tracing() {
			p.Log(trace.KResult, res.Child, fmt.Sprintf("inherited for hole %d", res.HoleID))
		}
		p.ackResult(msg.From, res.Child, true)
		return
	}
	if h.filled {
		p.mt.DupResults++
		p.Log(trace.KDupResult, res.Child, "already filled")
		p.ackResult(msg.From, res.Child, true)
		return
	}
	cr := h.child(res.Child)
	if cr == nil {
		// A result from an incarnation we did not spawn (e.g. relayed from
		// an orphan of the pre-twin generation). Determinacy makes it as
		// good as our own child's.
		p.Log(trace.KResult, res.Child, "foreign incarnation accepted")
		p.fillHole(t, h, res.Value)
		p.ackResult(msg.From, res.Child, true)
		return
	}
	if cr.returned {
		p.mt.DupResults++
		p.ackResult(msg.From, res.Child, true)
		return
	}
	cr.returned = true
	cr.vote = res.Value
	cr.ackTimer.Stop()
	if len(h.children) == 1 {
		p.fillHole(t, h, res.Value)
		if rec := cr.rec; rec != nil && msg.AckGen == rec.Gen {
			cr.rec = nil
			p.pktFree.put(rec) // handed back by its only other holder (sendResult)
		}
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
		p.mt.VoteMismatches += int64(mismatches)
		p.mt.Votes++
		if p.env.tracing() {
			if mismatches > 0 {
				p.Log(trace.KVoteMismatch, t.pkt.Key, fmt.Sprintf("hole %d: %d corrupt outvoted", h.id, mismatches))
			}
			p.Log(trace.KVote, t.pkt.Key, fmt.Sprintf("hole %d agreed on %s", h.id, v))
		}
		p.fillHole(t, h, v)
	} else if h.returnedCount() == len(h.children) {
		// All replicas answered without a majority (possible only with
		// aggressive corruption): take the first answer, flagged loudly.
		p.mt.VoteMismatches++
		if p.env.tracing() {
			p.Log(trace.KVoteMismatch, t.pkt.Key, fmt.Sprintf("hole %d: no majority, taking first", h.id))
		}
		p.fillHole(t, h, h.children[0].vote)
	}
	p.ackResult(msg.From, res.Child, true)
}

// fillHole records the agreed value for a demand slot and wakes the task
// when its last outstanding result arrives.
func (p *proc) fillHole(t *task, h *holeRec, v expr.Value) {
	h.fill(v)
	for _, c := range h.children {
		c.ackTimer.Stop()
		if pkt := c.Packet; p.store.Drop(&c.Slot) && p.env.tracing() {
			p.Log(trace.KCkptRelease, pkt.Key, "")
		}
	}
	t.unfilled--
	if p.env.tracing() {
		p.Log(trace.KResult, t.pkt.Key, fmt.Sprintf("hole %d := %s", h.id, v))
	}
	if t.unfilled == 0 && t.state == taskWaiting {
		t.state = taskReady
		p.enqueue(t)
		p.maybeRun()
	}
}

// ackResult acknowledges a result delivery, where results are acknowledged.
func (p *proc) ackResult(to proto.ProcID, child proto.TaskKey, ok bool) {
	if !p.acked {
		return
	}
	p.send(proto.Msg{Type: proto.MsgResultAck, To: to, AckChild: child, ResultOK: ok})
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
		p.retire(t)
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

// --- gradient gossip ---

// gossipTick broadcasts the local gradient value when it changes (§3.3's
// gradient model substrate). Session.start arms it only under the gradient
// policy.
func (p *proc) gossipTick() {
	if p.dead {
		return
	}
	val := p.placement.(*balance.Gradient).LocalGradient(p)
	if val != p.lastSentGrad {
		p.lastSentGrad = val
		for _, nb := range p.neighbors {
			if !p.faulty[nb] {
				p.send(proto.Msg{Type: proto.MsgLoad, To: nb, LoadVal: val})
			}
		}
	}
	p.gossipTimer = p.env.After(DefaultLoadGossipEvery, p.gossipFn)
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
	case proto.MsgAbort: // kill the victim incarnation and cascade
		p.abortGen(msg.AbortTask, msg.AbortGen, msg.AbortScope, "abort cascade")
	case proto.MsgChildAbort:
		p.onChildAbort(msg)
	case proto.MsgFaultAnnounce: // first hand when from the dead itself
		p.declareFaulty(msg.Failed, msg.From != msg.Failed)
	case proto.MsgLoad:
		p.nbGrad[msg.From] = msg.LoadVal
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
		p.mt.TasksLost++
		p.mt.StepsWasted += t.stepsSpent
		t.cancelTimers()
	}
	if announced {
		// The dying gasp (§1: "must voluntarily declare itself faulty").
		for _, nb := range p.neighbors {
			p.send(proto.Msg{Type: proto.MsgFaultAnnounce, To: nb, Failed: p.id})
		}
		console := proto.ProcID(0)
		if p.id == 0 {
			console = proto.HostID
		}
		p.send(proto.Msg{Type: proto.MsgFaultAnnounce, To: console, Failed: p.id})
	}
	p.dead = true
	p.busy = false
	p.tasks = make(map[proto.TaskKey]*task)
	p.readyQ, p.readyHead = nil, 0
	p.env.died(p)
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
