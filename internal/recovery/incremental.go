// Online incremental recovery: a third scheme alongside rollback (§3) and
// splice (§4). Rollback repairs a dead processor's subtree all at once — the
// detection tick reissues every topmost checkpoint and aborts every
// genealogical dependent, a stop-the-world burst for the affected subtree.
// The incremental scheme re-disperses the same checkpoints one at a time,
// prioritised by demand, so repair work is interleaved with useful work and
// unaffected requests keep flowing through the stream while the holes close.
//
// Mechanically each processor keeps a per-recovery work queue of the
// checkpoints it had settled on failed processors. The queue drains under a
// reissue budget: incrementalBudget checkpoints per drain tick, drains
// incrementalPeriod virtual ticks apart, the first drain running at
// detection time so the critical path never waits a full period. At every drain each queued entry is
// re-ranked against the *live* hole state — the demand tracker is the
// existing hole/abort protocol: results filling holes (MsgResult→fillHole)
// and scoped aborts retire or reprioritise entries between drains, so the
// queue reacts to everything that happened since the failure was detected.
//
// Drain order is deterministic: demand priority first, then checkpoint key
// (stamp preorder, then replica). Priorities:
//
//	hot  (0) — the live parent is blocked on this hole and it is the
//	           parent's LAST unfilled demand: filling it makes the parent
//	           runnable immediately. The critical path of an outstanding
//	           request.
//	warm (1) — the parent still waits on this hole but on other children
//	           too; the subtree is demanded but not rate-limiting yet.
//	moot (–) — the checkpoint was released (hole filled elsewhere), the
//	           task re-settled off the failed processor (another protocol
//	           path already recovered it), or the parent is gone (orphan
//	           subtree). Dropped without consuming budget — exactly the
//	           entries rollback's Respawn would have skipped.
//
// Each reissue carries rollback's correctness obligations, just paced: the
// respawned packet is marked Reissue and the genealogical dependents of the
// reissue point are aborted at that entry's drain tick (scoped, as in §3.2),
// so partial results under a reissued checkpoint are discarded exactly as
// rollback discards them — only later. Orphan results are handled with
// rollback's rules. Answers therefore stay observationally equivalent to
// rollback's; only the repair schedule differs.
//
// Shard invariance: the queue, its timers and every reissue decision live on
// the processor that owns the checkpoints, and pacing uses Ops.Defer, which
// schedules on that processor's own (shard-local) kernel. No cross-shard
// state is consulted, so streams are byte-identical at any shard count.
package recovery

import (
	"fmt"
	"sort"

	"repro/internal/proto"
	"repro/internal/trace"
)

// The pacing: one reissue per drain (moot entries are discarded without
// consuming it), drains eight virtual ticks apart once a queue is non-empty.
// With typical checkpoint counts per processor in the single digits this
// spreads a recovery over a few tens of ticks — long enough to interleave
// with stream work, short enough to beat ack/result timeouts by orders of
// magnitude.
const (
	incrementalBudget = 1
	incrementalPeriod = 8
)

// IncrementalScheme is the online incremental recovery scheme.
type IncrementalScheme struct{}

// Incremental returns the online incremental recovery scheme.
func Incremental() Scheme { return IncrementalScheme{} }

// Name implements Scheme.
func (IncrementalScheme) Name() string { return "incremental" }

// New implements Scheme.
func (IncrementalScheme) New(ops Ops) Policy {
	p := &incrementalPolicy{rollbackPolicy: rollbackPolicy{ops: ops, eager: true}}
	p.drainFn = p.drain
	return p
}

// incrWork is one queued repair: a checkpoint that was settled on a
// processor now known faulty. Entries are snapshotted at detection time and
// re-validated against live state at every drain.
type incrWork struct {
	key    proto.TaskKey
	failed proto.ProcID
}

// incrementalPolicy is rollback with the detection-time burst replaced by a
// paced queue: orphan results and the reissue, suppress and scoped-abort
// steps are rollback's own.
type incrementalPolicy struct {
	rollbackPolicy

	// pending is the per-recovery work queue; entries from overlapping
	// failures merge into one queue so the budget bounds total repair
	// traffic, not per-failure traffic.
	pending []incrWork
	// draining is true while a drain timer is armed (or a drain is running),
	// so overlapping failure detections feed the existing cadence instead of
	// starting a second one.
	draining bool
	drainFn  func()
}

// OnFailureDetected snapshots the topmost checkpoints settled on the failed
// processor into the work queue and starts (or feeds) the paced drain.
// Shadowed checkpoints are suppressed exactly as in rollback §3.2: their
// subtrees are regenerated by the topmost reissue.
func (p *incrementalPolicy) OnFailureDetected(failed proto.ProcID) {
	st := p.ops.Store()
	top, shadowed := st.TopmostFor(failed)
	p.suppress(shadowed, failed)
	for _, e := range top {
		p.ops.Log(trace.KDemandQueue, e.Packet.Key, fmt.Sprintf("queued: lost on %d", failed))
		p.pending = append(p.pending, incrWork{key: e.Packet.Key, failed: failed})
	}
	if len(p.pending) == 0 || p.draining {
		return
	}
	p.draining = true
	p.drain()
}

// classify ranks one queued entry against the live hole state: hot (0) when
// the parent's blocked hole is its last unfilled demand, warm (1) while the
// parent waits on other children too, moot (-1, nil packet) when nothing
// needs reissuing anymore.
func (p *incrementalPolicy) classify(w incrWork) (int, *proto.TaskPacket) {
	st := p.ops.Store()
	pkt, ok := st.Get(w.key)
	if !ok {
		return -1, nil // released: the hole was filled some other way
	}
	if dest, settled := st.Dest(w.key); !settled || dest != w.failed {
		return -1, nil // re-dispersed already by another protocol path
	}
	if !p.ops.TaskWaitingOnHole(pkt.Parent.Task, pkt.HoleID) {
		return -1, nil // parent gone: an orphan subtree, nothing demands it
	}
	if p.ops.UnfilledHoles(pkt.Parent.Task) == 1 {
		return 0, pkt
	}
	return 1, pkt
}

// drain runs one paced repair tick: re-rank every queued entry against live
// demand, discard moot entries, reissue the incrementalBudget most-demanded
// ones (with rollback's scoped dependent abort), and re-arm the timer while
// work remains.
func (p *incrementalPolicy) drain() {
	type rankedWork struct {
		w   incrWork
		pri int
		pkt *proto.TaskPacket
	}
	live := make([]rankedWork, 0, len(p.pending))
	for _, w := range p.pending {
		pri, pkt := p.classify(w)
		if pri < 0 {
			continue
		}
		live = append(live, rankedWork{w: w, pri: pri, pkt: pkt})
	}
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i], live[j]
		if a.pri != b.pri {
			return a.pri < b.pri
		}
		return a.w.key.Compare(b.w.key) < 0
	})
	n := min(incrementalBudget, len(live))
	for _, r := range live[:n] {
		p.ops.Metrics().PacedReissues++
		p.reissue(r.pkt, fmt.Sprintf("lost on %d (paced, demand %s)", r.w.failed, demandName(r.pri)))
		// The scoped abort rollback performs at detection time happens here
		// instead, per reissue point at its drain tick: dependents of the
		// reissue are regenerated by it, so their partial results are
		// abandoned (§3.2), just later.
		p.abortDependents(r.w.key.Stamp)
	}
	p.pending = p.pending[:0]
	for _, r := range live[n:] {
		p.pending = append(p.pending, r.w)
	}
	if len(p.pending) == 0 {
		p.draining = false
		return
	}
	p.ops.Defer(incrementalPeriod, p.drainFn)
}

func demandName(pri int) string {
	if pri == 0 {
		return "hot"
	}
	return "warm"
}
