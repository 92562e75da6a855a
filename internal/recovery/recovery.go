// Package recovery implements the paper's two fault-recovery schemes on top
// of functional checkpointing, plus an online incremental third:
//
//   - Rollback (§3): on failure of processor B, every processor reissues the
//     topmost checkpointed tasks it had settled on B and abandons (aborts)
//     the genealogical dependents of those reissue points. Intermediate
//     results computed by orphans are discarded.
//
//   - Splice (§4): every parent of a task lost on B regenerates a twin of
//     the dead task; orphan results that cannot reach their dead parent are
//     forwarded to the grandparent (or deeper ancestors, §5.2), which relays
//     them to the twin. Partial results are salvaged instead of discarded.
//
//   - Incremental (incremental.go): rollback's reissues, re-dispersed one
//     at a time under a paced budget, ordered by live demand — critical-path
//     holes first — so repair interleaves with useful work and unaffected
//     requests keep flowing during recovery.
//
// Policies are per-processor objects invoked by the machine at three hook
// points: a failure becomes known, a locally computed result proves
// undeliverable, and an orphan ("grandchild") result arrives for relay.
// The machine stays scheme-neutral; everything scheme-specific lives here.
package recovery

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/proto"
	"repro/internal/stamp"
	"repro/internal/trace"
)

// Ops is the view a policy has of its processor. It is implemented by the
// machine's processor type.
type Ops interface {
	// Self is this processor's id.
	Self() proto.ProcID
	// Store is the processor's functional-checkpoint table (§3.2).
	Store() *checkpoint.Store
	// ResidentTaskKeys lists live resident tasks in deterministic
	// (stamp-preorder) order.
	ResidentTaskKeys() []proto.TaskKey
	// TaskWaitingOnHole reports whether task is resident with the given
	// demand slot still unfilled.
	TaskWaitingOnHole(task proto.TaskKey, holeID int) bool
	// Respawn re-injects a retained task packet: the packet is checkpointed
	// again, re-placed by the load balancer, and its parent's hole record is
	// re-armed. The packet must carry Reissue or Twin as appropriate.
	Respawn(pkt *proto.TaskPacket)
	// Abort kills a resident task and garbage-collects its abandoned
	// relatives (§3.2). scope, when not the root stamp, bounds the upward
	// propagation: relatives are aborted only while their stamps remain
	// genealogical dependents of scope (the reissued checkpoint). Pass the
	// root stamp for a downward-only abort.
	Abort(task proto.TaskKey, scope stamp.Stamp, reason string)
	// EscalateResult forwards an undeliverable result toward the first
	// live ancestor in res.Remaining as a grandchild result (§4.2); if no
	// live ancestor remains the result is stranded (§5.2) and dropped.
	EscalateResult(res *proto.Result)
	// RelayToTwin forwards an orphan result from this (ancestor) processor
	// to the current location of the dead task's twin, buffering while the
	// twin's placement is still unacknowledged.
	RelayToTwin(res *proto.Result)
	// DeclareFaulty marks p failed (idempotent), floods the announcement,
	// and triggers OnFailureDetected locally.
	DeclareFaulty(p proto.ProcID)
	// IsKnownFaulty reports whether p is already believed failed.
	IsKnownFaulty(p proto.ProcID) bool
	// DropResult records an abandoned result (late duplicate or stranded).
	DropResult(res *proto.Result, stranded bool)
	// Log appends a trace event attributed to this processor.
	Log(kind trace.Kind, task fmt.Stringer, note string)
	// Metrics is the machine-wide counter sink.
	Metrics() *trace.Metrics
	// Defer schedules fn on this processor's own (shard-local) event kernel
	// after delay virtual ticks; the callback is dropped if the processor
	// dies first. Pacing through Defer keeps paced decisions on the owning
	// shard, which is what makes incremental recovery shard-invariant.
	Defer(delay int64, fn func())
	// UnfilledHoles is the number of demand slots the resident task still
	// waits on, or -1 when the task is gone or aborted. A parent with
	// exactly one unfilled hole is blocked on that hole alone — the
	// critical-path signal the incremental scheme drains first.
	UnfilledHoles(task proto.TaskKey) int
}

// Policy is the per-processor recovery behaviour.
type Policy interface {
	// OnFailureDetected runs once per (this processor, failed processor)
	// pair, when the failure first becomes known here.
	OnFailureDetected(failed proto.ProcID)
	// OnResultUndeliverable runs when a locally completed task's result
	// cannot reach its parent because the parent's processor failed.
	OnResultUndeliverable(res *proto.Result)
	// OnResultRejected runs when the parent's processor is alive but no
	// longer knows the addressee task (completed-and-retired, or aborted):
	// Figure 5 case 8 territory.
	OnResultRejected(res *proto.Result)
	// OnGrandResult runs when an orphan result arrives addressed to an
	// ancestor task resident here.
	OnGrandResult(res *proto.Result)
}

// Scheme constructs per-processor policies and names the scheme.
type Scheme interface {
	Name() string
	New(ops Ops) Policy
}

// --- None ---

// NoneScheme is the no-fault-tolerance baseline: checkpoints may still be
// retained (for overhead measurement) but nothing is ever recovered.
type NoneScheme struct{}

// None returns the no-recovery scheme.
func None() Scheme { return NoneScheme{} }

// Name implements Scheme.
func (NoneScheme) Name() string { return "none" }

// New implements Scheme.
func (NoneScheme) New(ops Ops) Policy { return nonePolicy{ops} }

type nonePolicy struct{ ops Ops }

func (nonePolicy) OnFailureDetected(proto.ProcID) {}

func (p nonePolicy) OnResultUndeliverable(res *proto.Result) {
	p.ops.DropResult(res, false)
}

func (p nonePolicy) OnResultRejected(res *proto.Result) {
	p.ops.DropResult(res, false)
}

func (p nonePolicy) OnGrandResult(res *proto.Result) {
	p.ops.DropResult(res, false)
}

// --- Rollback (§3) ---

// RollbackScheme implements §3: reissue topmost checkpoints, discard
// everything below them.
type RollbackScheme struct {
	// EagerAbort controls whether genealogical dependents of reissued
	// checkpoints are aborted immediately at failure-detection time
	// (the default) or left to die lazily when their results prove
	// undeliverable. The lazy mode is the A1 ablation.
	EagerAbort bool
	// ReissueShadowed disables the §3.2 topmost rule: every checkpoint on
	// the failed processor is reissued, including genealogical dependents
	// of other reissues (the paper's "not fruitful" B5 case). This is the
	// A4 ablation quantifying what the suppression saves.
	ReissueShadowed bool
}

// Rollback returns the §3 scheme with eager orphan abortion.
func Rollback() Scheme { return &RollbackScheme{EagerAbort: true} }

// RollbackLazy returns the §3 scheme without eager abortion (ablation A1).
func RollbackLazy() Scheme { return &RollbackScheme{EagerAbort: false} }

// RollbackNoSuppress returns the §3 scheme without the topmost rule
// (ablation A4): shadowed checkpoints are reissued too.
func RollbackNoSuppress() Scheme {
	return &RollbackScheme{EagerAbort: true, ReissueShadowed: true}
}

// Name implements Scheme.
func (s *RollbackScheme) Name() string {
	switch {
	case s.ReissueShadowed:
		return "rollback-nosuppress"
	case s.EagerAbort:
		return "rollback"
	default:
		return "rollback-lazy"
	}
}

// New implements Scheme.
func (s *RollbackScheme) New(ops Ops) Policy {
	return &rollbackPolicy{ops: ops, eager: s.EagerAbort, reissueShadowed: s.ReissueShadowed}
}

type rollbackPolicy struct {
	ops             Ops
	eager           bool
	reissueShadowed bool
}

// OnFailureDetected implements §3.2: "When processor C identifies the
// failure of processor B, C simply reissues all the checkpointed tasks found
// in entry B of the table" — where "the table" holds only topmost
// checkpoints, so shadowed descendants are suppressed (the B5 case), and the
// abandoned dependents are aborted for garbage collection.
func (p *rollbackPolicy) OnFailureDetected(failed proto.ProcID) {
	st := p.ops.Store()
	top, shadowed := st.TopmostFor(failed)
	if p.reissueShadowed {
		// A4 ablation: no suppression — treat every checkpoint as topmost.
		top = append(top, shadowed...)
		shadowed = nil
	}
	p.suppress(shadowed, failed)
	topStamps := make([]stamp.Stamp, 0, len(top))
	for _, e := range top {
		topStamps = append(topStamps, e.Packet.Key.Stamp)
		p.reissue(e.Packet, fmt.Sprintf("lost on %d", failed))
	}
	if p.eager {
		p.abortDependents(topStamps...)
	}
}

// suppress accounts for the shadowed checkpoints a topmost reissue
// regenerates anyway (the B5 case).
func (p *rollbackPolicy) suppress(shadowed []*checkpoint.Entry, failed proto.ProcID) {
	for _, e := range shadowed {
		p.ops.Metrics().Suppressed++
		p.ops.Log(trace.KSuppress, e.Packet.Key, fmt.Sprintf("shadowed on %d", failed))
	}
}

// reissue re-injects a copy of a retained packet, marked as a reissue.
func (p *rollbackPolicy) reissue(retained *proto.TaskPacket, note string) {
	pkt := retained.Clone()
	pkt.Reissue = true
	pkt.Twin = false
	p.ops.Log(trace.KReissue, pkt.Key, note)
	p.ops.Respawn(pkt)
}

// abortDependents aborts the resident tasks that are genealogical
// dependents of a reissue point: their whole subtree will be regenerated by
// the reissue, so their partial results are abandoned (§3's stated cost).
func (p *rollbackPolicy) abortDependents(tops ...stamp.Stamp) {
	for _, key := range p.ops.ResidentTaskKeys() {
		for _, ts := range tops {
			if ts.IsAncestorOf(key.Stamp) {
				p.ops.Abort(key, ts, fmt.Sprintf("dependent of reissued %v", ts))
				break
			}
		}
	}
}

// OnResultUndeliverable implements §3.2's abort rule: "A task is also
// aborted if the result of the task cannot be forwarded to the parent task."
func (p *rollbackPolicy) OnResultUndeliverable(res *proto.Result) {
	p.ops.DropResult(res, false)
	p.ops.Abort(res.Child, stamp.Root(), "orphan: parent processor failed")
}

// OnResultRejected handles the parent-task-unknown case the same way.
func (p *rollbackPolicy) OnResultRejected(res *proto.Result) {
	p.ops.DropResult(res, false)
	p.ops.Abort(res.Child, stamp.Root(), "orphan: parent task gone")
}

// OnGrandResult: rollback has no grandparent linkage; per the §4.2 rule of
// thumb, unhandled packets are ignored.
func (p *rollbackPolicy) OnGrandResult(res *proto.Result) {
	p.ops.DropResult(res, false)
}

// --- Splice (§4) ---

// SpliceScheme implements §4: twins inherit the offspring of dead tasks via
// grandparent relays, salvaging partial results.
type SpliceScheme struct{}

// Splice returns the §4 scheme.
func Splice() Scheme { return SpliceScheme{} }

// Name implements Scheme.
func (SpliceScheme) Name() string { return "splice" }

// New implements Scheme.
func (SpliceScheme) New(ops Ops) Policy { return &splicePolicy{ops: ops} }

type splicePolicy struct{ ops Ops }

// OnFailureDetected implements the eager half of §4.1: "processor C may
// start recouping the loss of B2 as soon as C realizes that node B is dead"
// — every resident parent with an unfilled hole whose child settled on the
// failed processor regenerates a twin of that child.
func (p *splicePolicy) OnFailureDetected(failed proto.ProcID) {
	st := p.ops.Store()
	for _, e := range st.For(failed) {
		pkt := e.Packet
		if !p.ops.TaskWaitingOnHole(pkt.Parent.Task, pkt.HoleID) {
			// Parent already has the value (case 3 never needs a twin) or
			// the parent is gone; nothing to recoup from here.
			continue
		}
		twin := pkt.Clone()
		twin.Twin = true
		twin.Reissue = false
		p.ops.Log(trace.KTwin, twin.Key, fmt.Sprintf("step-parent for task lost on %d", failed))
		p.ops.Respawn(twin)
	}
}

// OnResultUndeliverable implements the orphan path of §4.1: "The algorithm
// commands D4 to forward the result to grandparent C1."
func (p *splicePolicy) OnResultUndeliverable(res *proto.Result) {
	p.ops.Metrics().OrphanResults++
	p.ops.Log(trace.KOrphanResult, res.Child, fmt.Sprintf("parent %v dead, escalating", res.DeadParent))
	p.ops.EscalateResult(res)
}

// OnResultRejected: the parent task is gone from a live processor, meaning
// its own result already propagated (or it was killed). The orphan value is
// extinct — case 8: "The result is discarded."
func (p *splicePolicy) OnResultRejected(res *proto.Result) {
	p.ops.DropResult(res, false)
}

// OnGrandResult implements the ancestor side of §4.2: "grandchild: Create a
// step-parent for the grandchild if there isn't one already. Transfer the
// result to its step-parent."
func (p *splicePolicy) OnGrandResult(res *proto.Result) {
	deadKey := res.DeadParent.Task
	st := p.ops.Store()
	if _, ok := st.Get(deadKey); !ok {
		// No retained checkpoint: the dead task's value already reached us
		// (and the checkpoint was released) or the relay point itself has
		// retired. Either way the orphan value is redundant.
		p.ops.DropResult(res, false)
		return
	}
	// Learning of the failure through an orphan result may precede the
	// fault announcement; declaring it triggers OnFailureDetected (which
	// creates the twin) before we relay.
	if !p.ops.IsKnownFaulty(res.DeadParent.Proc) {
		p.ops.DeclareFaulty(res.DeadParent.Proc)
	}
	if dest, ok := st.Dest(deadKey); ok && p.ops.IsKnownFaulty(dest) {
		// Still settled on a dead processor and OnFailureDetected chose not
		// to twin (parent hole already filled): the value is extinct.
		p.ops.DropResult(res, false)
		return
	}
	p.ops.Metrics().Relayed++
	p.ops.Log(trace.KRelay, res.Child, fmt.Sprintf("to step-parent %v", deadKey))
	p.ops.RelayToTwin(res)
}

// schemes is the single statement of which schemes exist, in the sorted
// order Names, CLI help and the unknown-name error all show; each scheme
// carries its own name.
var schemes = []func() Scheme{Incremental, None, Rollback, RollbackLazy, RollbackNoSuppress, Splice}

// Names lists every scheme name in sorted order — the exact strings ByName
// accepts.
func Names() []string {
	names := make([]string, len(schemes))
	for i, ctor := range schemes {
		names[i] = ctor().Name()
	}
	return names
}

// ByName returns a scheme from its CLI name. The error text lists the known
// names, so callers can surface it verbatim.
func ByName(name string) (Scheme, error) {
	for _, ctor := range schemes {
		if s := ctor(); s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("recovery: unknown scheme %q (known: %s)", name, strings.Join(Names(), ", "))
}
