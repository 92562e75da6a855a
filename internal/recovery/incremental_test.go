package recovery

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/stamp"
)

func TestIncrementalDrainsHotBeforeWarm(t *testing.T) {
	ops := newMockOps()
	p := Incremental().New(ops)

	// Three topmost checkpoints lost on proc 3. The parents of warmA/warmB
	// wait on several holes; hot's parent is blocked on that hole alone.
	warmA := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	warmB := ops.seed(stamp.FromPath(0, 2), stamp.FromPath(0), 2, 3, true)
	hot := ops.seed(stamp.FromPath(1, 0), stamp.FromPath(1), 0, 3, true)
	ops.unfilled[warmA.Parent.Task] = 2
	ops.unfilled[warmB.Parent.Task] = 2
	ops.unfilled[hot.Parent.Task] = 1

	p.OnFailureDetected(3)

	// First drain runs at detection: the critical-path entry goes first even
	// though both warm stamps sort before it.
	if len(ops.respawned) != 1 || ops.respawned[0].Key != hot.Key {
		t.Fatalf("first drain respawned %v, want %v", ops.respawned, hot.Key)
	}
	if !ops.respawned[0].Reissue || ops.respawned[0].Twin {
		t.Errorf("reissue flags wrong: %+v", ops.respawned[0])
	}
	if len(ops.deferred) != 1 || ops.deferred[0].delay != 8 {
		t.Fatalf("deferred = %+v, want one drain 8 ticks out", ops.deferred)
	}

	// Remaining drains pace out one per period, in stamp order.
	ops.fireDeferred(t)
	ops.fireDeferred(t)
	if len(ops.respawned) != 3 {
		t.Fatalf("respawned %d, want 3", len(ops.respawned))
	}
	if ops.respawned[1].Key != warmA.Key || ops.respawned[2].Key != warmB.Key {
		t.Errorf("warm order %v, %v; want %v, %v",
			ops.respawned[1].Key, ops.respawned[2].Key, warmA.Key, warmB.Key)
	}
	if len(ops.deferred) != 0 {
		t.Errorf("queue empty but a drain is still armed: %+v", ops.deferred)
	}
	if ops.metrics.PacedReissues != 3 {
		t.Errorf("PacedReissues = %d, want 3", ops.metrics.PacedReissues)
	}
}

func TestIncrementalSuppressesShadowed(t *testing.T) {
	ops := newMockOps()
	p := Incremental().New(ops)
	top := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	ops.seed(stamp.FromPath(0, 1, 0, 0), stamp.FromPath(0, 1, 0), 0, 3, true)

	p.OnFailureDetected(3)

	if len(ops.respawned) != 1 || ops.respawned[0].Key != top.Key {
		t.Fatalf("respawned %v, want only topmost %v", ops.respawned, top.Key)
	}
	if ops.metrics.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", ops.metrics.Suppressed)
	}
}

func TestIncrementalDropsMootEntriesWithoutBudget(t *testing.T) {
	ops := newMockOps()
	p := Incremental().New(ops)
	gone := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	keep := ops.seed(stamp.FromPath(0, 2), stamp.FromPath(0), 2, 3, true)
	ops.unfilled[gone.Parent.Task] = 1 // would be hot — but it dies first
	ops.unfilled[keep.Parent.Task] = 2

	// The hole fills (a late result arrived) before detection: the entry is
	// moot and must not consume the drain budget, so keep goes out in the
	// very first drain.
	ops.store.Release(gone.Key)
	p.OnFailureDetected(3)

	if len(ops.respawned) != 1 || ops.respawned[0].Key != keep.Key {
		t.Fatalf("respawned %v, want %v", ops.respawned, keep.Key)
	}
	if len(ops.deferred) != 0 {
		t.Errorf("moot-only residue kept a drain armed: %+v", ops.deferred)
	}
}

func TestIncrementalRevalidatesBetweenDrains(t *testing.T) {
	ops := newMockOps()
	p := Incremental().New(ops)
	first := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	second := ops.seed(stamp.FromPath(0, 2), stamp.FromPath(0), 2, 3, true)

	p.OnFailureDetected(3)
	if len(ops.respawned) != 1 || ops.respawned[0].Key != first.Key {
		t.Fatalf("first drain respawned %v, want %v", ops.respawned, first.Key)
	}

	// Between drains the second parent's hole fills: the queued entry must
	// be discarded at the next drain, not reissued.
	ops.store.Release(second.Key)
	ops.fireDeferred(t)
	if len(ops.respawned) != 1 {
		t.Fatalf("reissued a released checkpoint: %v", ops.respawned[1:])
	}
	if len(ops.deferred) != 0 {
		t.Errorf("drain still armed after queue emptied: %+v", ops.deferred)
	}
}

func TestIncrementalAbortsDependentsAtReissueTime(t *testing.T) {
	ops := newMockOps()
	p := Incremental().New(ops)
	top := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	dep := proto.TaskKey{Stamp: stamp.FromPath(0, 1, 2)}
	unrelated := proto.TaskKey{Stamp: stamp.FromPath(0, 7)}
	ops.keys = []proto.TaskKey{dep, unrelated}

	p.OnFailureDetected(3)

	if len(ops.aborted) != 1 {
		t.Fatalf("aborted = %v, want only the dependent of %v", ops.aborted, top.Key)
	}
}

func TestIncrementalMergesOverlappingFailures(t *testing.T) {
	ops := newMockOps()
	p := Incremental().New(ops)
	threeA := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	threeB := ops.seed(stamp.FromPath(0, 3), stamp.FromPath(0), 3, 3, true)
	onFour := ops.seed(stamp.FromPath(0, 2), stamp.FromPath(0), 2, 4, true)

	p.OnFailureDetected(3)
	// Second failure lands while the first recovery is still draining: its
	// work joins the existing cadence instead of starting a parallel one.
	p.OnFailureDetected(4)

	if len(ops.respawned) != 1 || ops.respawned[0].Key != threeA.Key {
		t.Fatalf("respawned %v, want %v first", ops.respawned, threeA.Key)
	}
	if len(ops.deferred) != 1 {
		t.Fatalf("deferred = %+v, want exactly one armed drain", ops.deferred)
	}
	// The merged queue drains in stamp order regardless of which failure
	// contributed the entry.
	ops.fireDeferred(t)
	ops.fireDeferred(t)
	if len(ops.respawned) != 3 ||
		ops.respawned[1].Key != onFour.Key || ops.respawned[2].Key != threeB.Key {
		t.Fatalf("merged drain order %v, want %v then %v",
			ops.respawned[1:], onFour.Key, threeB.Key)
	}
}

// TestIncrementalReusedSlotIsMoot: an owner may reuse a released slot for a
// later child's checkpoint (the machine recycles hole records). A queued
// entry whose slot now holds another packet, even one settled on the same
// failed processor, is moot: reissuing it would respawn a child nobody lost.
func TestIncrementalReusedSlotIsMoot(t *testing.T) {
	ops := newMockOps()
	p := Incremental().New(ops)
	first := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	second := ops.seed(stamp.FromPath(0, 2), stamp.FromPath(0), 2, 3, true)

	p.OnFailureDetected(3)
	if len(ops.respawned) != 1 || ops.respawned[0].Key != first.Key {
		t.Fatalf("first drain respawned %v, want %v", ops.respawned, first.Key)
	}

	// Between drains second's hole fills, its owner recycles the slot, and
	// a later child's checkpoint — settled on 3 before the owner learned of
	// the failure — lands in it.
	sl := ops.slots[second.Key]
	ops.store.Drop(sl)
	later := &proto.TaskPacket{
		Key: proto.TaskKey{Stamp: stamp.FromPath(5, 0)}, Gen: 9, Fn: "f",
		Parent: proto.Addr{Proc: ops.self, Task: proto.TaskKey{Stamp: stamp.FromPath(5)}},
	}
	ops.store.Hold(sl, later, 3)
	ops.unfilled[later.Parent.Task] = 1
	ops.fireDeferred(t)
	if len(ops.respawned) != 1 {
		t.Fatalf("reissued %v from a reused slot", ops.respawned[1].Key)
	}
}
