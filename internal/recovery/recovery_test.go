package recovery

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/expr"
	"repro/internal/proto"
	"repro/internal/stamp"
	"repro/internal/trace"
)

// mockOps records every operation a policy performs.
type mockOps struct {
	self    proto.ProcID
	store   *checkpoint.Store
	keys    []proto.TaskKey
	waiting map[string]bool // "stamp/hole" → unfilled
	faulty  map[proto.ProcID]bool

	unfilled map[proto.TaskKey]int // explicit UnfilledHoles answers

	respawned []*proto.TaskPacket
	deferred  []deferredCall
	aborted   []string // "key scope reason"
	escalated []*proto.Result
	relayed   []*proto.Result
	declared  []proto.ProcID
	dropped   []bool // stranded flags
	metrics   trace.Metrics

	// policy receives OnFailureDetected when DeclareFaulty runs, mirroring
	// the machine's behaviour.
	policy Policy
}

type deferredCall struct {
	delay int64
	fn    func()
}

func newMockOps() *mockOps {
	return &mockOps{
		self:     0,
		store:    checkpoint.NewStore(),
		waiting:  map[string]bool{},
		unfilled: map[proto.TaskKey]int{},
		faulty:   map[proto.ProcID]bool{},
	}
}

func (m *mockOps) Self() proto.ProcID                { return m.self }
func (m *mockOps) Store() *checkpoint.Store          { return m.store }
func (m *mockOps) ResidentTaskKeys() []proto.TaskKey { return m.keys }
func (m *mockOps) TaskWaitingOnHole(k proto.TaskKey, h int) bool {
	return m.waiting[fmt.Sprintf("%v/%d", k, h)]
}
func (m *mockOps) Respawn(pkt *proto.TaskPacket) {
	m.respawned = append(m.respawned, pkt)
	// Mirror the machine: the respawned packet is re-retained, which resets
	// its destination to pending until the new placement is acknowledged.
	m.store.Retain(pkt)
}
func (m *mockOps) Abort(k proto.TaskKey, scope stamp.Stamp, reason string) {
	m.aborted = append(m.aborted, fmt.Sprintf("%v %v %s", k, scope, reason))
}
func (m *mockOps) EscalateResult(r *proto.Result) { m.escalated = append(m.escalated, r) }
func (m *mockOps) RelayToTwin(r *proto.Result)    { m.relayed = append(m.relayed, r) }
func (m *mockOps) DeclareFaulty(p proto.ProcID) {
	m.declared = append(m.declared, p)
	m.faulty[p] = true
	if m.policy != nil {
		m.policy.OnFailureDetected(p)
	}
}
func (m *mockOps) IsKnownFaulty(p proto.ProcID) bool { return m.faulty[p] }
func (m *mockOps) Defer(delay int64, fn func()) {
	m.deferred = append(m.deferred, deferredCall{delay, fn})
}
func (m *mockOps) UnfilledHoles(k proto.TaskKey) int {
	if v, ok := m.unfilled[k]; ok {
		return v
	}
	// Fall back to the waiting map: one unfilled hole per waiting entry.
	n := 0
	for key, w := range m.waiting {
		if w && strings.HasPrefix(key, k.String()+"/") {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return n
}

// fireDeferred runs the oldest pending deferred callback, mirroring one
// timer expiry on the machine.
func (m *mockOps) fireDeferred(t *testing.T) {
	t.Helper()
	if len(m.deferred) == 0 {
		t.Fatal("no deferred drain armed")
	}
	d := m.deferred[0]
	m.deferred = m.deferred[1:]
	d.fn()
}
func (m *mockOps) DropResult(r *proto.Result, s bool)   { m.dropped = append(m.dropped, s) }
func (m *mockOps) Log(trace.Kind, fmt.Stringer, string) {}
func (m *mockOps) Metrics() *trace.Metrics              { return &m.metrics }

// seed installs a checkpoint entry settled on dest with the given parent.
func (m *mockOps) seed(child stamp.Stamp, parentStamp stamp.Stamp, hole int, dest proto.ProcID, parentWaiting bool) *proto.TaskPacket {
	pkt := &proto.TaskPacket{
		Key:    proto.TaskKey{Stamp: child},
		Fn:     "f",
		Args:   []expr.Value{expr.VInt(1)},
		Parent: proto.Addr{Proc: m.self, Task: proto.TaskKey{Stamp: parentStamp}},
		HoleID: hole,
	}
	m.store.Retain(pkt)
	m.store.Settle(pkt.Key, dest)
	m.waiting[fmt.Sprintf("%v/%d", pkt.Parent.Task, hole)] = parentWaiting
	return pkt
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("scheme name %q != %q", s.Name(), name)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// The schemes literal is the single source of the scheme list: Names is in
// the documented sorted order and the unknown-name error is pinned byte for
// byte (cmd/apsim prints it verbatim).
func TestUnknownSchemeErrorListsRegistry(t *testing.T) {
	if got, want := strings.Join(Names(), " "), "incremental none rollback rollback-lazy rollback-nosuppress splice"; got != want {
		t.Errorf("Names() = %q, want %q", got, want)
	}
	_, err := ByName("nosuch")
	if want := `recovery: unknown scheme "nosuch" (known: incremental, none, rollback, rollback-lazy, rollback-nosuppress, splice)`; err == nil || err.Error() != want {
		t.Errorf("ByName error = %v, want %s", err, want)
	}
}

func TestNonePolicyDoesNothing(t *testing.T) {
	ops := newMockOps()
	p := None().New(ops)
	ops.seed(stamp.FromPath(1), stamp.FromPath(), 0, 3, true)
	p.OnFailureDetected(3)
	p.OnResultUndeliverable(&proto.Result{})
	p.OnResultRejected(&proto.Result{})
	p.OnGrandResult(&proto.Result{})
	if len(ops.respawned) != 0 || len(ops.aborted) != 0 || len(ops.escalated) != 0 {
		t.Fatal("none scheme performed recovery actions")
	}
	if len(ops.dropped) != 3 {
		t.Fatalf("dropped = %d, want 3", len(ops.dropped))
	}
}

func TestRollbackReissuesTopmostOnly(t *testing.T) {
	ops := newMockOps()
	p := Rollback().New(ops)
	// Two independent checkpoints on proc 3 plus one shadowed descendant.
	top1 := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	top2 := ops.seed(stamp.FromPath(0, 2), stamp.FromPath(0), 2, 3, true)
	shadowed := ops.seed(stamp.FromPath(0, 1, 0, 0), stamp.FromPath(0, 1, 0), 0, 3, true)
	// A checkpoint on a different processor must not be touched.
	other := ops.seed(stamp.FromPath(0, 3), stamp.FromPath(0), 3, 4, true)

	p.OnFailureDetected(3)

	if len(ops.respawned) != 2 {
		t.Fatalf("respawned %d packets, want 2", len(ops.respawned))
	}
	for _, pkt := range ops.respawned {
		if !pkt.Reissue || pkt.Twin {
			t.Errorf("respawned packet flags wrong: %+v", pkt)
		}
		if pkt.Key != top1.Key && pkt.Key != top2.Key {
			t.Errorf("unexpected reissue %v", pkt.Key)
		}
		if pkt.Key == shadowed.Key || pkt.Key == other.Key {
			t.Errorf("reissued wrong packet %v", pkt.Key)
		}
	}
	if ops.metrics.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", ops.metrics.Suppressed)
	}
}

func TestRollbackAbortsDependents(t *testing.T) {
	ops := newMockOps()
	p := Rollback().New(ops)
	top := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	// Resident tasks: one genealogical dependent of the reissue point, one
	// unrelated.
	dep := proto.TaskKey{Stamp: stamp.FromPath(0, 1, 2)}
	unrelated := proto.TaskKey{Stamp: stamp.FromPath(0, 7)}
	ops.keys = []proto.TaskKey{dep, unrelated}

	p.OnFailureDetected(3)

	if len(ops.aborted) != 1 || !strings.Contains(ops.aborted[0], dep.String()) {
		t.Fatalf("aborted = %v, want only %v", ops.aborted, dep)
	}
	if !strings.Contains(ops.aborted[0], top.Key.Stamp.String()) {
		t.Errorf("abort scope missing: %v", ops.aborted[0])
	}
}

func TestRollbackLazySkipsAborts(t *testing.T) {
	ops := newMockOps()
	p := RollbackLazy().New(ops)
	ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	ops.keys = []proto.TaskKey{{Stamp: stamp.FromPath(0, 1, 2)}}
	p.OnFailureDetected(3)
	if len(ops.aborted) != 0 {
		t.Fatalf("lazy rollback aborted %v", ops.aborted)
	}
	if len(ops.respawned) != 1 {
		t.Fatalf("lazy rollback reissued %d", len(ops.respawned))
	}
}

func TestRollbackOrphanHandling(t *testing.T) {
	ops := newMockOps()
	p := Rollback().New(ops)
	res := &proto.Result{Child: proto.TaskKey{Stamp: stamp.FromPath(0, 5)}}
	p.OnResultUndeliverable(res)
	if len(ops.aborted) != 1 {
		t.Fatalf("orphan not aborted: %v", ops.aborted)
	}
	p.OnResultRejected(res)
	if len(ops.aborted) != 2 {
		t.Fatal("rejected orphan not aborted")
	}
	p.OnGrandResult(res)
	if len(ops.relayed) != 0 {
		t.Fatal("rollback relayed a grand result")
	}
}

func TestSpliceTwinsDeadChildren(t *testing.T) {
	ops := newMockOps()
	p := Splice().New(ops)
	// Parent waiting: twin expected. Parent already has the value: no twin.
	waiting := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	ops.seed(stamp.FromPath(0, 2), stamp.FromPath(0), 2, 3, false)
	// Different destination: untouched.
	ops.seed(stamp.FromPath(0, 3), stamp.FromPath(0), 3, 5, true)

	p.OnFailureDetected(3)

	if len(ops.respawned) != 1 {
		t.Fatalf("twins = %d, want 1", len(ops.respawned))
	}
	twin := ops.respawned[0]
	if !twin.Twin || twin.Reissue {
		t.Errorf("twin flags wrong: %+v", twin)
	}
	if twin.Key != waiting.Key {
		t.Errorf("twinned %v, want %v", twin.Key, waiting.Key)
	}
	if len(ops.aborted) != 0 {
		t.Error("splice aborted tasks")
	}
}

func TestSpliceEscalatesOrphans(t *testing.T) {
	ops := newMockOps()
	p := Splice().New(ops)
	res := &proto.Result{
		Child:      proto.TaskKey{Stamp: stamp.FromPath(0, 1, 0)},
		DeadParent: proto.Addr{Proc: 3, Task: proto.TaskKey{Stamp: stamp.FromPath(0, 1)}},
		Remaining:  []proto.Addr{{Proc: 0, Task: proto.TaskKey{Stamp: stamp.FromPath(0)}}},
	}
	p.OnResultUndeliverable(res)
	if len(ops.escalated) != 1 {
		t.Fatalf("escalated = %d, want 1", len(ops.escalated))
	}
	if ops.metrics.OrphanResults != 1 {
		t.Errorf("orphan results = %d", ops.metrics.OrphanResults)
	}
}

func TestSpliceGrandResultCreatesTwinAndRelays(t *testing.T) {
	ops := newMockOps()
	p := Splice().New(ops)
	ops.policy = p
	dead := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, true)
	res := &proto.Result{
		Child:      proto.TaskKey{Stamp: stamp.FromPath(0, 1, 0)},
		ParentTask: proto.TaskKey{Stamp: stamp.FromPath(0)},
		DeadParent: proto.Addr{Proc: 3, Task: dead.Key},
	}
	// The failure is not yet known here: the grand result must declare it
	// (which triggers OnFailureDetected → twin) and then relay.
	p.OnGrandResult(res)
	if len(ops.declared) != 1 || ops.declared[0] != 3 {
		t.Fatalf("declared = %v, want [3]", ops.declared)
	}
	if len(ops.respawned) != 1 || !ops.respawned[0].Twin {
		t.Fatalf("twin not created: %v", ops.respawned)
	}
	if len(ops.relayed) != 1 {
		t.Fatalf("relayed = %d, want 1", len(ops.relayed))
	}
	if ops.metrics.Relayed != 1 {
		t.Errorf("relay metric = %d", ops.metrics.Relayed)
	}
}

func TestSpliceGrandResultWithoutCheckpointDropsLate(t *testing.T) {
	ops := newMockOps()
	p := Splice().New(ops)
	res := &proto.Result{
		Child:      proto.TaskKey{Stamp: stamp.FromPath(0, 1, 0)},
		DeadParent: proto.Addr{Proc: 3, Task: proto.TaskKey{Stamp: stamp.FromPath(0, 1)}},
	}
	p.OnGrandResult(res)
	if len(ops.respawned) != 0 || len(ops.relayed) != 0 {
		t.Fatal("acted on a grand result with no retained checkpoint")
	}
	if len(ops.dropped) != 1 {
		t.Fatalf("dropped = %d, want 1", len(ops.dropped))
	}
}

func TestSpliceGrandResultExtinctValue(t *testing.T) {
	// Checkpoint exists but still settled on the (known) dead processor and
	// the parent hole is already filled — OnFailureDetected declines to
	// twin, so the value is extinct.
	ops := newMockOps()
	p := Splice().New(ops)
	dead := ops.seed(stamp.FromPath(0, 1), stamp.FromPath(0), 1, 3, false)
	ops.faulty[3] = true
	res := &proto.Result{
		Child:      proto.TaskKey{Stamp: stamp.FromPath(0, 1, 0)},
		DeadParent: proto.Addr{Proc: 3, Task: dead.Key},
	}
	p.OnGrandResult(res)
	if len(ops.respawned) != 0 {
		t.Fatal("twinned although parent hole was filled")
	}
	if len(ops.relayed) != 0 {
		t.Fatal("relayed an extinct value")
	}
	if len(ops.dropped) != 1 {
		t.Fatalf("dropped = %d, want 1", len(ops.dropped))
	}
}

func TestSpliceRejectedResultDropped(t *testing.T) {
	ops := newMockOps()
	p := Splice().New(ops)
	p.OnResultRejected(&proto.Result{Child: proto.TaskKey{Stamp: stamp.FromPath(9)}})
	if len(ops.escalated) != 0 {
		t.Fatal("splice escalated a rejected (case 8) result")
	}
	if len(ops.dropped) != 1 {
		t.Fatal("rejected result not dropped")
	}
}
