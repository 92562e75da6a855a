package machine

import (
	"testing"

	"repro/internal/balance"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestSliceStateMatchesMapSemantics pins the ProcID-indexed slices that
// replaced the per-proc maps (faulty, nbGrad, the detector's last-heard
// table) to the map semantics: an id never written behaves like an absent
// key — not faulty, MaxGradient — and out-of-range ids (the host, pending
// placements) are never faulty.
func TestSliceStateMatchesMapSemantics(t *testing.T) {
	topo, err := topology.ByName("mesh", 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Topo: topo, Seed: 1}, lang.Fib())
	if err != nil {
		t.Fatal(err)
	}
	p := m.procs[4] // interior node: four neighbors

	// faulty: absent = false; host and sentinel ids = false; declared = true.
	for q := 0; q < 9; q++ {
		if p.isFaulty(proto.ProcID(q)) {
			t.Fatalf("fresh proc believes %d faulty", q)
		}
	}
	for _, q := range []proto.ProcID{proto.HostID, -2, 99} {
		if p.isFaulty(q) {
			t.Fatalf("out-of-range id %d reported faulty", q)
		}
	}
	p.declareFaulty(7)
	if !p.isFaulty(7) || !p.IsKnownFaulty(7) {
		t.Fatal("declared failure not recorded")
	}
	if p.isFaulty(6) {
		t.Fatal("declaration leaked to another processor")
	}

	// nbGrad: absent = balance.MaxGradient; a load message overwrites it.
	if g := p.NeighborGradient(1); g != balance.MaxGradient {
		t.Fatalf("unheard neighbor gradient = %d, want MaxGradient (%d)", g, balance.MaxGradient)
	}
	if g := p.NeighborGradient(proto.HostID); g != balance.MaxGradient {
		t.Fatal("host gradient must read MaxGradient")
	}
	p.onLoad(&proto.Msg{Type: proto.MsgLoad, From: 1, To: 4, LoadVal: 3})
	if g := p.NeighborGradient(1); g != 3 {
		t.Fatalf("gossiped gradient = %d, want 3", g)
	}

	// The detector's table: a neighbor starts as heard at its own beat
	// phase, and a beat — one-way, nothing answers it — overwrites that with
	// the hearing time.
	if got := p.det.last[1]; got != 1 {
		t.Fatalf("neighbor 1 seeded as heard at %d, want its phase 1", got)
	}
	p.onHeartbeat(&proto.Msg{Type: proto.MsgHeartbeat, From: 1, To: 4})
	if p.det.last[1] != m.kern.Now() {
		t.Fatal("heartbeat did not record the hearing time")
	}
}

// TestHoleTableMatchesMapSemantics pins the dense hole slice that replaced
// the per-task map: ids are created on demand in any order, unknown ids
// read as absent, and iteration order (slice index) is ascending id order —
// what abortGen's sorted walk relied on.
func TestHoleTableMatchesMapSemantics(t *testing.T) {
	tk := newTask(&proto.TaskPacket{Fn: "f"})
	if h := tk.holeAt(0); h != nil {
		t.Fatal("fresh task reports a hole")
	}
	if h := tk.holeAt(-1); h != nil {
		t.Fatal("negative id reports a hole")
	}
	p := &proc{}
	h2 := p.holeFor(tk, 2)
	h0 := p.holeFor(tk, 0)
	if tk.holeAt(2) != h2 || tk.holeAt(0) != h0 {
		t.Fatal("hole lookup does not return the created record")
	}
	if tk.holeAt(1) != nil {
		t.Fatal("gap id must read absent")
	}
	if p.holeFor(tk, 2) != h2 {
		t.Fatal("holeFor must be idempotent")
	}
	var ids []int
	for _, h := range tk.holes {
		if h != nil {
			ids = append(ids, h.id)
		}
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Fatalf("iteration order %v, want ascending [0 2]", ids)
	}

	// Fill/prefill helpers behave like lazily-created maps.
	if _, ok := tk.takePrefill(5); ok {
		t.Fatal("empty prefill returned a value")
	}
	tk.addPrefill(5, expr.VInt(42))
	if v, ok := tk.takePrefill(5); !ok || !v.Equal(expr.VInt(42)) {
		t.Fatal("prefill roundtrip failed")
	}
	if _, ok := tk.takePrefill(5); ok {
		t.Fatal("prefill not consumed")
	}
	tk.addFill(1, expr.VInt(7))
	if len(tk.pendingFills) != 1 || !tk.pendingFills[1].Equal(expr.VInt(7)) {
		t.Fatal("fill not recorded")
	}
}

// TestTimerGenerationsAcrossRecycling pins the pooled-event contract: a
// Timer held across its event's dispatch (and the event's recycling into a
// new schedule) must refuse to cancel the successor.
func TestTimerGenerationsAcrossRecycling(t *testing.T) {
	k := sim.NewKernel(1)
	fired := 0
	t1 := k.After(1, func() { fired++ })
	k.Run(0)
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	// Force reuse of the recycled event.
	t2 := k.After(1, func() { fired++ })
	if t1.Stop() {
		t.Fatal("stale timer claimed to cancel a recycled event")
	}
	if !t2.Active() {
		t.Fatal("stale Stop deactivated the successor")
	}
	k.Run(0)
	if fired != 2 {
		t.Fatalf("fired %d, want 2 (successor must run)", fired)
	}
}
