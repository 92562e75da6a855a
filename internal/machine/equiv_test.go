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
// replaced the per-proc maps (faulty, nbGrad) to the map semantics: an id
// never written behaves like an absent key — not faulty, MaxGradient — and
// out-of-range ids (the host, pending placements) are never faulty. It also
// pins how the detector reads a neighbour's heartbeat stream.
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

	// The detector's streams: a neighbor starts as heard at its own beat
	// phase, reads as heard at its first beat's arrival once that beat has
	// landed, and a beat landing exactly at the watcher's tick counts only
	// when the sender's id is lower (it dispatches first). Neighbour 1 beats
	// at 251 and lands at 257; neighbour 5 beats at 255 and lands at 261.
	every, flight := m.cfg.HeartbeatEvery, flightTime(1)
	from1, from5 := &p.det.in[0], &p.det.in[2]
	if p.det.neighbors[0] != 1 || p.det.neighbors[2] != 5 {
		t.Fatalf("mesh-9 processor 4 watches %v, want [1 3 5 7]", p.det.neighbors)
	}
	for _, c := range []struct {
		link *beatLink
		now  sim.Time
		want sim.Time
	}{
		{from1, 0, 1},                                   // seeded at its phase
		{from1, every + 1 + flight - 1, 1},              // first beat still in flight
		{from1, every + 1 + flight, every + 1 + flight}, // lands at the tick, sender 1 < 4: heard
		{from1, every + 1 + flight + 1, every + 1 + flight},
		{from5, every + 5 + flight, 5}, // lands at the tick, sender 5 > 4: not yet
		{from5, every + 5 + flight + 1, every + 5 + flight},
	} {
		if got := c.link.lastHeard(every, c.now); got != c.want {
			t.Errorf("lastHeard(now=%d) from phase %d = %d, want %d", c.now, c.link.phase, got, c.want)
		}
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
