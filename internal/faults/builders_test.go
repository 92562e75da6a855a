package faults

import (
	"reflect"
	"testing"

	"repro/internal/proto"
	"repro/internal/topology"
)

func TestBurstDeterministicPerSeed(t *testing.T) {
	a := Burst(16, 5, 100, CrashAnnounced, 9)
	b := Burst(16, 5, 100, CrashAnnounced, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans: %v vs %v", a.Faults, b.Faults)
	}
	c := Burst(16, 5, 100, CrashAnnounced, 10)
	if reflect.DeepEqual(a.Procs(), c.Procs()) {
		t.Error("seeds 9 and 10 picked identical processor sets")
	}
}

func TestBurstShape(t *testing.T) {
	p := Burst(16, 5, 100, CrashSilent, 3)
	if len(p.Faults) != 5 {
		t.Fatalf("faults = %d, want 5", len(p.Faults))
	}
	if got := len(p.Procs()); got != 5 {
		t.Fatalf("distinct procs = %d, want 5 (duplicates drawn)", got)
	}
	for _, f := range p.Faults {
		if f.At != 100 || f.Kind != CrashSilent {
			t.Fatalf("fault %v: wrong time or kind", f)
		}
		if f.Proc < 0 || f.Proc >= 16 {
			t.Fatalf("fault %v out of range", f)
		}
	}
	if err := p.Validate(16); err != nil {
		t.Fatalf("valid burst rejected: %v", err)
	}
	// k clamps to n; nonsense inputs yield empty plans.
	if got := len(Burst(4, 99, 0, CrashSilent, 1).Faults); got != 4 {
		t.Errorf("clamped burst = %d faults, want 4", got)
	}
	if len(Burst(0, 3, 0, CrashSilent, 1).Faults) != 0 || len(Burst(8, 0, 0, CrashSilent, 1).Faults) != 0 {
		t.Error("degenerate burst not empty")
	}
}

func TestCascadeFullSpreadIsBFS(t *testing.T) {
	ring, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	p := Cascade(ring, 0, 1000, 50, 2, 1.0, CrashAnnounced, 1)
	// Wave 0: {0}@1000; wave 1: {1,7}@1050; wave 2: {2,6}@1100.
	want := map[proto.ProcID]int64{0: 1000, 1: 1050, 7: 1050, 2: 1100, 6: 1100}
	if len(p.Faults) != len(want) {
		t.Fatalf("faults = %v, want 5 entries", p.Faults)
	}
	for _, f := range p.Faults {
		at, ok := want[f.Proc]
		if !ok || f.At != at {
			t.Errorf("fault %v unexpected (want t=%d)", f, at)
		}
	}
	if err := p.Validate(8); err != nil {
		t.Fatalf("cascade plan invalid: %v", err)
	}
}

func TestCascadeDeterministicPerSeed(t *testing.T) {
	mesh, err := topology.Mesh2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := Cascade(mesh, 5, 500, 100, 3, 0.5, CrashSilent, 21)
	b := Cascade(mesh, 5, 500, 100, 3, 0.5, CrashSilent, 21)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different cascades: %v vs %v", a.Faults, b.Faults)
	}
	// Partial spread must stay within the full-BFS envelope and include the
	// origin.
	full := Cascade(mesh, 5, 500, 100, 3, 1.0, CrashSilent, 21)
	envelope := map[proto.ProcID]bool{}
	for _, f := range full.Faults {
		envelope[f.Proc] = true
	}
	for _, f := range a.Faults {
		if !envelope[f.Proc] {
			t.Errorf("partial cascade crashed %v outside the BFS envelope", f.Proc)
		}
	}
	if len(a.Faults) == 0 || a.Faults[0].Proc != 5 {
		t.Fatal("cascade origin missing")
	}
	if len(a.Faults) > len(full.Faults) {
		t.Error("partial spread crashed more than full spread")
	}
}

func TestCascadeStopsAtDeadNodes(t *testing.T) {
	// On a 2-node ring, wave 1 kills the only other node and the cascade
	// has no one left; extra waves must not loop or re-fault.
	ring, err := topology.Ring(2)
	if err != nil {
		t.Fatal(err)
	}
	p := Cascade(ring, 0, 10, 5, 10, 1.0, CrashAnnounced, 1)
	if len(p.Faults) != 2 {
		t.Fatalf("faults = %v, want exactly 2", p.Faults)
	}
}

func TestCascadeBadOrigin(t *testing.T) {
	ring, _ := topology.Ring(4)
	if got := Cascade(ring, 9, 0, 1, 1, 1, CrashSilent, 1); len(got.Faults) != 0 {
		t.Errorf("out-of-range origin produced faults: %v", got.Faults)
	}
}

func TestCorrelatedRegion(t *testing.T) {
	mesh, err := topology.Mesh2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := Correlated(mesh, 4, 1, 700, CrashAnnounced)
	// Center of a 3x3 mesh plus its 4 neighbors.
	wantProcs := []proto.ProcID{1, 3, 4, 5, 7}
	if !reflect.DeepEqual(p.Procs(), wantProcs) {
		t.Fatalf("region = %v, want %v", p.Procs(), wantProcs)
	}
	for _, f := range p.Faults {
		if f.At != 700 {
			t.Errorf("fault %v not at region time", f)
		}
	}
	// Radius 0 is only the center; a huge radius is the whole machine.
	if got := Correlated(mesh, 4, 0, 0, CrashSilent).Procs(); !reflect.DeepEqual(got, []proto.ProcID{4}) {
		t.Errorf("radius 0 = %v", got)
	}
	if got := len(Correlated(mesh, 4, 99, 0, CrashSilent).Faults); got != 9 {
		t.Errorf("radius 99 crashed %d procs, want 9", got)
	}
	if got := len(Correlated(mesh, 99, 1, 0, CrashSilent).Faults); got != 0 {
		t.Errorf("bad center produced %d faults", got)
	}
}

func TestMerge(t *testing.T) {
	ring, _ := topology.Ring(8)
	p := Burst(8, 2, 100, CrashAnnounced, 1).
		Merge(Correlated(ring, 4, 1, 200, CrashSilent)).
		Merge(nil)
	if len(p.Faults) != 5 {
		t.Fatalf("merged faults = %d, want 5", len(p.Faults))
	}
	if err := p.Validate(8); err != nil {
		t.Fatalf("merged plan invalid: %v", err)
	}
}

// TestBuilderPlansValidateOnTheirTopology: plans built against a topology
// of n nodes always satisfy Validate(n) — the bounds contract the runner
// relies on before injection.
func TestBuilderPlansValidateOnTheirTopology(t *testing.T) {
	topo, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.Size()
	for seed := int64(1); seed <= 10; seed++ {
		for _, p := range []*Plan{
			Burst(n, 6, 100, CrashAnnounced, seed),
			Cascade(topo, 3, 100, 50, 4, 0.7, CrashSilent, seed),
			Correlated(topo, 9, 2, 100, CrashAnnounced),
		} {
			if err := p.Validate(n); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}
