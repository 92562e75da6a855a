package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
)

// This file holds the stress artifacts S1–S3. The 1986 experiments exercise
// recovery on small regular grids with one or two hand-placed crashes; the
// stress scenarios push the same machine into the regimes modern recovery
// evaluations target: 64-processor irregular interconnects (S1), failures
// that spread along the network as cascades (S2), and fault densities swept
// to the point where recovery stops working at all (S3). All three resolve
// through internal/runner's registry next to the paper artifacts, so they
// sweep seeds and parallelize like any table.

// S1Procs is the machine size of the topology sweep: a 64-node machine
// (hypercube dimension 6), the scale the ROADMAP's "larger topologies" item
// asks to validate.
const S1Procs = 64

// diameter returns the longest shortest path in the topology.
func diameter(topo topology.Topology) int {
	d := 0
	n := topo.Size()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if h := topo.Dist(topology.NodeID(i), topology.NodeID(j)); h > d {
				d = h
			}
		}
	}
	return d
}

// S1TopologySweep runs the T1 fault-free workload across every registered
// topology kind at n=64 — the regular 1986 shapes next to the
// generator-backed irregular ones — and reports how interconnect shape
// bends makespan and message cost while the recovery protocol stays
// untouched.
func S1TopologySweep(spec string, seed int64) (*Table, error) {
	w := mustWorkload(spec)
	t := &Table{
		ID:    "S1",
		Title: fmt.Sprintf("Stress: topology sweep (%s, %d processors, rollback, fault-free)", spec, S1Procs),
		Claim: "§1: the recovery protocols assume only that \"a processor makes its best " +
			"effort to communicate with a destination node\" — they are topology-agnostic, " +
			"so the same workload must complete on any connected interconnect, paying only " +
			"hop-count costs.",
		Columns: []string{"topology", "diameter", "makespan", "messages", "hops/msg",
			"wire bytes", "load imbalance (max/mean)"},
	}
	for _, kind := range topology.Kinds() {
		topo, err := topology.ByName(kind, S1Procs)
		if err != nil {
			return nil, err
		}
		rep := mustComplete(core.Config{Procs: S1Procs, Topology: kind, Seed: seed, Recovery: "rollback"}, w)
		msgs := rep.Sim.Metrics.TotalMessages()
		hopsPerMsg := 0.0
		if msgs > 0 {
			hopsPerMsg = float64(rep.Sim.Metrics.HopsOnWire) / float64(msgs)
		}
		t.Rows = append(t.Rows, []Cell{
			Str(topo.Name()),
			i64(int64(diameter(topo))),
			i64(rep.Makespan),
			i64(msgs),
			Float("%.2f", hopsPerMsg),
			i64(rep.Sim.Metrics.BytesOnWire),
			Float("%.2f", imbalance(rep.Sim.StepsByProc)),
		})
	}
	t.Finding = "Every interconnect completes with the same answer; makespan tracks the " +
		"diameter (ring worst, complete/star best per hop but serialized at the hub), and " +
		"the irregular shapes — torus, random 4-regular — land near the hypercube, showing " +
		"the protocol pays for distance, not regularity. The spread in message count is " +
		"the failure detector's (one beat per directed neighbour pair per period, so degree × " +
		"makespan: complete(64) sends 3.3 times the mesh's), not the workload's, and no message " +
		"travels less than one hop — exactly 1.00 where every pair is adjacent."
	return t, nil
}

// s2Cascades defines the S2 plan grid: how many spreading waves, and with
// what per-neighbor spread probability.
var s2Cascades = []struct {
	label  string
	waves  int
	spread float64
}{
	{"single crash", 0, 1.0},
	{"cascade, 1 wave", 1, 1.0},
	{"cascade, 2 waves", 2, 1.0},
	{"cascade, 2 waves, p=0.5", 2, 0.5},
}

// S2CascadeRecovery compares rollback and splice while a failure spreads
// wave by wave across a 64-processor torus: the origin crashes, then its
// neighbors, then theirs. Cascades are the adversarial ordering for
// rollback — each wave kills processors that just absorbed re-placed
// recovery work — while splice keeps salvaging partial results.
func S2CascadeRecovery(seed int64) (*Table, error) {
	const procs, kind = 64, "torus"
	w := mustWorkload("tree:3,6")
	topo, err := topology.ByName(kind, procs)
	if err != nil {
		return nil, err
	}
	m0 := mustComplete(core.Config{Procs: procs, Topology: kind, Seed: seed, Recovery: "rollback"}, w).Makespan
	t := &Table{
		ID:    "S2",
		Title: fmt.Sprintf("Stress: rollback vs splice under cascading faults (tree:3,6, %d-processor torus)", procs),
		Claim: "§4.1/§6: splice \"tries to salvage as much intermediate partial results as " +
			"possible\" while rollback re-executes from reissue points — under faults that " +
			"keep spreading, re-executed work is itself at risk, so the salvage advantage " +
			"should compound.",
		Columns: []string{"fault plan", "crashes", "scheme", "completed", "makespan",
			"slowdown", "twins+reissues", "stranded"},
	}
	for _, cs := range s2Cascades {
		plan := faults.Cascade(topo, 9, m0*3/10, m0/10, cs.waves, cs.spread,
			faults.CrashAnnounced, seed)
		for _, scheme := range []string{"rollback", "splice"} {
			rep := mustRun(core.Config{Procs: procs, Topology: kind, Seed: seed, Recovery: scheme,
				Deadline: m0 * 30}, w, plan)
			t.Rows = append(t.Rows, []Cell{
				Str(cs.label),
				i64(int64(len(plan.Procs()))),
				Str(scheme),
				Strf("%v", rep.Completed),
				i64(rep.Makespan),
				slowdown(rep, m0),
				i64(rep.Sim.Metrics.Twins + rep.Sim.Metrics.Reissues),
				i64(rep.Sim.Metrics.Stranded),
			})
		}
	}
	t.PairAdjacent(0)
	t.Finding = "Both schemes survive cascades that kill a dozen of 64 processors. Splice " +
		"regenerates less (fewer twins than rollback has reissues), yet rollback finishes " +
		"first at every wave: it sends no acks, so a packet lost in flight is reissued as " +
		"soon as the detector reports its destination, while splice keeps its acks and " +
		"re-places such a packet only when the placement-ack timer fires. Here the timer " +
		"costs more than the salvage saves."
	return t, nil
}

// s3Densities is the fault-count sweep of S3 on a 16-processor machine:
// from a single crash up to 14/16 processors lost.
var s3Densities = []int{1, 2, 4, 6, 8, 10, 12, 14}

// S3FaultDensity sweeps simultaneous-crash density on a 16-processor mesh
// until recovery stops completing — the breaking point. Crashed processors
// are drawn per seed (faults.Burst), so multi-seed runs probe different
// victim sets; the survivors must absorb every re-placed task and the
// checkpoints retained for them.
func S3FaultDensity(seed int64) (*Table, error) {
	const procs = 16
	w := mustWorkload("fib:13")
	base := mustComplete(core.Config{Procs: procs, Seed: seed, Recovery: "rollback"}, w)
	m0 := base.Makespan
	t := &Table{
		ID:    "S3",
		Title: fmt.Sprintf("Stress: fault density to the breaking point (fib:13, %d-processor mesh)", procs),
		Claim: "§3/§4: recovery re-places a failed processor's tasks on survivors; nothing " +
			"in the protocol bounds how many simultaneous failures it tolerates, so " +
			"capacity — not the protocol — should set the breaking point.",
		Columns: []string{"simultaneous crashes", "scheme", "completed", "makespan",
			"slowdown", "twins+reissues", "stranded"},
	}
	addRow := func(k int, scheme string, rep *core.Report) {
		// The crash count is an input parameter, not a measurement; keeping
		// it a label makes the effect lines read "6/16 splice" not "row".
		t.Rows = append(t.Rows, []Cell{
			Strf("%d/%d", k, procs),
			Str(scheme),
			Strf("%v", rep.Completed),
			i64(rep.Makespan),
			slowdown(rep, m0),
			i64(rep.Sim.Metrics.Twins + rep.Sim.Metrics.Reissues),
			i64(rep.Sim.Metrics.Stranded),
		})
	}
	addRow(0, "rollback", base)
	for _, k := range s3Densities {
		plan := faults.Burst(procs, k, m0*2/5, faults.CrashAnnounced, seed)
		for _, scheme := range []string{"rollback", "splice"} {
			// Cap the deadline well above any successful recovery so broken
			// runs report quickly and the makespan column stays readable.
			rep := mustRun(core.Config{Procs: procs, Seed: seed, Recovery: scheme,
				Deadline: m0 * 20}, w, plan)
			addRow(k, scheme, rep)
		}
	}
	// Row 0 is the fault-free base; the interleaved sweep rows follow it.
	t.PairAdjacent(1)
	t.Finding = "Slowdown grows smoothly with density. Rollback completes at every " +
		"density up to 14 of 16 in every seed: its detector watches across the dead, so " +
		"even a processor that died with all its neighbours is reported and its work " +
		"reissued. Splice, which still relies on ack and result timers, completes up to " +
		"12 of 16 in every seed, more slowly. At 14 of 16 it slows down more than 16-fold " +
		"and misses the capped deadline at seed 1 (the cap shows as the makespan); given " +
		"a longer deadline that run completes at 24.6x, so capacity, not the protocol, " +
		"sets the breaking point."
	return t, nil
}
