package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
)

// This file holds the saturation artifact S5: open-loop load against
// bounded admission. Where L3 measures a closed batch — every request
// submitted up front, the stream as long as it needs to be — S5 offers load
// at a controlled rate and lets admission control defend the cluster: a
// probe stream calibrates the fault-free service capacity, then seeded
// Poisson arrivals sweep the offered rate through multiples of
// it. Below the knee the cluster completes what is offered; past it the shed
// counter absorbs the excess and the completion throughput flattens at
// capacity — the saturation curve — while mid-stream faults shift the knee
// left by stealing service capacity for recovery.

// s5Procs and s5Requests size the simulator sweep: 24 offered requests on a
// 64-processor torus, bounded to 8 in flight.
const (
	s5Procs    = 64
	s5Requests = 24
	s5InFlight = 8
)

// s5Specs is the offered mix: small workloads so the knee comes from the
// arrival rate, not from one giant request monopolizing the torus.
func s5Specs() []string {
	base := []string{"fib:9", "fib:10"}
	out := make([]string, s5Requests)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out
}

// S5Saturation sweeps offered load through multiples of the measured
// fault-free capacity on a 64-processor torus with bounded admission,
// with and without a mid-stream burst+cascade fault plan, rollback vs
// splice paired per plan. Deterministic per seed.
func S5Saturation(seed int64) (*Table, error) {
	specs := s5Specs()
	// The probe calibrates capacity under the same in-flight bound the sweep
	// uses (queue policy, closed loop): the knee should land near 1x of what
	// the bounded cluster can actually serve, not of an unbounded batch.
	span, err := calibrate("S5", core.Config{Procs: s5Procs, Topology: "torus",
		Seed: seed, Recovery: "rollback",
		MaxInFlight: s5InFlight, Admission: "queue"}, specs)
	if err != nil {
		return nil, err
	}
	// Fault-free capacity in requests per vtick; the sweep offers multiples
	// of it as seeded Poisson processes.
	capacity := float64(s5Requests) / float64(span)
	topo, err := topology.ByName("torus", s5Procs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "S5",
		Title: fmt.Sprintf("Saturation: open-loop Poisson load vs bounded admission (%d-processor torus, %d offered, %d in-flight slots, shed policy)",
			s5Procs, s5Requests, s5InFlight),
		Claim: "An applicative service with bounded admission saturates gracefully: " +
			"below the capacity knee it completes what is offered; past it the shed " +
			"counter absorbs the excess while completion throughput flattens at the " +
			"fault-free service rate, and mid-stream faults move the knee left because " +
			"recovery competes with fresh admissions for the survivors.",
		Columns: []string{"offered load", "fault plan", "scheme",
			"offered (req/Mtick)", "admitted", "shed", "completed",
			"throughput (req/Mtick)", "p99 latency (vticks)"},
	}
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
		rate := mult * capacity
		// The offered stream spans ~requests/rate vticks; aim the faults at
		// its thick middle.
		streamLen := int64(float64(s5Requests) / rate)
		var faulted *core.FaultPlan
		if streamLen > 6 {
			faulted = faults.Burst(s5Procs, 3, streamLen/2, faults.CrashAnnounced, seed).
				Merge(faults.Cascade(topo, 5, streamLen/3, streamLen/6, 1, 0.5,
					faults.CrashAnnounced, seed))
		} else {
			faulted = faults.Burst(s5Procs, 3, 3, faults.CrashAnnounced, seed)
		}
		for _, pl := range []struct {
			label string
			plan  *core.FaultPlan
		}{
			{"no faults", nil},
			{"burst+cascade mid-stream", faulted},
		} {
			base := len(t.Rows)
			for _, scheme := range []string{"rollback", "splice"} {
				cfg := core.Config{Procs: s5Procs, Topology: "torus", Seed: seed,
					Recovery: scheme, Deadline: span * 16,
					Arrival:     fmt.Sprintf("arrive:poisson:%g", rate),
					MaxInFlight: s5InFlight, Admission: "shed"}
				sr, err := runStream(cfg, specs, pl.plan, false)
				if err != nil {
					return nil, fmt.Errorf("S5 %.1fx/%s/%s: %w", mult, pl.label, scheme, err)
				}
				t.Rows = append(t.Rows, []Cell{
					Strf("%gx capacity", mult),
					Str(pl.label),
					Str(scheme),
					Float("%.2f", rate*1e6),
					i64(int64(sr.Admitted)),
					i64(int64(sr.Shed)),
					i64(int64(sr.Completed)),
					Float("%.2f", sr.Throughput),
					i64(sr.LatencyP99),
				})
			}
			t.Pair(base, base+1)
		}
	}
	t.Finding = "The saturation curve has a visible knee: at 0.25–0.5x capacity " +
		"nothing (or almost nothing) is shed and completion throughput tracks the " +
		"offered rate; around 1x the bound starts dropping the Poisson bunching, " +
		"and at 2–4x it sheds most of the excess while throughput flattens " +
		"near the probe capacity while p99 latency stays bounded — shedding, not " +
		"queueing, pays for the overload. The burst+cascade plan completes fewer of " +
		"the admitted requests per unit time, shifting the knee left; splice tracks " +
		"rollback within the usual effect band under the identical plan and " +
		"admission schedule."
	return t, nil
}
