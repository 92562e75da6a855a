package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
	"repro/internal/workload"
)

// This file holds the saturation artifacts S5 (simulator) and L4 (live):
// open-loop load against bounded admission. Where L3 measures a closed batch
// — every request submitted up front, the stream as long as it needs to be —
// S5 and L4 offer load at a controlled rate and let admission control defend
// the cluster: a probe stream calibrates the fault-free service capacity,
// then seeded Poisson arrivals sweep the offered rate through multiples of
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
	l4Procs    = 8
	l4Requests = 12
	l4InFlight = 2
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
	span, err := calibrate("S5", "sim", core.Config{Procs: s5Procs, Topology: "torus",
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
				sr, err := runStream("sim", cfg, specs, pl.plan, false, nil)
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

// L4LiveSaturation is the live-backend saturation smoke: runStream paces
// real Submit calls on the wall clock from a seeded workload.Arrival
// schedule (Config.Arrival is inert on live — real time is the arrival
// discipline), against bounded admission on the goroutine cluster, with and
// without a mid-stream kill. Wall-clock measurements are machine-dependent
// and therefore not committed.
func L4LiveSaturation(seed int64) (*Table, error) {
	specs := make([]string, l4Requests)
	for i := range specs {
		specs[i] = "fib:11"
	}
	// Probe the closed-loop stream for the service capacity in req/µs under
	// the same in-flight bound the sweep uses (queue policy holds the
	// overflow instead of shedding it).
	cfg := core.Config{Procs: l4Procs, Seed: seed, Recovery: "rollback",
		MaxInFlight: l4InFlight, Admission: "queue"}
	span, err := calibrate("L4", "live", cfg, specs)
	if err != nil {
		return nil, err
	}
	capacity := float64(l4Requests) / float64(span)
	cfg.Admission = "shed"
	t := &Table{
		ID: "L4",
		Title: fmt.Sprintf("Live saturation: wall-clock Poisson load vs bounded admission (%d nodes, %d offered, %d in-flight slots, shed policy)",
			l4Procs, l4Requests, l4InFlight),
		Claim: "The admission contract is backend-independent: pacing real Submit " +
			"calls from the same seeded arrival generator against the goroutine " +
			"cluster shows the same shape as S5 — completions track offered load " +
			"below the knee, sheds absorb it above, and a mid-stream kill steals " +
			"capacity from service.",
		Columns: []string{"offered load", "fault plan", "offered", "admitted", "shed",
			"completed", "throughput (req/s)", "p99 latency (µs)", "reissued"},
	}
	for _, mult := range []float64{0.25, 1, 4} {
		rate := mult * capacity // requests per wall µs
		arr, err := workload.ParseArrival(fmt.Sprintf("arrive:poisson:%g", rate))
		if err != nil {
			return nil, err
		}
		offsets := arr.Schedule(l4Requests, seed)
		killAt := liveTicks((offsets[len(offsets)-1] + 1) / 2)
		for _, pl := range []struct {
			label string
			plan  *core.FaultPlan
		}{
			{"no faults", nil},
			{"burst: 1 kill mid-stream", faults.Burst(l4Procs, 1, killAt, faults.CrashAnnounced, seed)},
		} {
			sr, err := runStream("live", cfg, specs, pl.plan, false, offsets)
			if err != nil {
				return nil, fmt.Errorf("L4 %.0fx/%s: %w", mult, pl.label, err)
			}
			t.Rows = append(t.Rows, []Cell{
				Strf("%gx capacity", mult),
				Str(pl.label),
				i64(int64(sr.Offered)),
				i64(int64(sr.Admitted)),
				i64(int64(sr.Shed)),
				i64(int64(sr.Completed)),
				Float("%.0f", sr.Throughput),
				i64(sr.LatencyP99),
				i64(sr.Reissued),
			})
		}
	}
	t.NoEffects = true // wall-clock rows are independent measurements
	t.Finding = "The live knee matches the simulator's shape: well below capacity " +
		"the paced stream is (nearly) fully admitted; around 1x the two-slot " +
		"shed system already drops the Poisson bunching (classic loss-system " +
		"behavior at critical load); at 4x the slots shed most of the arrival " +
		"excess while completion throughput holds near the probe capacity, and " +
		"the mid-stream kill trades reissues and latency for the same admission " +
		"discipline."
	return t, nil
}
