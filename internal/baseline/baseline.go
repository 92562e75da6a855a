// Package baseline implements the comparison schemes the paper positions
// functional checkpointing against:
//
//   - Periodic global checkpointing (§2, refs [3,5,15]): "virtually stop all
//     computational operations while periodic global checkpointing takes
//     place" — modeled as a coordinated stop-the-world protocol whose costs
//     (barrier synchronization, state copying) are derived from honestly
//     measured machine runs. The paper argues this is
//     "potentially inefficient" for large machines; the model makes the
//     argument quantitative.
//
//   - TMR-style full replication (§5.4, Misunas): every task executed three
//     times with majority voting. This baseline runs for real on the machine
//     via §5.3 replicated task packets.
//
// The PGC baseline is a *model*, not a packet-level simulation: the paper
// itself never simulates it, and a faithful packet-level implementation
// would pin down arbitrary details the comparison does not depend on. All
// model inputs (fault-free makespan, state-size samples) are measured from
// real runs of the same machine and workload.
package baseline

import (
	"errors"

	"repro/internal/machine"
)

// PGCParams parameterizes the periodic-global-checkpointing model.
type PGCParams struct {
	// Interval is the virtual time between global checkpoints.
	Interval int64
	// BarrierPerProc is the freeze/ack/resume coordination cost per
	// processor per checkpoint (the global synchronization the paper calls
	// "potentially inefficient" — §2). Each checkpoint stops the world for
	// BarrierPerProc × N plus the state-copy time.
	BarrierPerProc int64
	// BytePause is the stop-the-world time per 64 bytes of copied state.
	BytePause int64
}

// DefaultPGCParams mirror the machine's default cost scale.
func DefaultPGCParams(interval int64) PGCParams {
	return PGCParams{
		Interval:       interval,
		BarrierPerProc: 2 * (machine.DefaultMsgOverhead + machine.DefaultHopCost),
		BytePause:      1,
	}
}

// PGCOutcome is the modeled behaviour of PGC for one workload.
type PGCOutcome struct {
	// Checkpoints actually taken before the base run finished.
	Checkpoints int
	// PauseTotal is the accumulated stop-the-world time.
	PauseTotal int64
	// SnapshotBytes is the total state copied.
	SnapshotBytes int64
	// ControlMessages is the freeze/ack/resume traffic.
	ControlMessages int64
	// Makespan is the fault-free completion time including pauses.
	Makespan int64
	// BaseMakespan is the unmodified machine makespan (no fault tolerance).
	BaseMakespan int64
}

// Model applies the PGC protocol to a measured fault-free run. The run must
// have been executed with Config.StateProbeEvery set so state sizes are
// known over time.
func Model(params PGCParams, rep *machine.Report) (*PGCOutcome, error) {
	if params.Interval <= 0 {
		return nil, errors.New("baseline: PGC interval must be positive")
	}
	if !rep.Completed {
		return nil, errors.New("baseline: base run did not complete")
	}
	if len(rep.StateSamples) == 0 {
		return nil, errors.New("baseline: base run has no state samples; set Config.StateProbeEvery")
	}
	out := &PGCOutcome{BaseMakespan: int64(rep.Makespan)}
	n := int64(rep.Procs)
	// Walk virtual time; at each interval boundary of *base* time, charge a
	// pause proportional to the machine state at that instant.
	for t := params.Interval; t < int64(rep.Makespan); t += params.Interval {
		bytes := stateAt(rep, t)
		pause := params.BarrierPerProc*n + params.BytePause*(bytes/64)
		out.Checkpoints++
		out.PauseTotal += pause
		out.SnapshotBytes += bytes
		out.ControlMessages += 3 * n // freeze, freeze-ack, resume
	}
	out.Makespan = int64(rep.Makespan) + out.PauseTotal
	return out, nil
}

// stateAt interpolates the snapshot size at base time t from the probes.
func stateAt(rep *machine.Report, t int64) int64 {
	best := int64(0)
	for _, s := range rep.StateSamples {
		if int64(s.Time) <= t {
			best = s.Bytes
		} else {
			break
		}
	}
	return best
}

// ReplicateAll builds the §5.4 TMR configuration: every function of the
// program runs with the given replication degree (3 for classic TMR).
func ReplicateAll(fns []string, degree int) map[string]int {
	out := make(map[string]int, len(fns))
	for _, fn := range fns {
		out[fn] = degree
	}
	return out
}
