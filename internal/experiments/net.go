package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	_ "repro/internal/netnode" // registers the "net" backend
)

// This file holds L5, the process-backend artifact: the substrate-
// independence claim taken one level further than L1/L2 — real OS processes
// connected by sockets, with crashes injected as SIGKILL of the target pid.
// Nothing about §2/§3 changes: parents retain child task packets across the
// process boundary, the supervisor reissues super-root checkpoints, and
// determinacy (§2.1) makes every recovered answer equal the sequential
// reference. The driver asserts all of that itself and fails loudly on any
// divergence, hang, or unexercised recovery path.

// l5Specs are the parity workloads, shared shapes with L1 so the three-way
// table reads against the established two-way one.
var l5Specs = []string{"fib:12", "tree:3,4", "tak:8,4,2"}

// l5 stream sizing: a 12-request mix on 6 node processes, two of which are
// SIGKILLed mid-stream.
const (
	l5Procs    = 6
	l5Requests = 12
	l5Kills    = 2
)

// L5NetParity runs the same fault-free workloads on all three substrates —
// virtual-time simulator, goroutine cluster, process-per-node cluster —
// through the one core.Backend interface, then serves a request stream on
// the process cluster with a two-node SIGKILL burst landing mid-stream.
// Parity facts asserted per workload: all three answers equal the sequential
// reference, all three substrates unfold exactly the same number of tasks,
// and all three report non-zero message bytes in comparable codec units.
// Stream facts asserted: every request completes with the reference answer,
// recovery actually ran (reissues > 0), and at least one request was served
// while the system was crashing and recovering around it.
func L5NetParity(seed int64) (*Table, error) {
	t := &Table{
		ID: "L5",
		Title: fmt.Sprintf("Net backend: sim vs live vs process cluster, then a %d-node SIGKILL burst mid-stream (%d nodes)",
			l5Kills, l5Procs),
		Claim: "§2/§2.1 substrate independence at full strength: functional checkpointing " +
			"needs no shared memory, no cooperative shutdown, and no common address space — " +
			"the same workloads must complete with the reference answer when the nodes are " +
			"OS processes over sockets and a crash is SIGKILL of the process.",
		Columns: []string{"workload", "sim makespan (vticks)", "live makespan (µs)",
			"net makespan (µs)", "tasks spawned (all three)", "net msg bytes", "answers = reference"},
		// Rows are independent workloads, not baseline/candidate pairs.
		NoEffects: true,
	}
	for _, spec := range l5Specs {
		w := mustWorkload(spec)
		cfg := core.Config{Procs: 8, Seed: seed, Recovery: "rollback"}
		reps := map[string]*core.Report{}
		for _, backend := range []string{"sim", "live", "net"} {
			rep, err := core.VerifyOn(backend, cfg, w, nil)
			if err != nil {
				return nil, fmt.Errorf("L5 %s on %s: %w", spec, backend, err)
			}
			if rep.MsgBytes == 0 {
				return nil, fmt.Errorf("L5 %s on %s: no message bytes accounted", spec, backend)
			}
			reps[backend] = rep
		}
		if s, l, n := reps["sim"].Spawned, reps["live"].Spawned, reps["net"].Spawned; s != l || s != n {
			return nil, fmt.Errorf("L5 %s: task counts diverge: sim %d, live %d, net %d", spec, s, l, n)
		}
		t.Rows = append(t.Rows, []Cell{
			Str(spec),
			i64(reps["sim"].Makespan), i64(reps["live"].Makespan), i64(reps["net"].Makespan),
			i64(reps["sim"].Spawned), i64(reps["net"].MsgBytes),
			Str("true"),
		})
	}

	// The stream cell: serve l5Requests through one open process cluster and
	// SIGKILL two nodes in the thick of it.
	specs := make([]string, l5Requests)
	base := []string{"fib:11", "fib:12", "tree:2,4", "tak:8,4,2"}
	for i := range specs {
		specs[i] = base[i%len(base)]
	}
	cfg := core.Config{Procs: l5Procs, Seed: seed, Recovery: "rollback"}
	calib, err := runStream("net", cfg, specs, nil, true, nil)
	if err != nil {
		return nil, fmt.Errorf("L5 net base stream: %w", err)
	}
	atTicks := liveTicks(calib.Span / 2)
	plan := faults.Burst(l5Procs, l5Kills, atTicks, faults.CrashSilent, seed)
	sr, err := runStream("net", cfg, specs, plan, true, nil)
	if err != nil {
		return nil, fmt.Errorf("L5 net SIGKILL stream: %w", err)
	}
	if sr.Reissued == 0 {
		return nil, fmt.Errorf("L5 net SIGKILL stream: burst at t=%d killed %d nodes but nothing was reissued (span %d)",
			atTicks, l5Kills, sr.Span)
	}
	if sr.DuringRecovery == 0 {
		return nil, fmt.Errorf("L5 net SIGKILL stream: no request's service interval contained a kill (stamps %v, span %d)",
			sr.FaultStamps, sr.Span)
	}
	// Stream rows reuse the parity columns: the sim/live makespan slots are
	// zero (the stream runs on the net substrate only) and the last column
	// carries the recovery outcome.
	t.Rows = append(t.Rows,
		[]Cell{Str(fmt.Sprintf("stream %d reqs, no faults", l5Requests)),
			i64(0), i64(0), i64(calib.Span), i64(calib.Spawned), i64(calib.MsgBytes),
			Strf("%d/%d verified", calib.Completed, calib.Requests)},
		[]Cell{Str(fmt.Sprintf("stream %d reqs, %d SIGKILLed", l5Requests, l5Kills)),
			i64(0), i64(0), i64(sr.Span), i64(sr.Spawned), i64(sr.MsgBytes),
			Strf("%d/%d verified, %d during recovery, %d reissued",
				sr.Completed, sr.Requests, sr.DuringRecovery, sr.Reissued)},
	)
	t.Finding = "The process cluster is a faithful third substrate: identical task trees " +
		"and reference answers fault-free, and with two node processes SIGKILLed " +
		"mid-stream every request still completes — parents reissue retained packets " +
		"across the socket boundary and the supervisor replays super-root checkpoints, " +
		"so abrupt process death (no cooperative teardown anywhere) loses no answers. " +
		"Wall-clock figures are machine-dependent and therefore not committed."
	return t, nil
}
