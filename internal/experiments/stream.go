package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
)

// This file holds L3, the service-mode artifact: one open core.Cluster
// serving a stream of requests while fault plans land mid-stream — the
// paper's real promise (functional checkpointing keeps a *running* system
// answering while processors die) measured as throughput and latency
// percentiles rather than single-run makespans, in virtual time. The same
// stream on the wall-clock backends is `apsim -backend live|net -requests N`
// and the benchmark's live-stream and net-stream workloads.

// l3Procs and l3Requests size the stream: 32 concurrent requests
// multiplexed on a 16-processor mesh.
const (
	l3Procs    = 16
	l3Requests = 32
)

// l3Specs is the request mix: two sizes of fib, a bushy tree, and tak,
// rotated to fill the stream.
func l3Specs() []string {
	base := []string{"fib:11", "fib:12", "tree:2,4", "tak:8,4,2"}
	out := make([]string, l3Requests)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out
}

// runStream opens a simulator cluster, injects the plan (fault times count
// from the stream's start), submits every spec, verifies each completed
// request's answer against the sequential reference evaluator (§2.1 — a
// wrong answer fails loudly), and returns the stream report. strict requires
// every request to complete (the calibration probe's contract; under a
// killing plan a timed-out request is data, not an error).
func runStream(cfg core.Config, specs []string, plan *core.FaultPlan, strict bool) (*core.ServiceReport, error) {
	cl, err := core.OpenOn("sim", cfg)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		if err := cl.Inject(plan); err != nil {
			_, _ = cl.Close()
			return nil, err
		}
	}
	for _, spec := range specs {
		if _, err := cl.SubmitSpec(spec); err != nil {
			_, _ = cl.Close()
			return nil, err
		}
	}
	if _, _, _, err := cl.VerifyAll(strict); err != nil {
		return nil, err
	}
	return cl.Close()
}

// calibrate serves specs closed-loop and fault-free under cfg — the probe a
// stream driver sizes its arrival rate, deadlines and fault times from — and
// returns the stream's span.
func calibrate(id string, cfg core.Config, specs []string) (int64, error) {
	probe, err := runStream(cfg, specs, nil, true)
	if err != nil {
		return 0, fmt.Errorf("%s probe: %w", id, err)
	}
	if probe.Span <= 0 {
		return 0, fmt.Errorf("%s probe span %d", id, probe.Span)
	}
	return probe.Span, nil
}

// l3SimStream calibrates the simulator stream L3 and S6 share: the request
// mix, the fault-free rollback span, and the config every faulted cell
// serves under (the caller sets Recovery) — uniform arrivals that stretch
// the stream to ~1.5× the probe span, eight spans of per-request budget.
func l3SimStream(id string, seed int64) (specs []string, span int64, cfg core.Config, err error) {
	specs = l3Specs()
	cfg = core.Config{Procs: l3Procs, Seed: seed, Recovery: "rollback"}
	if span, err = calibrate(id, cfg, specs); err != nil {
		return nil, 0, cfg, err
	}
	cfg.Arrival = fmt.Sprintf("arrive:uniform:%d", max(span/int64(2*l3Requests), 1))
	cfg.Deadline = span * 8
	return specs, span, cfg, nil
}

// L3StreamThroughput measures the simulator stream: a probe stream
// calibrates the span, then rollback and splice serve the same admission
// schedule under no faults, a mid-stream burst, and a mid-stream cascade.
// Every quantity is deterministic per seed. backend must be "sim" (or "",
// its default): bench/probes.go still names it, and the argument goes with
// the next benchmark PR.
func L3StreamThroughput(backend string, seed int64) (*Table, error) {
	if backend != "" && backend != "sim" {
		return nil, fmt.Errorf("experiments: L3 does not run on backend %q", backend)
	}
	specs, span, cfg, err := l3SimStream("L3", seed)
	if err != nil {
		return nil, err
	}
	topo, err := topology.ByName("mesh", l3Procs)
	if err != nil {
		return nil, err
	}
	// Place the burst and the cascade origin inside the thick of the stream.
	plans := []struct {
		label string
		plan  *core.FaultPlan
	}{
		{"no faults", nil},
		{"burst: 3 kills mid-stream", faults.Burst(l3Procs, 3, span/2, faults.CrashAnnounced, seed)},
		{"cascade: 1 wave, p=0.5", faults.Cascade(topo, 5, span/3, span/6, 1, 0.5,
			faults.CrashAnnounced, seed)},
	}
	t := &Table{
		ID: "L3",
		Title: fmt.Sprintf("Service mode: %d-request stream on one open cluster (%d-processor mesh, faults mid-stream)",
			l3Requests, l3Procs),
		Claim: "§2/§3 and the ROADMAP north star: functional checkpointing plus " +
			"rollback/splice keeps a *running* system answering while processors die — " +
			"recovery must proceed concurrently with request service, visible as bounded " +
			"latency percentiles rather than a restarted batch.",
		Columns: []string{"fault plan", "scheme", "completed", "during recovery",
			"stream makespan (vticks)", "messages", "throughput (req/Mtick)",
			"mean latency", "p50 latency", "p99 latency"},
	}
	for _, pl := range plans {
		for _, scheme := range []string{"rollback", "splice"} {
			cfg.Recovery = scheme
			sr, err := runStream(cfg, specs, pl.plan, false)
			if err != nil {
				return nil, fmt.Errorf("L3 %s/%s: %w", pl.label, scheme, err)
			}
			t.Rows = append(t.Rows, []Cell{
				Str(pl.label),
				Str(scheme),
				Strf("%d/%d", sr.Completed, sr.Requests),
				i64(int64(sr.DuringRecovery)),
				i64(sr.Span),
				i64(sr.Messages),
				Float("%.2f", sr.Throughput),
				i64(sr.LatencyMean),
				i64(sr.LatencyP50),
				i64(sr.LatencyP99),
			})
		}
	}
	t.PairAdjacent(0)
	t.Finding = "One open cluster answers the whole stream: requests whose service " +
		"interval contains a kill still complete with the reference answer, the " +
		"during-recovery count matches the faults' stream position, and the p99 " +
		"latency — not the throughput — is where burst and cascade damage shows, " +
		"because recovery serializes onto the survivors while fresh requests keep " +
		"being admitted."
	return t, nil
}
