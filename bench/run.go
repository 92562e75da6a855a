package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

const (
	outDir = "bench/out"
	// setupReps is how many times a run sets up; setup_s is the median of
	// the faster half, like every other time metric.
	setupReps = 3
)

// session is one run of one workload for one seed.
type session struct {
	workload  string
	seed      int64
	in        *instance
	setups    []float64 // calibrated seconds
	setupsRaw []float64
	passes    []*pass
	notes     []string
}

// runPass runs one pass with the heap collected first, so a pass does not
// inherit the previous one's garbage.
func runPass(in *instance, tr *tracer) (*pass, error) {
	runtime.GC()
	p := &pass{tr: tr, root: tr.start("pass", 0, -1), calibThreads: in.calibThreads}
	defer tr.end(p.root)
	p.read()
	if err := in.run(in, p); err != nil {
		return nil, err
	}
	if time.Since(p.lastCalib) >= calibEvery/4 {
		p.read()
	}
	if p.verified() == 0 {
		return nil, fmt.Errorf("no request of the pass verified: %s", strings.Join(p.Errs, "; "))
	}
	p.seal()
	return p, nil
}

// setUp generates the inputs, builds and compiles the programs and runs one
// untimed warm-up pass (which also memoises the reference answers), reps
// times over; the last instance is the one the timed passes use.
func (s *session) setUp(reps int) error {
	if s.workload == "net-stream" {
		// The net backend puts its unix socket in a fresh directory under
		// TMPDIR. A relative one keeps it inside the checkout and its path
		// short enough for a socket address, however deep the checkout is.
		tmp := filepath.Join(".bench_build", "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return err
		}
		os.Setenv("TMPDIR", tmp)
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		in, err := newInstance(s.workload, s.seed)
		if err != nil {
			return err
		}
		warm, err := runPass(in, nil)
		if err != nil {
			return fmt.Errorf("warm-up pass: %w", err)
		}
		if warm.Failed > 0 {
			return fmt.Errorf("warm-up pass: %d of %d requests failed: %s",
				warm.Failed, warm.Attempted, strings.Join(warm.Errs, "; "))
		}
		s.in = in
		raw := time.Since(t0) - warm.calibTime()
		s.setupsRaw = append(s.setupsRaw, raw.Seconds())
		s.setups = append(s.setups, raw.Seconds()*scaleOf(warm.Calib).wall)
	}
	return nil
}

// timedPass appends one measured pass.
func (s *session) timedPass() error {
	p, err := runPass(s.in, nil)
	if err != nil {
		return err
	}
	s.passes = append(s.passes, p)
	return nil
}

func (s *session) note(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

// guard runs the benchmark's own correctness checks over the passes and
// reports whether they all hold: determinism is the simulator's contract, so
// any disagreement between passes, or a detection without a fault, is a
// wrong output even when every answer verified.
func (s *session) guard(passes []*pass) bool {
	ok := true
	for i, p := range passes {
		if p.Failed > 0 {
			ok = false
			s.note("pass %d: %d of %d requests failed: %s", i, p.Failed, p.Attempted, strings.Join(p.Errs, "; "))
		}
		if s.in.backend == "sim" && p.exact() != passes[0].exact() {
			ok = false
			s.note("pass %d disagrees with pass 0 on an exact metric:\n  %+v\n  %+v", i, p.exact(), passes[0].exact())
		}
		if s.in.faultFree && p.Sim.Detections != 0 {
			ok = false
			s.note("pass %d: %d failure detections on a fault-free workload", i, p.Sim.Detections)
		}
	}
	if s.in.backend == "net" {
		if strays := strayNodes(); len(strays) > 0 {
			ok = false
			s.note("node processes survived the run: pids %v", strays)
		}
	}
	return ok
}

// strayNodes lists this process's children that still run as net-backend
// nodes: after the last Close there must be none.
func strayNodes() []int {
	var out []int
	dirs, _ := filepath.Glob("/proc/[0-9]*")
	for _, d := range dirs {
		cmdline, err := os.ReadFile(filepath.Join(d, "cmdline"))
		if err != nil || !bytes.Contains(cmdline, []byte("apsim-netnode-")) {
			continue
		}
		stat, err := os.ReadFile(filepath.Join(d, "stat"))
		if err != nil {
			continue
		}
		// "pid (comm) state ppid …": comm may hold spaces, so split after it.
		fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(fields) > 1 && fields[1] == strconv.Itoa(os.Getpid()) {
			pid, _ := strconv.Atoi(filepath.Base(d))
			out = append(out, pid)
		}
	}
	return out
}

// column maps f over the passes.
func column(passes []*pass, f func(*pass) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// calWall is the pass's wall time in calibrated seconds (see calib.go).
func calWall(p *pass) float64 { return p.Wall.Seconds() * scaleOf(p.Calib).wall }

// The three host-time metrics of a pass, in calibrated time.
func reqPerS(p *pass) float64 { return float64(p.verified()) / calWall(p) }
func cpuMSPerReq(p *pass) float64 {
	return p.CPU.Seconds() * scaleOf(p.Calib).cpu * 1e3 / float64(p.verified())
}
func latP50(p *pass) float64      { return percentile(p.LatMS, 50) * scaleOf(p.Calib).wall }
func msgsPerReq(p *pass) float64  { return float64(p.Msgs) / float64(p.verified()) }
func bytesPerReq(p *pass) float64 { return float64(p.Bytes) / float64(p.verified()) }

// endToEnd folds the untraced passes into the ten end-to-end metrics. Time
// metrics take the median of the faster half of the passes; counts take the
// plain median (on the simulator every pass holds the same value). The
// sim_* statistics of a wall-clock workload come from its simulator twin.
func (s *session) endToEnd() (map[string]float64, error) {
	ps := s.passes
	peak := readUsage().selfRSSMB // before the twin, which is not the workload
	virt := ps[0]
	if s.in.twin != nil {
		twin, err := s.in.twin(s.in)
		if err != nil {
			return nil, fmt.Errorf("simulator twin: %w", err)
		}
		if twin.Failed > 0 {
			return nil, fmt.Errorf("simulator twin: %d requests failed: %s", twin.Failed, strings.Join(twin.Errs, "; "))
		}
		virt = twin
	}
	return map[string]float64{
		"setup_s":           fasterHalfMedian(s.setups, false),
		"req_per_s":         fasterHalfMedian(column(ps, reqPerS), true),
		"cpu_ms_per_req":    fasterHalfMedian(column(ps, cpuMSPerReq), false),
		"lat_p50_ms":        fasterHalfMedian(column(ps, latP50), false),
		"msgs_per_req":      median(column(ps, msgsPerReq)),
		"bytes_per_req":     median(column(ps, bytesPerReq)),
		"peak_rss_mb":       peak,
		"sim_span_ticks":    float64(virt.SimSpan),
		"sim_lat_p50_ticks": float64(percentile(virt.SimLat, 50)),
		"sim_lat_p99_ticks": float64(percentile(virt.SimLat, 99)),
	}, nil
}

// passValues is the per-pass record written to the results file.
func passValues(p *pass) map[string]float64 {
	m := map[string]float64{
		"wall_s": p.Wall.Seconds(), "cpu_s": p.CPU.Seconds(), // raw
		"scale_wall": scaleOf(p.Calib).wall, "scale_cpu": scaleOf(p.Calib).cpu,
		"attempted": float64(p.Attempted), "failed": float64(p.Failed),
		"req_per_s": reqPerS(p), "cpu_ms_per_req": cpuMSPerReq(p),
		"lat_n": float64(len(p.LatMS)), "lat_p50_ms": latP50(p),
		"msgs_per_req": msgsPerReq(p), "bytes_per_req": bytesPerReq(p),
	}
	// The guide's tail: the highest percentile with ten samples beyond it.
	if q := supportedTail(len(p.LatMS)); q > 50 {
		m["lat_tail_pct"], m["lat_tail_ms"] = q, percentile(p.LatMS, q)
	}
	if len(p.SimLat) > 0 {
		m["sim_span_ticks"] = float64(p.SimSpan)
		m["sim_lat_p50_ticks"] = float64(percentile(p.SimLat, 50))
		m["sim_lat_p99_ticks"] = float64(percentile(p.SimLat, 99))
		m["sim_events"], m["sim_steps"] = float64(p.Events), float64(p.Sim.StepsExecuted)
		m["sim_reissues"], m["sim_twins"] = float64(p.Sim.Reissues), float64(p.Sim.Twins)
		m["sim_detections"] = float64(p.Sim.Detections)
	} else {
		m["reissued"], m["drained"] = float64(p.Reissued), float64(p.Drained)
		m["kill_stall_ms"] = p.KillStall.Seconds() * 1e3
		m["open_ms"], m["close_ms"] = p.Open.Seconds()*1e3, p.Close.Seconds()*1e3
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traced makes the separate traced run behind the per-layer numbers: one
// untraced and one traced pass (their difference is the span overhead), the
// workload's variant passes, and the layer probes. A metric that does not
// apply to this workload reads 0.
func (s *session) traced(decls []metricDecl) (map[string]float64, map[string]spanStat, []*pass, error) {
	m := map[string]float64{}
	for _, d := range decls {
		m[d.Name] = 0
	}
	// Untraced and traced passes alternate and each kind keeps its faster
	// one, so a noisy moment does not read as span overhead.
	var plain, withSpans *pass
	var tr *tracer
	for i := 0; i < 2; i++ {
		p, err := runPass(s.in, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		if plain == nil || calWall(p) < calWall(plain) {
			plain = p
		}
		t := newTracer()
		if p, err = runPass(s.in, t); err != nil {
			return nil, nil, nil, err
		}
		if withSpans == nil || calWall(p) < calWall(withSpans) {
			withSpans, tr = p, t
		}
	}
	passes := []*pass{plain, withSpans}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	if err := tr.writeJSONL(filepath.Join(outDir, "spans-"+s.workload+".jsonl")); err != nil {
		return nil, nil, nil, err
	}
	spans := byName(tr.spans)
	m["bench.span_overhead_frac"] = calWall(withSpans)/calWall(plain) - 1
	spanScale := scaleOf(withSpans.Calib).wall
	m["core.open_us"] = spans["core.open"].mean() / 1e3 * spanScale
	m["core.submit_ns"] = spans["core.submit"].mean() * spanScale
	m["core.verify_us"] = spans["core.verify"].mean() / 1e3 * spanScale
	m["core.close_us"] = spans["core.close"].mean() / 1e3 * spanScale

	if err := runProbes(s.in.specs, m); err != nil {
		return nil, nil, nil, err
	}

	p, n, sc := plain, float64(plain.verified()), scaleOf(plain.Calib).wall
	switch s.in.backend {
	case "sim":
		wall := calWall(p) * 1e9 // probes are in calibrated ns too
		m["machine.host_ns_per_event"] = wall / float64(p.Events)
		m["machine.events_per_req"] = float64(p.Events) / n
		m["machine.steps_per_req"] = float64(p.Sim.StepsExecuted) / n
		m["machine.heartbeat_msg_frac"] = ratio(p.Sim.MsgHeartbeat, p.Sim.TotalMessages())
		// The budget: what the evaluator and the event kernel would cost
		// alone at the probed rates; the machine is what remains.
		m["lang.share"] = float64(p.Sim.StepsExecuted) * m["lang.compiled.ns_per_step"] / wall
		m["sim.share"] = float64(p.Events) * m["sim.ns_per_event"] / wall
		m["machine.share"] = 1 - m["lang.share"] - m["sim.share"]
		m["recovery.detect_latency_ticks"] = ratio(p.Sim.DetectLatencySum, p.Sim.FirstDetections)
		m["recovery.detections_per_failure"] = ratio(p.Sim.Detections, p.Sim.Failures)
		m["core.queue_wait_p99_ticks"] = float64(p.QueueWaitP99)
		m["core.queue_depth_max"] = float64(p.QueueDepthMax)
		for scheme, sm := range p.ByScheme {
			if sm.Failures == 0 {
				continue
			}
			pre := "recovery." + scheme + "."
			m[pre+"reissues_per_failure"] = ratio(sm.Reissues, sm.Failures)
			m[pre+"twins_per_failure"] = ratio(sm.Twins, sm.Failures)
			m[pre+"wasted_step_frac"] = ratio(sm.StepsWasted, sm.StepsExecuted)
			m[pre+"suppressed_frac"] = ratio(sm.Suppressed, sm.Suppressed+sm.Reissues)
		}
	case "live":
		m["livenet.lat_p99_ms"] = percentile(p.LatMS, 99) * sc
		m["livenet.kill_stall_ms"] = p.KillStall.Seconds() * 1e3 * sc
		m["livenet.reissues_per_kill"] = float64(p.Reissued)
		m["livenet.drained_per_req"] = float64(p.Drained) / n
		m["livenet.open_us"] = p.Open.Seconds() * 1e6 * sc
	case "net":
		m["netnode.lat_p99_ms"] = percentile(p.LatMS, 99) * sc
		m["netnode.kill_stall_ms"] = p.KillStall.Seconds() * 1e3 * sc
		m["netnode.reissues_per_kill"] = float64(p.Reissued)
		m["netnode.open_ms"] = p.Open.Seconds() * 1e3 * sc
		m["netnode.close_ms"] = p.Close.Seconds() * 1e3 * sc
		m["netnode.hub_cpu_frac"] = p.SelfCPU.Seconds() / p.CPU.Seconds()
		m["netnode.child_rss_mb"] = p.ChildRSSMB
	}

	// Variant passes: the same inputs with one core.Config field changed.
	// The guard compares their exact values with the plain pass's.
	variant := func(tweak func(*core.Config)) (*pass, error) {
		s.in.tweak = tweak
		defer func() { s.in.tweak = nil }()
		v, err := runPass(s.in, nil)
		if err == nil {
			passes = append(passes, v)
		}
		return v, err
	}
	switch s.workload {
	case "sim-dense":
		logged, err := variant(func(c *core.Config) { c.Trace = true })
		if err != nil {
			return nil, nil, nil, fmt.Errorf("Trace:true pass: %w", err)
		}
		m["trace.on_overhead_frac"] = calWall(logged)/calWall(plain) - 1
	case "sim-sparse":
		if _, err := variant(func(c *core.Config) { c.Shards = 2 }); err != nil {
			return nil, nil, nil, fmt.Errorf("Shards:2 pass: %w", err)
		}
	}
	return m, spans, passes, nil
}
