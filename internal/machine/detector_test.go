package machine

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestDetectorAccuracy is the accuracy clause of the failure detector's
// contract: nobody alive is ever declared. Fault-free, every topology kind
// from a quarter of a heartbeat period's worth of processors to four — through a
// request and on into five idle periods — records no detection at all. The
// case a detector seeded at time 0 fails is hypercube-256: processor 251's
// second tick (t = 501) precedes the arrival of neighbour 249's first beat
// (t = 505). Under each fault plan the golden cells ship, every detection
// names a processor that had really failed.
func TestDetectorAccuracy(t *testing.T) {
	args := []expr.Value{expr.VInt(13)}
	for _, kind := range topology.Kinds() {
		sizes := []int{64, 256, 512, 1024}
		if kind == "complete" {
			sizes = []int{64, 256, 300} // degree n−1: 300 is already 90 000 beats a period
		}
		for _, n := range sizes {
			if testing.Short() && n > 256 {
				continue // CI's "Detector contract at scale" step runs them without -race
			}
			t.Run(fmt.Sprintf("%s-%d", kind, n), func(t *testing.T) {
				m, s := startIdleCfg(t, Config{Topo: mustTopo(t, kind, n), Scheme: recovery.Rollback(), Seed: 1}, nil)
				req, err := s.Submit(lang.Fib(), "fib", args)
				if err != nil {
					t.Fatal(err)
				}
				s.Wait(req)
				if !req.Done() {
					t.Fatalf("request did not complete by t=%d", s.Now())
				}
				m.kern.RunUntil(s.Now()+5*m.cfg.HeartbeatEvery, 0)
				got := s.Finish().Metrics
				if got.Detections != 0 || got.FalseSuspicions != 0 {
					t.Errorf("fault-free: %d detections, %d false suspicions; want none", got.Detections, got.FalseSuspicions)
				}
			})
		}
	}
	for _, cell := range goldenCells {
		t.Run(cell.name, func(t *testing.T) {
			got := goldenRunSharded(t, cell.scheme, cell.crash, 1, "", nil).Metrics
			if got.FalseSuspicions != 0 || (cell.crash > 0) != (got.Detections > 0) {
				t.Errorf("%d crashes: %d detections, %d of them false", cell.crash, got.Detections, got.FalseSuspicions)
			}
		})
	}
}

// TestDetectorCompleteness is the completeness clause: after a silent crash
// every live neighbour of the victim has declared it within
// DefaultHeartbeatMisses+1 periods and one link latency — the victim's last
// beat lands at most a hop after the crash, the limit is
// DefaultHeartbeatMisses periods of silence, and a watcher looks once a
// period (756 ticks at the default period). The crash time sweeps a whole
// period, so it falls at every phase of the victim's beat and of each
// watcher's tick; it starts two periods in, when the victim has beaten for
// real (before that the bound counts from the seeded phase, not the crash).
// The machine is idle: no task traffic, so nothing but the detector — and
// the flood a first declaration starts — can do the declaring.
func TestDetectorCompleteness(t *testing.T) {
	const hop = DefaultMsgOverhead + DefaultHopCost
	for _, kind := range []string{"mesh", "torus", "ring", "star", "hypercube"} {
		for _, period := range []sim.Time{100, DefaultHeartbeatEvery, 1000} {
			t.Run(fmt.Sprintf("%s/every-%d", kind, period), func(t *testing.T) {
				topo := mustTopo(t, kind, 64)
				for _, victim := range []proto.ProcID{0, 27} { // star's hub, and an ordinary processor
					for crash := 2 * period; crash < 3*period; crash += period/10 + 1 {
						cfg := Config{Topo: topo, Scheme: recovery.Rollback(), Seed: 1, HeartbeatEvery: period}
						m, s := startIdleCfg(t, cfg, faults.Crash(victim, int64(crash), false))
						bound := crash + period*(DefaultHeartbeatMisses+1) + hop
						m.kern.RunUntil(bound, 0)
						for _, nb := range m.procs[victim].neighbors {
							if !m.procs[nb].faulty[victim] {
								t.Errorf("victim %d crashed at t=%d: neighbour %d has not declared it by t=%d", victim, crash, nb, bound)
							}
						}
						if got := s.Finish().Metrics; got.FalseSuspicions != 0 || got.Failures != 1 {
							t.Errorf("victim %d crashed at t=%d: %d failures, %d false suspicions; want 1, 0", victim, crash, got.Failures, got.FalseSuspicions)
						}
					}
				}
			})
		}
	}
}

// TestReplyTimersCoverTheRoundTrip pins the timers that guard a reply to the
// distance it travels: on ring-600 a result and its ack are up to 300 hops
// each way, 2 404 ticks, and three tries of a constant 600-tick timer
// declared the live parent dead — the run then never completed.
func TestReplyTimersCoverTheRoundTrip(t *testing.T) {
	prog, args := lang.Fib(), []expr.Value{expr.VInt(13)}
	cfg := Config{Topo: mustTopo(t, "ring", 600), Scheme: recovery.Rollback(), Seed: 1, Eval: "compiled"}
	rep := runMachine(t, cfg, prog, "fib", args, nil)
	expectAnswer(t, rep, prog, "fib", args)
	if got := rep.Metrics; got.Detections != 0 || got.TasksLeaked != 0 {
		t.Errorf("fault-free ring-600: %d detections, %d tasks leaked; want none", got.Detections, got.TasksLeaked)
	}
}
