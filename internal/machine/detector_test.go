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

// FuzzBeatLink checks the detector's closed form against the schedule it
// stands for: a watcher ticking at now last heard the latest beat
// k = 1, 2, … (sent at phase + k·every, sent only before until, landing
// flight ticks later) that landed before now — or at now when the sender
// dispatches first — and the seeded phase when none has. The seeds cover a
// tick before the first beat could land (now − flight − phase < 0, where
// Go's division truncates toward zero), a stream stopped at or before its
// first beat, and arrivals tied with the tick on either side of the id order.
func FuzzBeatLink(f *testing.F) {
	f.Add(int64(1), int64(6), int64(250), int64(never), int64(257), true)   // tie, sender first: heard
	f.Add(int64(5), int64(6), int64(250), int64(never), int64(261), false)  // tie, watcher first: not yet
	f.Add(int64(200), int64(6), int64(250), int64(never), int64(100), true) // now − flight − phase < 0
	f.Add(int64(1), int64(6), int64(250), int64(251), int64(5_000), true)   // until at the first beat
	f.Add(int64(1), int64(6), int64(250), int64(-40), int64(5_000), false)  // until before the stream starts
	f.Add(int64(7), int64(6), int64(100), int64(507), int64(10_000), false) // stopped mid-stream
	f.Add(int64(0), int64(0), int64(1), int64(never), int64(-3), false)     // negative now
	f.Fuzz(func(t *testing.T, phase, flight, every, until, now int64, senderFirst bool) {
		mod := func(x int64, m uint64) sim.Time { return sim.Time(uint64(x) % m) }
		e := 1 + mod(every, 1_000)
		ph := mod(phase, uint64(e))
		fl := mod(flight, 2_000)
		nw := mod(now, 60_000) - 1_000
		un := sim.Time(never)
		if until != never {
			un = mod(until, 60_000) - 1_000
		}
		want := ph
		for k := sim.Time(1); ; k++ {
			sent := ph + k*e
			if sent >= un || sent+fl > nw || (sent+fl == nw && !senderFirst) {
				break
			}
			want = sent + fl
		}
		l := beatLink{phase: ph, flight: fl, senderFirst: senderFirst}
		l.until.Store(int64(un))
		if got := l.lastHeard(e, nw); got != want {
			t.Fatalf("lastHeard(phase %d, flight %d, every %d, until %d, now %d, senderFirst %v) = %d, want %d",
				ph, fl, e, un, nw, senderFirst, got, want)
		}
	})
}

// FuzzBeatCount checks the run's closed-form beat count against the schedule
// it stands for: a stream sends beat k = 1, 2, … at phase + k·every while
// that instant lies before both until (the first beat it does not send) and
// end (the covered bound, past which no tick ran). The seeds cover an end
// before the first beat, an until at or before the end, and an end landing
// exactly on a beat.
func FuzzBeatCount(f *testing.F) {
	f.Add(int64(1), int64(250), int64(never), int64(200)) // end before the first beat
	f.Add(int64(1), int64(250), int64(501), int64(2_000)) // until before the end
	f.Add(int64(1), int64(250), int64(751), int64(751))   // until at the end
	f.Add(int64(5), int64(250), int64(never), int64(755)) // end exactly on a beat
	f.Add(int64(5), int64(250), int64(never), int64(756)) // end just past a beat
	f.Add(int64(0), int64(1), int64(-40), int64(10_000))  // until before the stream starts
	f.Add(int64(63), int64(100), int64(never), int64(-3)) // negative end
	f.Fuzz(func(t *testing.T, phase, every, until, end int64) {
		mod := func(x int64, m uint64) sim.Time { return sim.Time(uint64(x) % m) }
		e := 1 + mod(every, 1_000)
		ph := mod(phase, uint64(e))
		en := mod(end, 60_000) - 1_000
		un := sim.Time(never)
		if until != never {
			un = mod(until, 60_000) - 1_000
		}
		var want int64
		for sent := ph + e; sent < un && sent < en; sent += e {
			want++
		}
		l := beatLink{phase: ph}
		l.until.Store(int64(un))
		if got := l.sent(e, en); got != want {
			t.Fatalf("sent(phase %d, every %d, until %d, end %d) = %d, want %d", ph, e, un, en, got, want)
		}
	})
}
