package machine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// hb is the machine's heartbeat detector.
func hb(m *Machine) *heartbeats { return m.det.(*heartbeats) }

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
				req, err := s.Submit("", lang.Fib(), "fib", args)
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

// serveIdling serves fib(n) requests on s one after another and lets the
// machine idle for idle ticks after each settles, so every request after the
// first wakes a machine that went quiet after the one before.
func serveIdling(t *testing.T, m *Machine, s *Session, n int64, reqs int, idle sim.Time) []*Req {
	t.Helper()
	var out []*Req
	for range reqs {
		r, err := s.Submit("", lang.Fib(), "fib", []expr.Value{expr.VInt(n)})
		if err != nil {
			t.Fatal(err)
		}
		s.Wait(r)
		if !r.Done() {
			t.Fatalf("request %d did not complete by t=%d", r.ID(), s.Now())
		}
		m.kern.RunUntil(s.Now()+idle, 0)
		out = append(out, r)
	}
	return out
}

// TestDetectorAccuracyAcrossQuietGaps is the accuracy clause across epochs:
// on every topology kind and size TestDetectorAccuracy runs, three requests
// served with idle periods between them take the machine through two
// quiet/wake cycles, and nobody is declared. Every processor ticks from the
// start (armAll), so each watcher judges each neighbour at every tick,
// including the first ticks after each wake, where the streams restart.
func TestDetectorAccuracyAcrossQuietGaps(t *testing.T) {
	for _, kind := range topology.Kinds() {
		sizes := []int{64, 256, 512, 1024}
		if kind == "complete" {
			sizes = []int{64, 256, 300}
		}
		for _, n := range sizes {
			if testing.Short() && n > 256 {
				continue
			}
			t.Run(fmt.Sprintf("%s-%d", kind, n), func(t *testing.T) {
				m, s := startIdleCfg(t, Config{Topo: mustTopo(t, kind, n), Scheme: recovery.Rollback(), Seed: 1}, nil)
				armAll(m)
				serveIdling(t, m, s, 13, 3, 5*m.cfg.HeartbeatEvery)
				if len(hb(m).epochs) != 6 {
					t.Fatalf("epochs %v: want two quiet/wake cycles and a last quiet", hb(m).epochs)
				}
				got := s.Finish().Metrics
				if got.Detections != 0 || got.FalseSuspicions != 0 {
					t.Errorf("fault-free: %d detections, %d false suspicions; want none", got.Detections, got.FalseSuspicions)
				}
			})
		}
	}
}

// TestDetectorCompletenessInAGap is the completeness clause across a quiet
// gap: a processor that dies while the machine is quiet is judged by nobody
// until the next request's wake frame lands, and then every live neighbour
// has declared it within DefaultHeartbeatMisses+1 periods and one hop of the
// wake's arrival, since the streams restart from there. The crash sweeps a
// whole period inside the gap, and the waking request, whose work may land on
// the dead processor, answers lang.RefEval's value. It is long enough to keep
// the machine awake past the bound.
func TestDetectorCompletenessInAGap(t *testing.T) {
	const hop = DefaultMsgOverhead + DefaultHopCost
	every := sim.Time(DefaultHeartbeatEvery)
	prog, args := lang.Fib(), []expr.Value{expr.VInt(17)}
	want, err := lang.RefEval(prog, "fib", args)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"mesh", "torus", "ring", "star", "hypercube"} {
		t.Run(kind, func(t *testing.T) {
			topo := mustTopo(t, kind, 64)
			for _, victim := range []proto.ProcID{0, 27} {
				for off := sim.Time(0); off < every; off += every/10 + 1 {
					tl := trace.NewLog()
					m, s := startIdleCfg(t, Config{Topo: topo, Scheme: recovery.Rollback(), Seed: 1, Trace: tl}, nil)
					first := serveIdling(t, m, s, 10, 1, 0)[0]
					crash := first.DoneAt() + 2*hop + every + off // a period after the quiet frame lands
					if _, err := s.Inject(faults.Crash(victim, int64(crash), false)); err != nil {
						t.Fatal(err)
					}
					m.kern.RunUntil(crash+2*every, 0)
					waking, err := s.Submit("", prog, "fib", args)
					if err != nil {
						t.Fatal(err)
					}
					s.Wait(waking)
					wake := waking.Arrival() + hop
					bound := wake + every*(DefaultHeartbeatMisses+1) + hop
					if _, awake := hb(m).epochs.openAt(crash); awake || waking.DoneAt() <= bound {
						t.Fatalf("epochs %v: the crash at %d is not in a gap, or the request (done %d) does not outlast %d", hb(m).epochs, crash, waking.DoneAt(), bound)
					}
					if !waking.Done() || !waking.Answer().Equal(want) {
						t.Fatalf("victim %d crashed at %d: done=%v answer %v, want %v", victim, crash, waking.Done(), waking.Answer(), want)
					}
					declared := map[int32]sim.Time{}
					for _, ev := range tl.Events {
						if _, seen := declared[ev.Proc]; !seen && ev.Kind == trace.KDetect && ev.Note == fmt.Sprintf("processor %d failed", victim) {
							declared[ev.Proc] = sim.Time(ev.Time)
						}
					}
					for _, nb := range m.procs[victim].neighbors {
						if at, ok := declared[int32(nb)]; !ok || at < wake || at > bound {
							t.Errorf("victim %d crashed at t=%d in a gap, wake at %d: neighbour %d declared it at %d (declared %v), want in [%d, %d]",
								victim, crash, wake, nb, at, ok, wake, bound)
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

// fuzzEpochs is a fuzz case's epochs: one from the bottom of the fuzzed time
// range, and a gap [quiet, quiet+wake) in it unless quiet is never.
func fuzzEpochs(quiet, wake int64) epochs {
	ep := epochs{-1_000}
	if quiet != never {
		q := sim.Time(uint64(quiet)%60_000) - 1_000
		ep = append(ep, q, q+sim.Time(uint64(wake)%10_000))
	}
	return ep
}

// awakeAt is epochs.openAt as a walk: the open of the epoch holding t.
func awakeAt(ep epochs, t sim.Time) (sim.Time, bool) {
	for i := 0; i < len(ep); i += 2 {
		if t >= ep[i] && (i+1 == len(ep) || t < ep[i+1]) {
			return ep[i], true
		}
	}
	return 0, false
}

// FuzzBeatLink checks the detector's closed form against the schedule it
// stands for: a watcher ticking at now, inside an epoch, last heard the
// latest beat k = 1, 2, … of that epoch (sent at phase + k·every, at or
// after the epoch's open, sent only before until, landing flight ticks
// later) that landed before now — or at now when the sender dispatches
// first — and one period before the epoch's first beat when none has; beats
// due before start are never sent, and in a gap the watcher does not judge.
// The seeds cover a tick before the first beat could land (now − flight −
// phase < 0, where Go's division truncates toward zero), a stream stopped at
// or before its first beat, arrivals tied with the tick on either side of
// the id order, streams that start late: on a beat, between beats, and after
// they stopped; and epochs: a beat due exactly at a wake's open tick, a tick
// inside a gap, and a sender that died inside a gap, judged after the wake.
func FuzzBeatLink(f *testing.F) {
	const awake = int64(never)
	f.Add(int64(1), int64(6), int64(249), int64(1_000), int64(never), int64(1_257), true, awake, int64(0))            // tie, sender first: heard
	f.Add(int64(5), int64(6), int64(249), int64(1_000), int64(never), int64(1_261), false, awake, int64(0))           // tie, watcher first: not yet
	f.Add(int64(200), int64(6), int64(249), int64(1_000), int64(never), int64(1_100), true, awake, int64(0))          // now − flight − phase < 0
	f.Add(int64(1), int64(6), int64(249), int64(1_000), int64(1_251), int64(6_000), true, awake, int64(0))            // until at the first beat
	f.Add(int64(1), int64(6), int64(249), int64(1_000), int64(960), int64(6_000), false, awake, int64(0))             // until before the stream starts
	f.Add(int64(7), int64(6), int64(99), int64(1_000), int64(1_507), int64(11_000), false, awake, int64(0))           // stopped mid-stream
	f.Add(int64(0), int64(0), int64(0), int64(1_000), int64(never), int64(997), false, awake, int64(0))               // negative now
	f.Add(int64(1), int64(6), int64(249), int64(2_751), int64(never), int64(2_800), true, awake, int64(0))            // starts on a beat
	f.Add(int64(1), int64(6), int64(249), int64(2_752), int64(never), int64(3_100), false, awake, int64(0))           // starts between beats
	f.Add(int64(1), int64(6), int64(249), int64(4_000), int64(3_000), int64(6_000), false, awake, int64(0))           // starts after it stopped
	f.Add(int64(1), int64(6), int64(249), int64(1_000), int64(never), int64(2_007), true, int64(1_600), int64(401))   // quiet at 600, wake at 1 001 = beat 4: heard at 1 007
	f.Add(int64(1), int64(6), int64(249), int64(1_000), int64(never), int64(2_006), true, int64(1_600), int64(401))   // the same, a tick before it lands: seeded
	f.Add(int64(1), int64(6), int64(249), int64(1_000), int64(never), int64(1_800), true, int64(1_600), int64(401))   // a tick inside the gap judges nothing
	f.Add(int64(1), int64(6), int64(249), int64(1_000), int64(2_001), int64(3_600), true, int64(1_600), int64(1_400)) // died at 900 in the gap [600, 2 000)
	f.Fuzz(func(t *testing.T, phase, flight, every, start, until, now int64, senderFirst bool, quiet, wake int64) {
		// The seeds' comments read their arguments as mapped here.
		mod := func(x int64, m uint64) sim.Time { return sim.Time(uint64(x) % m) }
		e := 1 + mod(every, 1_000)
		ph := mod(phase, uint64(e))
		fl := mod(flight, 2_000)
		st := mod(start, 60_000) - 1_000
		nw := mod(now, 60_000) - 1_000
		un := sim.Time(never)
		if until != never {
			un = mod(until, 60_000) - 1_000
		}
		ep := fuzzEpochs(quiet, wake)
		open, ok := awakeAt(ep, nw)
		if gotOpen, gotOK := ep.openAt(nw); gotOpen != open || gotOK != ok {
			t.Fatalf("epochs %v: openAt(%d) = %d, %v; want %d, %v", ep, nw, gotOpen, gotOK, open, ok)
		}
		if !ok {
			return // a gap: the watcher does not judge
		}
		k := sim.Time(1)
		for ph+k*e < max(st, open) {
			k++
		}
		want := ph + (k-1)*e
		for ; ; k++ {
			sent := ph + k*e
			if sent >= un || sent+fl > nw || (sent+fl == nw && !senderFirst) {
				break
			}
			want = sent + fl
		}
		l := beatLink{phase: ph, flight: fl, senderFirst: senderFirst, start: st}
		l.until.Store(int64(un))
		if got := l.lastHeard(e, nw, open); got != want {
			t.Fatalf("lastHeard(phase %d, flight %d, every %d, start %d, until %d, now %d, senderFirst %v, epochs %v) = %d, want %d",
				ph, fl, e, st, un, nw, senderFirst, ep, got, want)
		}
	})
}

// FuzzBeatCount checks the run's closed-form beat count against the schedule
// it stands for: a stream sends beat k = 1, 2, … at phase + k·every while
// that instant lies inside an epoch, at or after start and before both until
// (the first beat it does not send) and end (the covered bound, past which
// no tick ran). The seeds cover an end before the first beat, an until at or
// before the end, an end landing exactly on a beat, streams that start late,
// and epochs: a beat due exactly at a gap's close tick (not sent) and at its
// open tick (sent), a gap longer than the run, and a sender that died inside
// a gap.
func FuzzBeatCount(f *testing.F) {
	const awake = int64(never)
	f.Add(int64(1), int64(249), int64(1_000), int64(never), int64(1_200), awake, int64(0))            // end before the first beat
	f.Add(int64(1), int64(249), int64(1_000), int64(1_501), int64(3_000), awake, int64(0))            // until before the end
	f.Add(int64(1), int64(249), int64(1_000), int64(1_751), int64(1_751), awake, int64(0))            // until at the end
	f.Add(int64(5), int64(249), int64(1_000), int64(never), int64(1_755), awake, int64(0))            // end exactly on a beat
	f.Add(int64(5), int64(249), int64(1_000), int64(never), int64(1_756), awake, int64(0))            // end just past a beat
	f.Add(int64(0), int64(0), int64(1_000), int64(960), int64(11_000), awake, int64(0))               // until before the stream starts
	f.Add(int64(63), int64(99), int64(1_000), int64(never), int64(997), awake, int64(0))              // negative end
	f.Add(int64(1), int64(249), int64(2_751), int64(never), int64(3_600), awake, int64(0))            // starts on a beat
	f.Add(int64(1), int64(249), int64(2_752), int64(3_001), int64(3_600), awake, int64(0))            // starts between beats, stops
	f.Add(int64(1), int64(249), int64(1_000), int64(never), int64(4_000), int64(1_751), int64(500))   // gap [751, 1 251): beat 3 at its close is not sent, beat 5 at its open is
	f.Add(int64(1), int64(249), int64(1_000), int64(never), int64(4_000), int64(1_751), int64(9_999)) // the gap outlasts the run
	f.Add(int64(1), int64(249), int64(1_000), int64(2_001), int64(5_000), int64(1_600), int64(1_400)) // died at 900 in the gap [600, 2 000)
	f.Fuzz(func(t *testing.T, phase, every, start, until, end, quiet, wake int64) {
		// The seeds' comments read their arguments as mapped here.
		mod := func(x int64, m uint64) sim.Time { return sim.Time(uint64(x) % m) }
		e := 1 + mod(every, 1_000)
		ph := mod(phase, uint64(e))
		st := mod(start, 60_000) - 1_000
		en := mod(end, 60_000) - 1_000
		un := sim.Time(never)
		if until != never {
			un = mod(until, 60_000) - 1_000
		}
		ep := fuzzEpochs(quiet, wake)
		var want int64
		for sent := ph + e; sent < un && sent < en; sent += e {
			if _, awake := awakeAt(ep, sent); awake && sent >= st {
				want++
			}
		}
		l := beatLink{phase: ph, start: st}
		l.until.Store(int64(un))
		if got := l.sent(e, en, ep); got != want {
			t.Fatalf("sent(phase %d, every %d, start %d, until %d, end %d, epochs %v) = %d, want %d", ph, e, st, un, en, ep, got, want)
		}
	})
}

// TestDetectorWatchesAcrossTheDead is the completeness clause where no
// neighbour is left to watch: a processor that dies with every neighbour at
// once, and one that dies after all its neighbours did, are still declared
// by every survivor, with no live processor suspected. Only a detector that
// heals over the dead reports them (beater.heal); the machine is idle, so no
// reply timer could. Without acks nothing else would tell a parent that the
// work it placed there is lost.
func TestDetectorWatchesAcrossTheDead(t *testing.T) {
	const victim, every = proto.ProcID(27), DefaultHeartbeatEvery
	for _, kind := range []string{"mesh", "torus", "hypercube"} {
		topo := mustTopo(t, kind, 64)
		var ring []faults.Fault
		for _, nb := range topo.Neighbors(topology.NodeID(victim)) {
			ring = append(ring, faults.Fault{At: 2 * every, Proc: proto.ProcID(nb), Kind: faults.CrashSilent})
		}
		for _, tc := range []struct {
			name string
			at   sim.Time // when the victim dies, after its ring at 2·every
		}{{"with its neighbours", 2 * every}, {"after its neighbours", 8 * every}} {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				plan := &faults.Plan{Faults: append(slices.Clone(ring), faults.Fault{At: int64(tc.at), Proc: victim, Kind: faults.CrashSilent})}
				m, s := startIdleCfg(t, Config{Topo: topo, Scheme: recovery.Rollback(), Seed: 1}, plan)
				bound := tc.at + 8*every
				m.kern.RunUntil(bound, 0)
				for _, p := range m.procs {
					for _, f := range plan.Faults {
						if !p.dead && !p.faulty[f.Proc] {
							t.Errorf("processor %d has not declared %d by t=%d", p.id, f.Proc, bound)
						}
					}
				}
				if got := s.Finish().Metrics; got.FalseSuspicions != 0 || got.FirstDetections != int64(len(plan.Faults)) {
					t.Errorf("%d of %d failures detected, %d false suspicions", got.FirstDetections, len(plan.Faults), got.FalseSuspicions)
				}
			})
		}
	}
}

// frameLen is the length of the frame net would write for a heartbeat from
// from to to: a header and the modelled 16-byte payload.
func frameLen(from, to proto.ProcID) int64 {
	return int64(len(proto.AppendFrame(nil, &proto.Frame{Type: proto.FrameHeartbeat, From: from, To: to, Payload: make([]byte, 16)})))
}

// TestClosedFormBeatsSizedPerAddressee: the detector's beats and the host's
// quiet and wake frames are charged in closed form, never sent, and each is
// charged the frame its sender and addressee make — ids from 64 on take two
// bytes — not one size for all. On a 100-processor machine served with quiet
// gaps, the beats count charges each stream's beats their own frame length,
// and a quiet frame charges the sum over all 100 addressees.
func TestClosedFormBeatsSizedPerAddressee(t *testing.T) {
	m, s := startIdleCfg(t, Config{Topo: mustTopo(t, "torus", 100), Scheme: recovery.Rollback(), Seed: 1}, nil)
	serveIdling(t, m, s, 10, 2, 5*m.cfg.HeartbeatEvery)
	h := hb(m)
	var mt trace.Metrics
	h.count(&mt)
	var beats, bytes int64
	wide := false
	end := m.kern.Covered()
	for i := range h.at {
		b := &h.at[i]
		for j, l := range b.beats {
			n := l.sent(h.every, end, h.epochs)
			beats += n
			bytes += n * frameLen(b.p.id, b.beatTo[j])
			wide = wide || n > 0 && (b.p.id >= 64 || b.beatTo[j] >= 64)
		}
	}
	if !wide || mt.MsgHeartbeat != beats || mt.BytesOnWire != bytes {
		t.Errorf("%d beats charged %d bytes, want %d beats in %d bytes, some to or from a processor past 63 (%v)",
			mt.MsgHeartbeat, mt.BytesOnWire, beats, bytes, wide)
	}

	sc := m.shardOf(m.host)
	was := sc.metrics.BytesOnWire
	s.detectorFrame()
	var want int64
	for to := range proto.ProcID(100) {
		want += frameLen(proto.HostID, to)
	}
	if got := sc.metrics.BytesOnWire - was; got != want || want != 100*20+36 {
		t.Errorf("a quiet frame to all 100 processors charged %d bytes, want %d: 100 of 20 bytes and 36 two-byte ids", got, want)
	}
}
