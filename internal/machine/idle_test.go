package machine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/balance"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/trace"
)

// startIdle starts a fault-free 64-processor rollback machine with no
// request: only its periodic services are scheduled.
func startIdle(t testing.TB, kind string, placement balance.Policy) (*Machine, *Session) {
	t.Helper()
	return startIdleCfg(t, Config{Topo: mustTopo(t, kind, 64), Scheme: recovery.Rollback(), Placement: placement, Seed: 1}, nil)
}

// startIdleCfg starts a machine with no request under the given fault plan.
func startIdleCfg(t testing.TB, cfg Config, plan *faults.Plan) (*Machine, *Session) {
	t.Helper()
	m, err := New(cfg, lang.Fib())
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Serve(ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Inject(plan); err != nil {
		t.Fatal(err)
	}
	s.start()
	return m, s
}

// idleMachine lets an idle machine's services run for the given virtual
// ticks and closes its books.
func idleMachine(t testing.TB, kind string, placement balance.Policy, ticks sim.Time) (*Machine, *Report) {
	t.Helper()
	m, s := startIdle(t, kind, placement)
	m.kern.RunUntil(ticks, 0)
	return m, s.Finish()
}

// TestIdleMachineSchedulesOnlyHeartbeats pins the cost of an idle machine:
// only the gradient policy reads gossiped load, so under every other
// placement an idle processor's one periodic service is its heartbeat — and
// a processor's heartbeat ticks start only once a stream into it stops. So
// an idle torus-64 dispatches no event at all in 10 000 ticks, while its
// beats are still sent and counted (TestHeartbeatCostClosedForm).
func TestIdleMachineSchedulesOnlyHeartbeats(t *testing.T) {
	const ticks = 10_000
	for _, placement := range []balance.Policy{balance.NewRandom(), balance.NewStaticHash(), balance.NewLocal()} {
		t.Run(placement.Name(), func(t *testing.T) {
			_, rep := idleMachine(t, "torus", placement, ticks)
			if rep.Events != 0 {
				t.Errorf("idle machine dispatched %d events, want 0", rep.Events)
			}
			if rep.Metrics.MsgLoad != 0 {
				t.Errorf("MsgLoad = %d, want 0", rep.Metrics.MsgLoad)
			}
			if rep.Metrics.Detections != 0 {
				t.Errorf("%d detections on a fault-free idle machine", rep.Metrics.Detections)
			}
		})
	}
}

// TestIdleGradientMachineUnchanged pins the other side of the gate: under
// the gradient policy the gossip service runs beside the detector. An idle
// processor's gradient never changes after its first gossip tick, so it
// broadcasts once — one load message per directed neighbour pair, all
// delivered — and then only ticks, every DefaultLoadGossipEvery from
// 1 + i mod DefaultLoadGossipEvery.
func TestIdleGradientMachineUnchanged(t *testing.T) {
	const ticks = 10_000
	m, rep := idleMachine(t, "torus", balance.NewGradient(), ticks)
	var wantMsgLoad int64
	var wantEvents uint64
	for i, p := range m.procs {
		wantMsgLoad += int64(len(p.neighbors))
		first := sim.Time(1 + i%DefaultLoadGossipEvery)
		wantEvents += uint64((ticks-first)/DefaultLoadGossipEvery) + 1 // gossip ticks
	}
	wantEvents += uint64(wantMsgLoad) // the one broadcast's deliveries
	if rep.Events != wantEvents || rep.Metrics.MsgLoad != wantMsgLoad {
		t.Errorf("gradient idle machine: Events=%d MsgLoad=%d, want %d/%d",
			rep.Events, rep.Metrics.MsgLoad, wantEvents, wantMsgLoad)
	}
}

// TestDieWithUnarmedGossipTimerIsInert kills a processor whose gossip timer
// was never armed (any non-gradient placement): stopping the zero Timer must
// do nothing, no heartbeat is pending to remove, and the neighbours — woken
// because the victim's streams into them stopped — still detect the crash.
func TestDieWithUnarmedGossipTimerIsInert(t *testing.T) {
	m, s := startIdle(t, "torus", balance.NewRandom())
	m.kern.RunUntil(1_000, 0)
	p := m.procs[5]
	if p.gossipTimer.Active() {
		t.Fatal("gossip timer armed under random placement")
	}
	pending := m.kern.Pending()
	p.die(false)
	if p.gossipTimer.Active() || p.hbTimer.Active() {
		t.Error("timers still active after die")
	}
	if got := m.kern.Pending(); got != pending {
		t.Errorf("die removed %d pending events, want 0 (an idle machine has no heartbeat pending)", pending-got)
	}
	m.kern.RunUntil(5_000, 0)
	rep := s.Finish()
	if rep.Metrics.MsgLoad != 0 {
		t.Errorf("MsgLoad = %d, want 0", rep.Metrics.MsgLoad)
	}
	if rep.Metrics.Detections == 0 {
		t.Error("neighbours never detected the silent crash")
	}
}

// armAll starts every processor's heartbeat chain at its first tick, as if
// every stream had always needed watching: the reference a lazily woken
// machine must reproduce.
func armAll(m *Machine) {
	every := m.cfg.HeartbeatEvery
	for _, p := range m.procs {
		p.ticking = true
		p.nextBeat = every + beatPhase(p.id, every)
		p.hbTimer = m.kern.AtOn(p.nextBeat, int32(p.idx), p.hbFn)
	}
}

// firstDetection is the closed form of a watcher's verdict on one stream:
// the first tick of watcher q (its phase + k·every) at which the stream from
// the victim has been silent past the limit.
func firstDetection(q *proc, l *beatLink) sim.Time {
	d := &q.det
	for tick := beatPhase(q.id, d.every) + d.every; ; tick += d.every {
		if tick-l.lastHeard(d.every, tick) > d.limit {
			return tick
		}
	}
}

// TestSilentCrashWakesOnlyItsNeighbours is the cost contract under a fault:
// one silent crash on an idle torus-64 starts the tick chains of exactly the
// victim's neighbours — the watchers of the streams that stopped — and
// nobody else's. Their verdicts land on the very ticks a machine that ticks
// everywhere reaches, traces and reports byte-identical but for the events
// the idle ticks cost, and the first detection is at the earliest
// neighbour's closed-form verdict. The crash times cover the seeded phase
// (before the victim's first beat), its first beat (a driver-scheduled tick
// tied with the crash), a later beat and a sweep of one period; every shard
// count wakes the same processors at the same ticks.
func TestSilentCrashWakesOnlyItsNeighbours(t *testing.T) {
	const victim = 27
	topo := mustTopo(t, "torus", 64)
	every := sim.Time(DefaultHeartbeatEvery)
	crashes := []sim.Time{100, every + victim, 2*every + victim}
	for c := 2 * every; c < 3*every; c += every/10 + 1 {
		crashes = append(crashes, c)
	}
	for _, crash := range crashes {
		plan := faults.Crash(victim, int64(crash), false)
		until := crash + 5*every
		run := func(shards int, reference bool) (*Machine, *Report, string) {
			tl := trace.NewLog()
			m, s := startIdleCfg(t, Config{Topo: topo, Scheme: recovery.Rollback(), Seed: 1, Shards: shards, Trace: tl}, plan)
			if reference {
				armAll(m)
			}
			m.kern.RunUntil(until, 0)
			return m, s.Finish(), traceDump(tl)
		}
		refM, ref, refTrace := run(1, true)
		for _, shards := range []int{1, 2, 4} {
			m, rep, tr := run(shards, false)
			nbs := m.procs[victim].neighbors
			var woken []proto.ProcID
			for _, p := range m.procs {
				if p.ticking {
					woken = append(woken, p.id)
				}
			}
			if !slices.Equal(woken, nbs) {
				t.Errorf("crash at %d, %d shards: ticking %v, want the victim's neighbours %v", crash, shards, woken, nbs)
			}
			if tr != refTrace {
				t.Errorf("crash at %d, %d shards: trace diverged from ticking everywhere (%s)", crash, shards, firstTraceDiff(refTrace, tr))
			}
			if rep.Events >= ref.Events {
				t.Errorf("crash at %d, %d shards: %d events, not fewer than ticking everywhere (%d)", crash, shards, rep.Events, ref.Events)
			}
			rep.Events = ref.Events
			if got, want := reportLine(rep), reportLine(ref); got != want {
				t.Errorf("crash at %d, %d shards: report\n got  %s\n want %s", crash, shards, got, want)
			}
			first := sim.Time(-1)
			for i, nb := range nbs {
				l := &m.procs[nb].det.in[slices.Index(m.procs[nb].neighbors, victim)]
				at := firstDetection(m.procs[nb], l)
				if first < 0 || at < first {
					first = at
				}
				if !m.procs[nb].faulty[victim] || !refM.procs[nbs[i]].faulty[victim] {
					t.Errorf("crash at %d: neighbour %d never declared the victim", crash, nb)
				}
			}
			if got := rep.Metrics; got.FirstDetections != 1 || crash+sim.Time(got.DetectLatencySum) != first {
				t.Errorf("crash at %d, %d shards: first detection at %d (%d first detections), want %d",
					crash, shards, crash+sim.Time(got.DetectLatencySum), got.FirstDetections, first)
			}
		}
	}
}

// BenchmarkIdleMachine is the profiling entry point for the background path:
// 64 processors with nothing to do for 100 000 virtual ticks but watch one
// silent crash at t = 2 000. Only the victim's neighbours tick — a machine
// with no crash dispatches nothing — so the detector's closed-form reads,
// the tick chains and the kernel's heap are the whole cost.
// Speed claims are made with `bash bench/run.sh`, not here.
//
//	go test -run '^$' -bench IdleMachine -benchtime 5x -cpuprofile /tmp/idle.prof ./internal/machine
func BenchmarkIdleMachine(b *testing.B) {
	for _, kind := range []string{"torus", "hypercube"} {
		b.Run(fmt.Sprintf("%s-64", kind), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				cfg := Config{Topo: mustTopo(b, kind, 64), Scheme: recovery.Rollback(), Seed: 1}
				m, s := startIdleCfg(b, cfg, faults.Crash(27, 2_000, false))
				m.kern.RunUntil(100_000, 0)
				events += s.Finish().Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
