package machine

import (
	"fmt"
	"testing"

	"repro/internal/balance"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/recovery"
	"repro/internal/sim"
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

// heartbeatEvents counts, from the schedule alone, the kernel events an idle
// machine's failure detector dispatches in the first `ticks` ticks: each
// processor's tick, every period from period + its phase. The beats those
// ticks send are accounted but never delivered — the watchers read them off
// their schedule — so they dispatch nothing.
func heartbeatEvents(m *Machine, ticks sim.Time) uint64 {
	every := m.cfg.HeartbeatEvery
	var n uint64
	for _, p := range m.procs {
		if first := every + beatPhase(p.id, every); first <= ticks {
			n += uint64((ticks-first)/every) + 1
		}
	}
	return n
}

// TestIdleMachineSchedulesOnlyHeartbeats pins the gating of the gossip
// service: only the gradient policy reads gossiped load, so under every
// other placement an idle processor's one periodic event is its heartbeat
// tick — every dispatched event is one (2 497 on torus-64 in 10 000 ticks).
func TestIdleMachineSchedulesOnlyHeartbeats(t *testing.T) {
	const ticks = 10_000
	for _, placement := range []balance.Policy{balance.NewRandom(), balance.NewStaticHash(), balance.NewLocal()} {
		t.Run(placement.Name(), func(t *testing.T) {
			m, rep := idleMachine(t, "torus", placement, ticks)
			if want := heartbeatEvents(m, ticks); rep.Events != want {
				t.Errorf("idle machine dispatched %d events, want %d (heartbeat ticks only)", rep.Events, want)
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
	wantEvents := heartbeatEvents(m, ticks)
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
// do nothing, and the rest of the machine keeps beating.
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
	if got := m.kern.Pending(); got != pending-1 {
		t.Errorf("die removed %d pending events, want 1 (the heartbeat)", pending-got)
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

// BenchmarkIdleMachine is the profiling entry point for the background path:
// 64 processors with nothing to do but beat to their neighbours for 100 000
// virtual ticks, so the heartbeat ticks — the detector's closed-form reads
// and the beats' accounting — and the kernel's heap are the whole cost.
// Speed claims are made with `bash bench/run.sh`, not here.
//
//	go test -run '^$' -bench IdleMachine -benchtime 5x -cpuprofile /tmp/idle.prof ./internal/machine
func BenchmarkIdleMachine(b *testing.B) {
	for _, kind := range []string{"torus", "hypercube"} {
		b.Run(fmt.Sprintf("%s-64", kind), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				_, rep := idleMachine(b, kind, balance.NewRandom(), 100_000)
				events += rep.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
