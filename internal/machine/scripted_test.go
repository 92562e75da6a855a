package machine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scripted is a Detector that stands for any the detector's contract
// allows, not only the heartbeat schedule: for each crash it picks, from its
// seed, one live processor to learn of the death first-hand, and a tick
// anywhere inside the completeness bound — a hop after the crash at the
// soonest, since no news of it travels faster, and at the latest the crash
// plus DefaultHeartbeatMisses+1 periods and that processor's flight time from
// the victim. The announcement path does the rest. A processor that dies
// before its tick hands the news to another live one, a hop later, as a
// watch over the dead would. It sends nothing, so it counts nothing.
type scripted struct {
	m   *Machine
	rng *rand.Rand
}

func (*scripted) suspected(*proc, proto.ProcID) {}
func (*scripted) frame(sim.Time)                {}
func (*scripted) count(*trace.Metrics)          {}

func (s *scripted) died(p *proc) {
	w := s.pick()
	if w == nil {
		return
	}
	now := s.m.shardOf(p).Now()
	soonest := now + flightTime(1)
	bound := now + (DefaultHeartbeatMisses+1)*s.m.cfg.HeartbeatEvery + flightTime(s.m.hops(p.id, w.id))
	s.tell(p, w, p.id, soonest+sim.Time(s.rng.Int63n(int64(bound-soonest)+1)))
}

// pick draws a live processor, nil when none is left.
func (s *scripted) pick() *proc {
	var live []*proc
	for _, q := range s.m.procs {
		if !q.dead {
			live = append(live, q)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live[s.rng.Intn(len(live))]
}

// tell makes w, from p's event, declare victim at the tick at: the Wake
// attributes the tick to w, on w's shard.
func (s *scripted) tell(p, w *proc, victim proto.ProcID, at sim.Time) {
	s.m.shardOf(p).Wake(int32(w.idx), func() {
		ws := s.m.shardOf(w)
		ws.At(at, func() {
			if !w.dead {
				w.declareFaulty(victim, false)
			} else if r := s.pick(); r != nil {
				s.tell(w, r, victim, ws.Now()+flightTime(1))
			}
		})
	})
}

// TestRecoveryUnderScriptedDetection runs TestEveryStampHasOneValue's plans
// under detection orders the heartbeat schedule never produces: at each of
// eight script seeds a scripted Detector decides who learns of each crash
// first-hand, and when. Rollback and incremental place directly without
// acks, so the detector is their only loss signal; splice keeps its acks
// and recreates lost work as twins. Every run recovers (rollback and
// incremental by reissue, splice by reissue or twin), answers lang.RefEval's
// value, fills each (stamp, hole) only with the fault-free run's value and
// fills all of them — under splice a hole a twin prefilled from an inherited
// result counts as filled — detects every crash, suspects nobody alive and
// ends with every checkpoint released or its owner dead.
func TestRecoveryUnderScriptedDetection(t *testing.T) {
	prog, args := lang.Fib(), []expr.Value{expr.VInt(12)}
	run := func(t *testing.T, scheme recovery.Scheme, plan *faults.Plan, script int64) (*Report, map[string]string) {
		m, err := New(Config{Topo: mustTopo(t, "torus", 16), Scheme: scheme, Seed: 1, Trace: trace.NewLog()}, prog)
		if err != nil {
			t.Fatal(err)
		}
		if script > 0 {
			m.det = &scripted{m: m, rng: rand.New(rand.NewSource(script))}
		}
		rep, err := m.Run("fib", args, plan)
		if err != nil {
			t.Fatal(err)
		}
		expectAnswer(t, rep, prog, "fib", args)
		expectSlotsOwned(t, m)
		return rep, stampValues(t, rep.Log)
	}
	_, oracle := run(t, recovery.Rollback(), nil, 0)
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{{"3,9", silentCrashes(3, 9)}, {"3,9,5", silentCrashes(3, 9, 5)}, {"region", deadRegion()}} {
		for _, scheme := range []recovery.Scheme{recovery.Rollback(), recovery.Incremental(), recovery.Splice()} {
			for script := int64(1); script <= 8; script++ {
				t.Run(fmt.Sprintf("%s/%s/script-%d", scheme.Name(), tc.name, script), func(t *testing.T) {
					rep, got := run(t, scheme, tc.plan, script)
					m, splice := rep.Metrics, scheme.SalvagesOrphans()
					recovered := m.Reissues
					if splice {
						recovered += m.Twins
					}
					if recovered == 0 || m.FalseSuspicions != 0 || m.FirstDetections != m.Failures {
						t.Errorf("%d reissues, %d twins; %d of %d crashes detected, %d false suspicions", m.Reissues, m.Twins, m.FirstDetections, m.Failures, m.FalseSuspicions)
					}
					for pair, v := range got {
						if want, ok := oracle[pair]; !ok || want != v {
							t.Errorf("%s := %s; the fault-free run fills it with %q", pair, v, want)
						}
					}
					filled := len(got)
					if splice {
						for pair := range prefilled(rep.Log) {
							if _, ok := oracle[pair]; !ok {
								t.Errorf("%s prefilled; the fault-free run never fills it", pair)
							} else if _, ok := got[pair]; !ok {
								filled++
							}
						}
					}
					if filled != len(oracle) {
						t.Errorf("%d of %d pairs filled (%d by a result)", filled, len(oracle), len(got))
					}
				})
			}
		}
	}
}

// prefilled is the set of (stamp, hole) pairs a run filled from an
// inherited result as it issued the demand (§4.1 cases 4/5), keyed as
// stampValues keys them.
func prefilled(log *trace.Log) map[string]bool {
	out := map[string]bool{}
	for _, ev := range log.Events {
		if hole, ok := strings.CutSuffix(ev.Note, " inherited"); ev.Kind == trace.KPrefill && ok {
			out[ev.Task+" "+hole] = true
		}
	}
	return out
}
