package machine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
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

// FuzzDetectionOrder is the detector's contract as an adversary:
// a stream of requests — program × topology × scheme × fault plan × arrival
// × machine seed — runs under a scripted Detector drawn from the script
// seed, so processors learn of each crash in any order the contract allows.
// Every request answers lang.RefEval's value or ends typed: an evaluation
// error, or unanswered at its deadline, which recovery does not promise
// when the dead cut survivors off. No (stamp, hole) is filled with a value
// the fault-free run does not give it, and every checkpoint is released or
// its owner dead. Every path that hands a task, a hole record, a packet or
// a result back to a free list runs under it. The corpus holds apsim's
// pinned fault draws (cmd/apsim/testdata/runs) and S2's two-wave cascade at
// seed 4 under rollback and splice.
//
//	go test -run '^$' -fuzz FuzzDetectionOrder -fuzztime 10s ./internal/machine
func FuzzDetectionOrder(f *testing.F) {
	lines, err := filepath.Glob("../../cmd/apsim/testdata/runs/*.line")
	if err != nil || len(lines) == 0 {
		f.Fatalf("no pinned runs: %v", err)
	}
	for _, file := range lines {
		b, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		flags := map[string]string{"-seed": "1", "-max-inflight": "0"}
		for kv := strings.Fields(string(b)); len(kv) >= 2; kv = kv[2:] {
			flags[kv[0]] = kv[1]
		}
		num := func(name string) int64 {
			v, err := strconv.ParseInt(flags[name], 10, 64)
			if err != nil {
				f.Fatalf("%s: %s %q: %v", file, name, flags[name], err)
			}
			return v
		}
		f.Add(flags["-topology"], uint8(num("-procs")), flags["-workload"], flags["-recovery"], flags["-fault"],
			uint8(num("-requests")), flags["-arrive"], uint8(num("-max-inflight")), num("-seed"), int64(1))
	}
	// S2's two-wave cascade at seed 4: tree:3,6 on torus-64, the wave from
	// processor 9 at 3/10 of the fault-free makespan, the next a tenth later.
	torus := mustTopo(f, "torus", 64)
	m0 := runMachine(f, Config{Topo: torus, Scheme: recovery.Rollback(), Seed: 4}, lang.TreeSum(3), "tree", []expr.Value{expr.VInt(6)}, nil).Makespan
	cascade := faults.Cascade(torus, 9, int64(m0)*3/10, int64(m0)/10, 2, 1.0, faults.CrashAnnounced, 4).String()
	for _, scheme := range []string{"rollback", "splice"} {
		f.Add("torus", uint8(64), "tree:3,6", scheme, cascade, uint8(1), "uniform:1", uint8(0), int64(4), int64(4))
	}
	f.Fuzz(func(t *testing.T, kind string, procs uint8, work, scheme, spec string, requests uint8, arrive string, inflight uint8, seed, script int64) {
		topo, terr := topology.ByName(kind, int(procs))
		prog, fn, args, tasks := fuzzWorkload(work)
		sch, serr := recovery.ByName(scheme)
		arr, aerr := workload.ParseArrival(arrive)
		var plan faults.Plan
		if procs < 2 || procs > 64 || requests == 0 || tasks == 0 || int(requests)*tasks > 12_000 || terr != nil || serr != nil || aerr != nil ||
			plan.Set(spec) != nil || plan.Validate(int(procs)) != nil || len(plan.Faults) >= int(procs) {
			t.Skip("outside the fuzzed space")
		}
		for _, ft := range plan.Faults {
			if ft.Kind == faults.Corrupt || ft.At > 100_000 {
				t.Skip("a corrupt fault's claim is the majority value, not the reference")
			}
		}
		want, err := lang.RefEval(prog, fn, args)
		if err != nil {
			t.Skip("the program itself fails")
		}
		run := func(plan *faults.Plan) (*Machine, []*Req, map[string]string) {
			tl := trace.NewLog()
			m, err := New(Config{Topo: topo, Scheme: sch, Seed: seed, Trace: tl, Deadline: 400_000}, prog)
			if err != nil {
				t.Fatal(err)
			}
			m.det = &scripted{m: m, rng: rand.New(rand.NewSource(script))}
			next := arr.Next(seed)
			var sched []sim.Time
			s, err := m.Serve(ServeConfig{Admission: admission.Policy{MaxInFlight: int(inflight)}, NextArrival: func(i int) sim.Time {
				for len(sched) <= i {
					sched = append(sched, sim.Time(next()))
				}
				return sched[i]
			}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Inject(plan); err != nil {
				t.Fatal(err)
			}
			reqs := make([]*Req, requests)
			for i := range reqs {
				if reqs[i], err = s.Submit(work, prog, fn, args); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range reqs {
				s.Wait(r)
			}
			s.Finish()
			return m, reqs, stampValues(t, tl)
		}
		_, _, oracle := run(faults.None())
		m, reqs, got := run(&plan)
		for _, r := range reqs {
			if r.Done() && !r.Answer().Equal(want) {
				t.Errorf("request %d answered %v, want %v", r.ID(), r.Answer(), want)
			}
		}
		for pair, v := range got {
			if w, ok := oracle[pair]; !ok || w != v {
				t.Errorf("%s := %s; the fault-free run fills it with %q", pair, v, w)
			}
		}
		expectSlotsOwned(t, m)
	})
}

// fuzzWorkload reads apsim's fib:N and tree:F,D specs, up to fib:16 and
// tree:4,6, and counts the tasks one request spawns; 0 rejects the spec.
func fuzzWorkload(spec string) (*lang.Program, string, []expr.Value, int) {
	var a, b int64
	switch {
	case fuzzScan(spec, "fib:%d", &a) && a <= 16:
		f, g := 1, 1 // fib(n) spawns 2·fib(n+1) − 1 tasks
		for range a {
			f, g = g, f+g
		}
		return lang.Fib(), "fib", []expr.Value{expr.VInt(a)}, 2*f - 1
	case fuzzScan(spec, "tree:%d,%d", &a, &b) && a >= 1 && a <= 4 && b <= 6:
		tasks, level := 1, 1
		for range b {
			level *= int(a)
			tasks += level
		}
		return lang.TreeSum(int(a)), "tree", []expr.Value{expr.VInt(b)}, tasks
	}
	return nil, "", nil, 0
}

// fuzzScan is fmt.Sscanf that also rejects trailing input and negative
// values.
func fuzzScan(spec, format string, vals ...*int64) bool {
	args := make([]any, len(vals))
	for i, v := range vals {
		args[i] = v
	}
	if n, err := fmt.Sscanf(spec, format, args...); n != len(vals) || err != nil {
		return false
	}
	rendered := make([]any, len(vals))
	for i, v := range vals {
		if *v < 0 {
			return false
		}
		rendered[i] = *v
	}
	return fmt.Sprintf(format, rendered...) == spec
}
