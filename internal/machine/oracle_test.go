package machine

import (
	"cmp"
	"errors"
	"maps"
	"sort"
	"strconv"
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

// stampValues is a run's (stamp, hole) → value map, read off the trace's
// result events ("hole N := V"). It fails t if one pair is filled twice
// with different values.
func stampValues(t *testing.T, log *trace.Log) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, ev := range log.Events {
		hole, v, ok := strings.Cut(ev.Note, " := ")
		if ev.Kind != trace.KResult || !ok {
			continue
		}
		key := ev.Task + " " + hole
		if old, seen := out[key]; seen && old != v {
			t.Errorf("%s filled with %s and with %s", key, old, v)
		}
		out[key] = v
	}
	return out
}

// TestEveryStampHasOneValue is determinacy (§2.1) at stamp granularity: a
// level stamp (§3.1) names one position in the call tree, so every hole
// filled under it receives the same value in every run of the program, at
// any scheme and fault plan. A recovered run therefore fills only pairs the
// fault-free run fills, each with the fault-free value, and all of them. A
// wrong value the program later discarded, or a twin that inherited a wrong
// orphan result, fails here even when the answer matches. Each plan runs
// under both evaluators against the default evaluator's fault-free run
// (subtests of the other one are named for it), and ends with every
// checkpoint released or its owner dead (expectSlotsOwned).
func TestEveryStampHasOneValue(t *testing.T) {
	prog, args := lang.Fib(), []expr.Value{expr.VInt(12)}
	traced := func(eval string, scheme recovery.Scheme, plan *faults.Plan) (*Report, map[string]string) {
		cfg := Config{Topo: mustTopo(t, "torus", 16), Scheme: scheme, Seed: 1, Eval: eval, Trace: trace.NewLog()}
		m, rep := runKept(t, cfg, prog, "fib", args, plan)
		expectAnswer(t, rep, prog, "fib", args)
		expectSlotsOwned(t, m)
		return rep, stampValues(t, rep.Log)
	}
	_, oracle := traced(lang.DefaultEvaluator, recovery.Rollback(), nil)
	for _, tc := range []struct {
		name   string
		scheme recovery.Scheme
		plan   *faults.Plan
	}{
		{"rollback", recovery.Rollback(), silentCrashes(3, 9)},
		{"rollback-lazy", recovery.RollbackLazy(), silentCrashes(3, 9)},
		{"incremental", recovery.Incremental(), silentCrashes(3, 9, 5)},
		{"splice", recovery.Splice(), silentCrashes(3, 9)},
		{"rollback/region", recovery.Rollback(), deadRegion()},
	} {
		for _, eval := range lang.Evaluators() {
			t.Run(evalName(eval, tc.name), func(t *testing.T) {
				rep, got := traced(eval, tc.scheme, tc.plan)
				if rep.Metrics.Reissues+rep.Metrics.Twins == 0 {
					t.Fatalf("no recovery: the plan missed the run (makespan %d)", rep.Makespan)
				}
				for pair, v := range got {
					if want, ok := oracle[pair]; !ok || want != v {
						t.Errorf("%s := %s; the fault-free run fills it with %q", pair, v, want)
					}
				}
				// Every pair is filled again, unless an inherited result filled
				// it before its demand was issued (splice's prefill).
				if missing := int64(len(oracle) - len(got)); missing > rep.Metrics.Prefills {
					t.Errorf("%d of %d pairs never filled, %d prefilled", missing, len(oracle), rep.Metrics.Prefills)
				}
			})
		}
	}
}

// silentCrashes is a plan of silent crashes of procs on the stamp oracle's
// fib(12) run, 200 ticks apart from t = 300.
func silentCrashes(procs ...int) *faults.Plan {
	plan := faults.None()
	for i, q := range procs {
		plan = plan.Add(faults.Fault{At: int64(300 + 200*i), Proc: proto.ProcID(q), Kind: faults.CrashSilent})
	}
	return plan
}

// deadRegion silently kills processors 1, 4, 5, 6, 9 and 13 of torus-16 at
// t = 300: processor 5 dies with every neighbour, so only a watch across
// the dead reports it.
func deadRegion() *faults.Plan {
	return silentCrashes(5).Merge(faults.Crash(1, 300, false)).Merge(faults.Crash(4, 300, false)).
		Merge(faults.Crash(6, 300, false)).Merge(faults.Crash(9, 300, false)).Merge(faults.Crash(13, 300, false))
}

// evalName names a subtest run under eval: the default evaluator's keeps
// the case's name, the other's is prefixed with it.
func evalName(eval, name string) string {
	if eval == lang.DefaultEvaluator {
		return name
	}
	return eval + "/" + name
}

// TestStreamStampsHaveOneValue is the same oracle over a served stream:
// three requests on one machine under rollback, faulted two ways. In the
// first plan a silent crash falls between the first two requests and one
// inside each of the others. In the second, one processor dies in each quiet
// gap, so nothing is lost until the next request places work on the dead
// processor, which nobody has judged yet: every reissue is of such work.
// Request i roots its tree at stamp [i] in both streams, so every
// (stamp, hole) pair a faulted stream fills must hold the fault-free
// stream's value, and it fills no pair the fault-free stream lacks. Each
// plan runs under both evaluators, as in TestEveryStampHasOneValue.
func TestStreamStampsHaveOneValue(t *testing.T) {
	const gap, inside = 20_000, 300
	prog := lang.Fib()
	stream := func(eval string, plan *faults.Plan) (*Machine, *Report, []*Req, map[string]string) {
		tl := trace.NewLog()
		m, err := New(Config{Topo: mustTopo(t, "torus", 16), Scheme: recovery.Rollback(), Seed: 1, Eval: eval, Trace: tl}, prog)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Serve(ServeConfig{NextArrival: every(gap)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Inject(plan); err != nil {
			t.Fatal(err)
		}
		var reqs []*Req
		for _, n := range []int64{10, 11, 12} {
			r, err := s.Submit("", prog, "fib", []expr.Value{expr.VInt(n)})
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, r)
		}
		for _, r := range reqs {
			s.Wait(r)
			want, err := lang.RefEval(prog, "fib", r.args)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Done() || !r.Answer().Equal(want) {
				t.Fatalf("request %d: done=%v answer %v, want %v", r.ID(), r.Done(), r.Answer(), want)
			}
		}
		return m, s.Finish(), reqs, stampValues(t, tl)
	}
	_, _, _, oracle := stream(lang.DefaultEvaluator, faults.None())
	silent := func(at int64, q proto.ProcID) faults.Fault {
		return faults.Fault{At: at, Proc: q, Kind: faults.CrashSilent}
	}
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"between and inside", faults.None().Add(silent(gap/2, 3)).Add(silent(gap+inside, 9)).Add(silent(2*gap+inside, 5))},
		{"in quiet gaps", faults.None().Add(silent(gap/2, 9)).Add(silent(3*gap/2, 5))},
	} {
		for _, eval := range lang.Evaluators() {
			t.Run(evalName(eval, tc.name), func(t *testing.T) {
				m, rep, reqs, got := stream(eval, tc.plan)
				for _, f := range tc.plan.Faults {
					i := sort.Search(len(reqs), func(i int) bool { return int64(reqs[i].Arrival()) > f.At })
					switch _, awake := hb(m).epochs.openAt(sim.Time(f.At)); {
					case i > 0 && f.At <= int64(reqs[i-1].DoneAt()):
						if !awake {
							t.Fatalf("epochs %v: the crash at %d inside request %d fell in a gap", hb(m).epochs, f.At, i-1)
						}
					case awake:
						t.Fatalf("epochs %v: the crash at %d between requests is not in a quiet gap", hb(m).epochs, f.At)
					}
				}
				if rep.Metrics.Reissues == 0 {
					t.Fatal("no reissue: no request placed work on a dead processor")
				}
				for pair, v := range got {
					if want, ok := oracle[pair]; !ok || want != v {
						t.Errorf("%s := %s; the fault-free stream fills it with %q", pair, v, want)
					}
				}
				if missing := int64(len(oracle) - len(got)); missing > rep.Metrics.Prefills {
					t.Errorf("%d of %d pairs never filled, %d prefilled", missing, len(oracle), rep.Metrics.Prefills)
				}
			})
		}
	}
}

// evalErrorProg divides and takes a remainder by fib(n) scaled by d and m:
// main(n, 0, m) fails with division by zero, main(n, d, 0) with modulo by
// zero, each once fib(n) is known, and main(n, 1, 1) answers.
var evalErrorProg = lang.MustParse(`
	fn fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2)
	fn quo(x) = 100 / x
	fn rem(x) = 100 % x
	fn main(n, d, m) = quo(fib(n) * d) + rem(fib(n) * m)`)

// byRequest splits a stream's stampValues by request, each keyed as its solo
// run, request 0, keys it: request i > 0 roots its tree at stamp [i] where
// request 0's host task is ε, so its [i] is ε and its [i, s…] is [s…].
func byRequest(vals map[string]string) map[int]map[string]string {
	out := map[int]map[string]string{}
	for pair, v := range vals {
		task, hole, _ := strings.Cut(pair, " ")
		id, solo := 0, task
		if head, tail, _ := strings.Cut(task, "."); task != "ε" && head != "0" {
			id, _ = strconv.Atoi(head)
			solo = cmp.Or(tail, "ε")
		}
		if out[id] == nil {
			out[id] = map[string]string{}
		}
		out[id][solo+" "+hole] = v
	}
	return out
}

// TestEvalErrorFailsOnlyItsRequest: a task that fails to evaluate fails its
// own request and nothing else. Two requests of a stream fail with different
// errors, all seven admitted at once on one machine; the failing processors
// free themselves, every good request answers, and each fills exactly the
// (stamp, hole) pairs its solo run fills, with the solo run's values. A
// failed request's tree is torn down: once the stream is finished no task
// has leaked and no processor, the host included, holds a task or a
// checkpoint.
func TestEvalErrorFailsOnlyItsRequest(t *testing.T) {
	stream := func(calls ...[]int64) ([]*Req, map[int]map[string]string) {
		tl := trace.NewLog()
		m, err := New(Config{Topo: mustTopo(t, "torus", 16), Scheme: recovery.Rollback(), Seed: 1, Trace: tl}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Serve(ServeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var reqs []*Req
		for _, c := range calls {
			r, err := s.Submit("", evalErrorProg, "main", []expr.Value{expr.VInt(c[0]), expr.VInt(c[1]), expr.VInt(c[2])})
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, r)
		}
		for _, r := range reqs {
			s.Wait(r)
		}
		rep := s.Finish()
		if n := s.Outstanding(); n != 0 {
			t.Fatalf("%d requests outstanding after every Wait", n)
		}
		if n := rep.Metrics.TasksLeaked; n != 0 {
			t.Errorf("%d tasks leaked", n)
		}
		for _, p := range append(m.procs, m.host) {
			if len(p.tasks) != 0 || p.store.Len() != 0 {
				t.Errorf("processor %d: %d tasks resident, %d checkpoints retained", p.id, len(p.tasks), p.store.Len())
			}
		}
		return reqs, byRequest(stampValues(t, tl))
	}
	calls := [][]int64{{10, 1, 1}, {11, 0, 1}, {12, 1, 1}, {9, 1, 0}, {13, 1, 1}, {8, 1, 1}, {7, 1, 1}}
	bad := map[int]string{1: "division by zero", 3: "modulo by zero"}
	reqs, got := stream(calls...)
	for i, r := range reqs {
		if why, ok := bad[i]; ok {
			if r.Done() || !errors.Is(r.Err(), lang.ErrEval) || !strings.HasSuffix(r.Err().Error(), why) {
				t.Errorf("main%v: done=%v err=%v, want the %s", calls[i], r.Done(), r.Err(), why)
			}
			continue
		}
		want, err := lang.RefEval(evalErrorProg, "main", r.args)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Done() || r.Err() != nil || !r.Answer().Equal(want) {
			t.Fatalf("main%v: done=%v answer %v err %v, want %v", calls[i], r.Done(), r.Answer(), r.Err(), want)
		}
		_, solo := stream(calls[i])
		if len(solo[0]) == 0 || !maps.Equal(got[r.ID()], solo[0]) {
			t.Errorf("main%v fills %d pairs beside two failing requests, %d alone, or other values:\n%v\n%v",
				calls[i], len(got[r.ID()]), len(solo[0]), got[r.ID()], solo[0])
		}
	}
}
