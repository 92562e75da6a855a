package node

import (
	"errors"
	"fmt"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/proto"
	"repro/internal/trace"
)

// mesh is a whole wall-clock machine in one goroutine: the real super-root,
// procs wall processors and one FIFO of messages in flight, delivered one at
// a time and each run until nothing is pending — so a run is a pure function
// of (program, procs, seed, kills). It charges every message as a transport
// must, folds what each processor counted on its own at the end, and
// records the value of every result it carries. The mesh itself is the
// super-root's fabric.
type mesh struct {
	t       testing.TB
	root    *Root
	ep      lang.EvalProgram
	procs   []*machine.WallProc
	sent    []trace.Metrics
	dead    []bool
	flight  []proto.Msg
	results map[resultKey]string

	delivered int // messages taken off flight, the kill schedule's clock
}

func newMesh(t testing.TB, procs int, seed int64) *mesh {
	m := &mesh{t: t, sent: make([]trace.Metrics, procs), dead: make([]bool, procs), results: map[resultKey]string{}}
	var err error
	if m.root, err = NewRoot(Spec{Procs: procs, Seed: seed}, m); err != nil {
		t.Fatal(err)
	}
	for p := range procs {
		wp, err := machine.NewWallProc(proto.ProcID(p), procs, seed, "rollback", meshLink{m, p})
		if err != nil {
			t.Fatal(err)
		}
		m.procs = append(m.procs, wp)
	}
	return m
}

// LoadProgram implements Fabric; a mesh runs one program.
func (m *mesh) LoadProgram(_ int, prog *lang.Program) error {
	ev, err := Spec{}.Evaluator()
	if err == nil {
		m.ep, err = ev.Compile(prog)
	}
	return err
}

// Send implements Fabric for the super-root's processor.
func (m *mesh) Send(msg proto.Msg) {
	m.root.Charge(msg.Type, msg.Type == proto.MsgTask && msg.Task.Reissue, msg.EncodedSize())
	m.flight = append(m.flight, msg)
}

// Program implements Fabric.
func (m *mesh) Program(int) lang.EvalProgram { return m.ep }

// meshLink is processor p's transport.
type meshLink struct {
	m *mesh
	p int
}

func (l meshLink) Send(msg proto.Msg) {
	CountSent(&l.m.sent[l.p], msg.Type, msg.Type == proto.MsgTask && msg.Task.Reissue, msg.EncodedSize())
	if msg.Type == proto.MsgResult {
		l.m.carry(&msg)
	}
	if msg.To == proto.HostID {
		l.m.root.Deliver(&msg)
	} else {
		l.m.flight = append(l.m.flight, msg)
	}
}

func (l meshLink) Program(int) lang.EvalProgram { return l.m.ep }

// resultKey is where a result belongs: its child's stamp and the hole.
type resultKey struct {
	stamp string
	hole  int
}

// carry records a result's value under its child's stamp and hole — an
// evaluation error's as its text — and fails the run if that key has
// carried another value: every incarnation of a task, its reissues
// included, computes the same value (§2.1), whether the result reaches its
// parent or a dead processor swallows it.
func (m *mesh) carry(msg *proto.Msg) {
	r := msg.Result
	k, v := resultKey{r.Child.Stamp.Key(), r.HoleID}, r.Value.String()
	if msg.EvalErr {
		v = "error " + v
	}
	if was, ok := m.results[k]; ok && was != v {
		m.t.Fatalf("stamp %v hole %d carried %s, then %s", r.Child.Stamp, r.HoleID, was, v)
	}
	m.results[k] = v
}

// kill is one entry of a kill schedule: processor proc dies once after
// messages have been delivered.
type kill struct {
	after int
	proc  proto.ProcID
}

func (m *mesh) kill(p proto.ProcID) {
	alive := 0
	for _, d := range m.dead {
		if !d {
			alive++
		}
	}
	if m.dead[p] || alive == 1 {
		return // the schedule may name a victim twice; one processor must survive
	}
	m.dead[p] = true
	m.root.NodeDown(p)
}

// run serves one request until nothing is left in flight under a kill
// schedule (sorted by after) and returns its outcome, with what the
// processors counted folded into the super-root's totals.
func (m *mesh) run(w core.Workload, kills []kill) (expr.Value, error) {
	q, err := m.root.Submit(w.Program, w.Fn, w.Args)
	if err != nil {
		m.t.Fatal(err)
	}
	for {
		for len(kills) > 0 && kills[0].after <= m.delivered {
			m.kill(kills[0].proc)
			kills = kills[1:]
		}
		if len(m.flight) == 0 {
			break
		}
		msg := m.flight[0]
		m.flight = m.flight[1:]
		m.delivered++
		if m.dead[msg.To] {
			m.root.CountBlackholed()
			continue
		}
		wp := m.procs[msg.To]
		wp.Deliver(&msg)
		for wp.Run() {
		}
	}
	for p, wp := range m.procs {
		local := wp.Local()
		m.sent[p].Add(&local)
		m.root.Fold(proto.ProcID(p), &m.sent[p])
	}
	return q.Wait(0, nil)
}

// meshProgs are the programs the mesh runs: two-way and three-way
// recursion, and a wide shallow tree. meshDiv is a request that fails: the
// third of its three subtasks divides by zero.
var meshProgs = []string{"fib:9", "tak:6,3,1", "tree:4,3"}

const meshDiv = "div"

// checkMesh serves one (program, procs, seed, kills) on a mesh and requires
// the reference outcome — the answer, or the evaluator's error naming the
// task and processor that hit it — one value for every stamp and hole the
// mesh carried a result for, and the end state and packet ledger every
// wall-clock run keeps: at quiescence no surviving processor, the
// super-root's included, holds a task or a checkpoint, every packet spawned
// crossed as a msg.task or was placed in place, and the processors are
// credited with no more reissues than the total. It returns the totals and
// the reissues no processor is credited with: the super-root's.
func checkMesh(t testing.TB, spec string, procs int, seed int64, kills []kill) (trace.Metrics, int64) {
	t.Helper()
	w := core.Workload{Program: lang.MustParse("fn f(x) = 10 / x\nfn main(n) = f(n) + f(n - 1) + f(n - 2)"),
		Fn: "main", Args: []expr.Value{expr.VInt(2)}}
	if spec != meshDiv {
		var err error
		if w, err = core.StandardWorkload(spec); err != nil {
			t.Fatal(err)
		}
	}
	want, wantErr := lang.RefEval(w.Program, w.Fn, w.Args)
	m := newMesh(t, procs, seed)
	switch v, err := m.run(w, kills); {
	case wantErr != nil:
		text := regexp.MustCompile(`^task [0-9.]+ on processor \d+: ` + regexp.QuoteMeta(wantErr.Error()) + `$`)
		if !errors.Is(err, lang.ErrEval) || !text.MatchString(err.Error()) {
			t.Fatalf("error %v, want the task's %v", err, wantErr)
		}
	case err != nil:
		got, _ := m.root.Metrics()
		t.Fatalf("nothing left in flight and no answer: %v (%q)", err, got.Rows())
	case !v.Equal(want):
		t.Fatalf("answer %v, want %v", v, want)
	}
	reqs, h := m.root.Held()
	if reqs != 0 || h.Tasks != 0 || h.Checkpoints != 0 {
		t.Errorf("super-root: %d requests recorded, %d tasks resident, %d checkpoints retained", reqs, h.Tasks, h.Checkpoints)
	}
	for p, wp := range m.procs {
		if h := wp.Held(); !m.dead[p] && (h.Tasks != 0 || h.Checkpoints != 0) {
			t.Errorf("processor %d: %d tasks resident, %d checkpoints retained", p, h.Tasks, h.Checkpoints)
		}
	}
	got, byNode := m.root.Metrics()
	var credited int64
	for _, r := range byNode {
		credited += r
	}
	if got.TasksSpawned != got.MsgTask+got.TasksInPlace || credited > got.Reissues {
		t.Fatalf("%d spawned, %d sent + %d in place; %d reissues, %v credited", got.TasksSpawned,
			got.MsgTask, got.TasksInPlace, got.Reissues, byNode)
	}
	return got, got.Reissues - credited
}

// rootHost is the processor a mesh's super-root places request 0's root on.
func rootHost(t testing.TB, procs int, seed int64) proto.ProcID {
	m := newMesh(t, procs, seed)
	if _, err := m.root.Submit(lang.Fib(), "fib", []expr.Value{expr.VInt(1)}); err != nil {
		t.Fatal(err)
	}
	return m.flight[0].To
}

// TestWallMeshUnderKills: wall processors over a deterministic wire answer
// fault-free and through kill schedules — two deaths mid-run, a cascade of
// three, a machine left with one survivor — and through the death of the
// root's host right after the root is placed, which the super-root
// reissues from its retained packet. A request that fails does so typed,
// fault-free and through its root's host's death, and leaves every survivor
// clean.
func TestWallMeshUnderKills(t *testing.T) {
	for _, spec := range append(meshProgs, meshDiv) {
		for _, tc := range []struct {
			procs    int
			seed     int64
			kills    []kill
			rootKill bool // kills[0] takes the root's host
		}{
			{4, 1, nil, false},
			{8, 7, nil, false},
			{5, 3, []kill{{40, 3}, {90, 1}}, false},
			{6, 11, []kill{{1, 0}, {1, 1}, {1, 2}}, false},
			{3, 13, []kill{{25, 1}, {26, 2}}, false},
			{5, 17, []kill{{1, -1}}, true},
		} {
			if spec == meshDiv && len(tc.kills) > 0 && !tc.rootKill {
				continue
			}
			name := fmt.Sprintf("%s/p%d/k%d", spec, tc.procs, len(tc.kills))
			if tc.rootKill {
				name += "/root"
				tc.kills[0].proc = rootHost(t, tc.procs, tc.seed)
			}
			t.Run(name, func(t *testing.T) {
				got, host := checkMesh(t, spec, tc.procs, tc.seed, tc.kills)
				idle := spec != meshDiv && (got.TasksInPlace == 0 || (len(tc.kills) > 0 && got.Reissues == 0))
				if idle || (tc.rootKill && host != 1) {
					t.Fatalf("the case exercised nothing: %d reissued by the super-root, %q", host, got.Rows())
				}
			})
		}
	}
}

// FuzzWallMesh is checkMesh over program × procs 2–8 × seed × kill points,
// the failing request among the programs: kills is read as (delay, victim)
// byte pairs, each delay counted in delivered messages from the previous
// kill.
func FuzzWallMesh(f *testing.F) {
	f.Add(uint8(0), uint8(4), int64(1), []byte{})
	f.Add(uint8(0), uint8(2), int64(3), []byte{0, 1}) // one survivor from the start
	f.Add(uint8(1), uint8(5), int64(7), []byte{40, 3, 50, 1})
	f.Add(uint8(2), uint8(8), int64(11), []byte{1, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6})
	f.Add(uint8(1), uint8(3), int64(13), []byte{25, 1, 1, 2})
	f.Add(uint8(2), uint8(6), int64(-5), []byte{200, 2, 200, 2, 255, 0})
	// Request 0's root lands on node 2, killed once placed: the root the
	// super-root reissues answers, and its result is carried and checked
	// (TestWallMeshUnderKills's root row is this run).
	f.Add(uint8(0), uint8(3), int64(17), []byte{1, 2})
	f.Add(uint8(3), uint8(4), int64(5), []byte{3, 1}) // the request fails while node 1 dies
	progs := append(meshProgs, meshDiv)
	f.Fuzz(func(t *testing.T, prog, procs uint8, seed int64, schedule []byte) {
		if len(schedule) > 32 {
			return
		}
		var kills []kill
		for at := 0; len(schedule) >= 2; schedule = schedule[2:] {
			at += int(schedule[0])
			kills = append(kills, kill{at, proto.ProcID(int(schedule[1]) % (2 + int(procs)%7))})
		}
		checkMesh(t, progs[int(prog)%len(progs)], 2+int(procs)%7, seed, kills)
	})
}
