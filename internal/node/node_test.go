package node

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/proto"
	"repro/internal/stamp"
)

// These tests drive one wall processor, internal/machine's WallProc, the way
// a transport does, with no goroutines and no sockets: a recording transport
// stands in for the interconnect, and the test delivers each message by hand
// and runs the processor until nothing is pending. The super-root's tests
// drive it over a recording Fabric.

// wire records every message a wall processor sends.
type wire struct {
	ep  lang.EvalProgram
	log []proto.Msg
}

func (w *wire) Send(m proto.Msg)             { w.log = append(w.log, m) }
func (w *wire) Program(int) lang.EvalProgram { return w.ep }

// take returns the messages sent so far and clears the log.
func (w *wire) take() []proto.Msg {
	out := w.log
	w.log = nil
	return out
}

// wallNode is processor 0 of a procs-processor machine running prog under
// the named evaluator ("" for the default).
func wallNode(t testing.TB, prog *lang.Program, eval string, procs int, seed int64) (*machine.WallProc, *wire) {
	t.Helper()
	ev, err := Spec{Eval: eval}.Evaluator()
	if err != nil {
		t.Fatal(err)
	}
	w := &wire{}
	if w.ep, err = ev.Compile(prog); err != nil {
		t.Fatal(err)
	}
	wp, err := machine.NewWallProc(0, procs, seed, "rollback", w)
	if err != nil {
		t.Fatal(err)
	}
	return wp, w
}

// deliver hands processor 0 one message and runs it until nothing is
// pending; yields counts the budgets that ended with work left.
func deliver(wp *machine.WallProc, m proto.Msg) (yields int) {
	m.To = 0
	wp.Deliver(&m)
	for wp.Run() {
		yields++
	}
	return yields
}

// fibPacket is the task fib(n) under the given stamp path, owed to parent's
// hole at the path's last component.
func fibPacket(n int64, parent proto.Addr, path ...uint32) *proto.TaskPacket {
	return &proto.TaskPacket{
		Key:    proto.TaskKey{Stamp: stamp.FromPath(path...)},
		Fn:     "fib",
		Args:   []expr.Value{expr.VInt(n)},
		Parent: parent,
		HoleID: int(path[len(path)-1]),
	}
}

var host = proto.Addr{Proc: proto.HostID}

func spawn(pkt *proto.TaskPacket) proto.Msg {
	return proto.Msg{Type: proto.MsgTask, From: pkt.Parent.Proc, Task: pkt}
}

func announce(dead proto.ProcID) proto.Msg {
	return proto.Msg{Type: proto.MsgFaultAnnounce, From: proto.HostID, Failed: dead}
}

// resultFor is child's answer v, from the processor it was sent to.
func resultFor(child proto.Msg, v int64) proto.Msg {
	pkt := child.Task
	return proto.Msg{Type: proto.MsgResult, From: child.To, Result: &proto.Result{
		Child: pkt.Key, ParentTask: pkt.Parent.Task, HoleID: pkt.HoleID, Value: expr.VInt(v)}}
}

// fib is the reference value of fib(n).
func fib(n int64) int64 {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}

// answerAll answers every task packet in sent, and every one the answers
// make processor 0 send, with its reference value, and returns the rest of
// what it sent.
func answerAll(wp *machine.WallProc, w *wire, sent []proto.Msg) (rest []proto.Msg) {
	for len(sent) > 0 {
		for _, m := range sent {
			if m.Type != proto.MsgTask {
				rest = append(rest, m)
				continue
			}
			deliver(wp, resultFor(m, fib(int64(m.Task.Args[0].(expr.VInt)))))
		}
		sent = w.take()
	}
	return rest
}

// tasksTo are the task packets in sent, which must all cross.
func tasksTo(t *testing.T, sent []proto.Msg) []proto.Msg {
	t.Helper()
	var out []proto.Msg
	for _, m := range sent {
		if m.Type == proto.MsgTask {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		t.Fatalf("nothing crossed: %+v", sent)
	}
	return out
}

// TestDuplicateSpawnDroppedOrRefused: a packet whose stamp is resident is a
// re-delivery when it names the incumbent's parent, and is dropped; from any
// other parent it is refused at once, with the one task-ack the protocol
// sends, and the parent places it elsewhere. The incumbent runs on.
func TestDuplicateSpawnDroppedOrRefused(t *testing.T) {
	wp, w := wallNode(t, lang.Fib(), "", 64, 1)
	deliver(wp, spawn(fibPacket(5, host, 0)))
	first := w.take()
	deliver(wp, spawn(fibPacket(5, host, 0)))
	if again := w.take(); len(again) != 0 {
		t.Fatalf("a re-delivery sent %+v", again)
	}
	other := fibPacket(5, proto.Addr{Proc: 2, Task: proto.TaskKey{Stamp: stamp.FromPath(9)}}, 0)
	other.Gen = 77
	deliver(wp, spawn(other))
	refused := w.take()
	if len(refused) != 1 || refused[0].Type != proto.MsgTaskAck || refused[0].To != 2 ||
		refused[0].AckTask != other.Key || refused[0].AckParent != other.Parent.Task || refused[0].AckGen != 77 {
		t.Fatalf("another parent's packet drew %+v, want one refusal to processor 2", refused)
	}
	done := answerAll(wp, w, first)
	if len(done) != 1 || done[0].To != proto.HostID || !done[0].Result.Value.Equal(expr.VInt(5)) {
		t.Fatalf("completion sent %+v, want fib(5) = 5 to the host", done)
	}
}

func TestLateAndDuplicateResultsDrain(t *testing.T) {
	wp, w := wallNode(t, lang.Fib(), "", 64, 1)
	deliver(wp, spawn(fibPacket(4, host, 0)))
	kids := tasksTo(t, w.take())
	if len(kids) != 2 {
		t.Fatalf("fib(4) sent %+v, want its two children", kids)
	}
	deliver(wp, resultFor(kids[0], 2))
	// The hole is already filled: the second copy is simply ignored.
	deliver(wp, resultFor(kids[0], 2))
	if m := wp.Local(); m.DupResults != 1 || m.LateResults != 0 {
		t.Fatalf("duplicate result: dup/late = %d/%d, want 1/0", m.DupResults, m.LateResults)
	}
	deliver(wp, resultFor(kids[1], 1))
	if done := w.take(); len(done) != 1 || !done[0].Result.Value.Equal(expr.VInt(3)) {
		t.Fatalf("fib(4) completion sent %+v", done)
	}
	// The task has retired: a late answer finds no addressee.
	deliver(wp, resultFor(kids[1], 1))
	if m := wp.Local(); m.DupResults != 1 || m.LateResults != 1 {
		t.Fatalf("late result: dup/late = %d/%d, want 1/1", m.DupResults, m.LateResults)
	}
	if extra := w.take(); len(extra) != 0 {
		t.Fatalf("drained results caused sends: %+v", extra)
	}
}

// TestBadHoleIDHeld: a result can name any hole id — a decoded frame
// carries whatever it was sent with. One that names a filled hole drains as
// a duplicate; one that names a hole its addressee has not issued is held as
// an inherited result (§4.1), which only a demand of that id would take.
// Either way nothing is sent, and the task keeps waiting for the answer it is
// owed, then answers correctly.
func TestBadHoleIDHeld(t *testing.T) {
	wp, w := wallNode(t, lang.Fib(), "", 64, 1)
	deliver(wp, spawn(fibPacket(4, host, 0)))
	kids := tasksTo(t, w.take())
	deliver(wp, resultFor(kids[0], 2))
	for i, id := range []int{-1, 2, math.MaxInt, kids[0].Task.HoleID} {
		bad := resultFor(kids[1], 1)
		bad.Result.HoleID = id
		deliver(wp, bad)
		if sent := w.take(); len(sent) != 0 {
			t.Fatalf("hole %d: sent %+v", id, sent)
		}
		if m := wp.Local(); m.DupResults != int64(i/3) || m.LateResults != 0 {
			t.Fatalf("hole %d: dup/late = %d/%d", id, m.DupResults, m.LateResults)
		}
	}
	deliver(wp, resultFor(kids[1], 1))
	if done := w.take(); len(done) != 1 || !done[0].Result.Value.Equal(expr.VInt(3)) {
		t.Fatalf("fib(4) completion sent %+v, want the result 3", done)
	}
}

// TestNodeDownReissuesExactlyTheLostChildren: a death reissues the unfilled
// children placed on the dead processor that no other of them is an
// ancestor of (§3.2's topmost table; here that is all of them, since no
// descendant of the dead processor's tasks lives on this one), and nothing
// else. What placement draws for this processor is reissued in place —
// counted, not sent. A second death reissues what the first placed on it.
func TestNodeDownReissuesExactlyTheLostChildren(t *testing.T) {
	const procs = 5
	wp, w := wallNode(t, lang.Fib(), "", procs, 7)
	for i := uint32(0); i < 12; i++ {
		deliver(wp, spawn(fibPacket(6, host, i)))
	}
	// Where each unanswered packet went, by key; nothing is sent to self.
	at := map[proto.TaskKey]proto.Msg{}
	note := func(sent []proto.Msg) (reissues int64) {
		for _, m := range sent {
			if m.To == 0 || m.Type != proto.MsgTask && m.Type != proto.MsgResult {
				t.Fatalf("processor 0 sent %+v", m)
			}
			if m.Type == proto.MsgTask {
				at[m.Task.Key] = m
				if m.Task.Reissue {
					reissues++
				}
			}
		}
		return reissues
	}
	note(w.take())
	if wp.Local().TasksInPlace == 0 {
		t.Fatal("placement never drew the processor itself: nothing ran in place")
	}
	on := func(dead proto.ProcID) (lost []proto.Msg) {
		for _, m := range at {
			if m.To == dead {
				lost = append(lost, m)
			}
		}
		slices.SortFunc(lost, func(a, b proto.Msg) int { return a.Task.Key.Compare(b.Task.Key) })
		return lost
	}
	const dead, deadNext = proto.ProcID(3), proto.ProcID(1)
	lost := on(dead)
	if len(lost) < 2 || len(on(deadNext)) < 1 {
		t.Fatalf("placement leaves too little on processors %d and %d to test", dead, deadNext)
	}
	// A child that already answered is not lost work, and its parent stays
	// half-filled and silent.
	deliver(wp, resultFor(lost[0], fib(int64(lost[0].Task.Args[0].(expr.VInt)))))
	if sent := w.take(); len(sent) != 0 {
		t.Fatalf("a half-filled task sent %+v", sent)
	}
	delete(at, lost[0].Task.Key)
	for i, d := range []proto.ProcID{dead, deadNext} {
		want := on(d)
		inPlace := wp.Local().Reissues
		deliver(wp, announce(d))
		re := w.take()
		sent := note(re)
		if got := sent + wp.Local().Reissues - inPlace; got != int64(len(want)) {
			t.Fatalf("death %d: %d reissues sent + %d in place, want the %d lost", i, sent, wp.Local().Reissues-inPlace, len(want))
		}
		for _, m := range re {
			if m.To == dead || m.To == deadNext && i > 0 {
				t.Fatalf("death %d: sent %+v to a processor known dead", i, m)
			}
		}
		for _, m := range want {
			if now := at[m.Task.Key]; now.To == d {
				delete(at, m.Task.Key) // reissued in place
			} else if !now.Task.Reissue {
				t.Fatalf("death %d: %v left on processor %d, not reissued", i, m.Task.Key, d)
			}
		}
	}
	// Every lost packet was reissued exactly once per death it met: the
	// requests still answer.
	var rest []proto.Msg
	for _, m := range at {
		rest = append(rest, m)
	}
	if done := answerAll(wp, w, rest); len(done) != 12 {
		t.Fatalf("%d of 12 requests answered after two deaths", len(done))
	}
}

// TestEvalErrorRetiresTheTaskAndReports: a pass that fails is reported to the
// super-root under the task's key, flagged EvalErr, with the evaluator's
// error text as its value, the
// incarnation is gone — the same packet again runs again — and the
// processor goes on serving: the next packet runs.
func TestEvalErrorRetiresTheTaskAndReports(t *testing.T) {
	wp, w := wallNode(t, lang.MustParse("fn f(x) = 10 / x"), "", 2, 1)
	parent := proto.Addr{Proc: 1, Task: proto.TaskKey{Stamp: stamp.FromPath(0)}}
	f := func(x int64, hole uint32) *proto.TaskPacket {
		pkt := fibPacket(x, parent, 0, hole)
		pkt.Fn = "f"
		return pkt
	}
	for range 2 {
		deliver(wp, spawn(f(0, 1)))
		got := w.take()
		if len(got) != 1 || got[0].To != proto.HostID || got[0].Result.Child != f(0, 1).Key || !got[0].EvalErr ||
			!got[0].Result.Value.Equal(expr.VStr("lang: eval: division by zero")) {
			t.Fatalf("f(0) sent %+v, want one failure report for task 0.1 reading the evaluator's error", got)
		}
	}
	deliver(wp, spawn(f(5, 2)))
	if got := w.take(); len(got) != 1 || got[0].To != 1 || !got[0].Result.Value.Equal(expr.VInt(2)) {
		t.Fatalf("f(5) after the failure sent %+v, want the result 2", got)
	}
}

// runAlone runs fib(n) on processor 0 of two, told first that processor 1 is
// dead, so every packet stays home: it returns what was sent and how many
// budgets ended with work left.
func runAlone(t testing.TB, eval string, n int64) (*machine.WallProc, []proto.Msg, int) {
	wp, w := wallNode(t, lang.Fib(), eval, 2, 1)
	deliver(wp, announce(1))
	yields := deliver(wp, spawn(fibPacket(n, host, 0)))
	return wp, w.take(), yields
}

// TestLongRunInPlaceYields: the last processor standing places everything on
// itself, and a request far larger than a budget of events must not run
// inside one Run: the transport looks at its mailbox between budgets. The
// counts stay exact: every packet was placed in place, none crossed, and the
// answer is the one message sent.
func TestLongRunInPlaceYields(t *testing.T) {
	const tasks = 5167 // fib(17)'s tree: 2·fib(18) − 1
	wp, sent, yields := runAlone(t, "", 17)
	if len(sent) != 1 || sent[0].To != proto.HostID || !sent[0].Result.Value.Equal(expr.VInt(1597)) {
		t.Fatalf("fib(17) sent %+v, want its answer 1597 alone", sent)
	}
	if yields < 2 {
		t.Fatalf("%d tasks ran in %d budgets", tasks, yields+1)
	}
	if m := wp.Local(); m.TasksInPlace != tasks-1 || m.DupResults+m.LateResults != 0 {
		t.Fatalf("%d packets in place, want %d; %d drained", m.TasksInPlace, tasks-1, m.DupResults+m.LateResults)
	}
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestNodeTaskAllocations bounds what a resident task costs the heap: one
// wall processor whose only peer is dead runs compiled fib(17) in place —
// the 5 167 tasks of TestLongRunInPlaceYields — and the run's objects and
// bytes are divided by its tasks. Tasks, hole records, packets and results
// come from the processor's free lists; a per-task or per-pass object that
// holds no state shows here first. Only a run without -race counts the
// shipped code's allocations.
func TestNodeTaskAllocations(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a count of the shipped code's allocations: runs a 5 167-task request four times, without -race")
	}
	const tasks, budget, byteBudget = 5167, 7, 900
	var sent []proto.Msg
	run := func() { _, sent, _ = runAlone(t, "compiled", 17) }
	allocs := testing.AllocsPerRun(2, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if len(sent) != 1 || !sent[0].Result.Value.Equal(expr.VInt(1597)) {
		t.Fatalf("fib(17) sent %+v, want 1597", sent)
	}
	perTask, bytesPerTask := allocs/tasks, float64(after.TotalAlloc-before.TotalAlloc)/tasks
	t.Logf("%.0f objects over %d tasks: %.2f and %.0f B per task", allocs, tasks, perTask, bytesPerTask)
	if perTask > budget {
		t.Errorf("%.2f heap objects per task, budget %d", perTask, budget)
	}
	if bytesPerTask > byteBudget {
		t.Errorf("%.0f heap bytes per task, budget %d", bytesPerTask, byteBudget)
	}
}

func TestSameSeedSamePlacement(t *testing.T) {
	place := func(seed int64) []proto.ProcID {
		wp, w := wallNode(t, lang.Fib(), "", 8, seed)
		for i := uint32(0); i < 6; i++ {
			deliver(wp, spawn(fibPacket(7, host, i)))
		}
		var dests []proto.ProcID
		for _, m := range w.take() {
			dests = append(dests, m.To)
		}
		return dests
	}
	if a, b := place(42), place(42); !slices.Equal(a, b) {
		t.Fatalf("seed 42 placed differently on two runs:\n%v\n%v", a, b)
	}
}

// fabric records what the super-root's processor sends and charges it the
// way a transport must: every message as it is carried.
type fabric struct {
	r   *Root
	eps []lang.EvalProgram
	log []proto.Msg
}

func (f *fabric) Send(m proto.Msg) {
	f.r.Charge(m.Type, m.Type == proto.MsgTask && m.Task.Reissue, m.EncodedSize())
	f.log = append(f.log, m)
}

func (f *fabric) Program(i int) lang.EvalProgram { return f.eps[i] }

func (f *fabric) LoadProgram(_ int, prog *lang.Program) error {
	ev, err := Spec{}.Evaluator()
	if err != nil {
		return err
	}
	ep, err := ev.Compile(prog)
	f.eps = append(f.eps, ep)
	return err
}

// take returns the messages sent so far and clears the log.
func (f *fabric) take() []proto.Msg {
	out := f.log
	f.log = nil
	return out
}

// newFabric is a super-root over a recording fabric.
func newFabric(t *testing.T, spec Spec) (*fabric, *Root) {
	t.Helper()
	f := &fabric{}
	r, err := NewRoot(spec, f)
	if err != nil {
		t.Fatal(err)
	}
	f.r = r
	return f, r
}

// rootAnswer is the result a root packet's processor returns to the
// super-root.
func rootAnswer(root proto.Msg, v expr.Value) *proto.Msg {
	pkt := root.Task
	return &proto.Msg{Type: proto.MsgResult, From: root.To, To: proto.HostID, Result: &proto.Result{
		Child: pkt.Key, ParentTask: pkt.Parent.Task, HoleID: pkt.HoleID, Value: v}}
}

// split sorts what the super-root sent into root packets and the processors
// it told of a death.
func split(t *testing.T, sent []proto.Msg) (roots []proto.Msg, told []proto.ProcID) {
	t.Helper()
	for _, m := range sent {
		switch m.Type {
		case proto.MsgTask:
			roots = append(roots, m)
		case proto.MsgFaultAnnounce:
			told = append(told, m.To)
		default:
			t.Fatalf("the super-root sent %+v", m)
		}
	}
	return roots, told
}

// TestRootPlacesAndReissuesOnDeath: the super-root places each root on a
// processor and retains its packet. Told of a death, it announces it to
// every survivor and reissues, from the retained packets, exactly the roots
// it had placed on the dead processor that have not answered — as its own
// reissues, not a node's — and it places no later root there.
func TestRootPlacesAndReissuesOnDeath(t *testing.T) {
	w, r := newFabric(t, Spec{Procs: 4})
	prog := lang.Fib()
	var reqs []*Request
	for i := 0; i < 8; i++ {
		q, err := r.Submit(prog, "fib", []expr.Value{expr.VInt(3)})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, q)
	}
	roots, told := split(t, w.take())
	if len(roots) != 8 || len(told) != 0 {
		t.Fatalf("8 requests sent %d roots and %d announcements", len(roots), len(told))
	}
	on := map[proto.ProcID][]int{} // the requests rooted on each processor
	for i, m := range roots {
		if m.Task.Reissue || m.Task.Parent.Proc != proto.HostID || m.Task.Key.Stamp.Component(0) != uint32(i) {
			t.Fatalf("root %d sent %+v, want a fresh spawn of request %d owed to the super-root", i, m, i)
		}
		on[m.To] = append(on[m.To], i)
	}
	// The processor hosting the most roots dies, after the first of them
	// has answered: that one is no lost work.
	dead := roots[0].To
	for p, ids := range on {
		if len(ids) > len(on[dead]) {
			dead = p
		}
	}
	if len(on[dead]) < 2 {
		t.Fatalf("placement %v leaves no processor with two roots", on)
	}
	answered := on[dead][0]
	r.Deliver(rootAnswer(roots[answered], expr.VInt(2)))
	if v, err := reqs[answered].Wait(0, nil); err != nil || !v.Equal(expr.VInt(2)) {
		t.Fatalf("request %d answer = %v, %v", answered, v, err)
	}

	r.NodeDown(dead)
	re, told := split(t, w.take())
	if len(told) != 3 || slices.Contains(told, dead) {
		t.Fatalf("death of %d announced to %v, want the three survivors", dead, told)
	}
	if len(re) != len(on[dead])-1 {
		t.Fatalf("%d roots reissued, want the %d unanswered on processor %d", len(re), len(on[dead])-1, dead)
	}
	for i, m := range re {
		lost := roots[on[dead][i+1]].Task
		if !m.Task.Reissue || m.To == dead || m.Task.Key != lost.Key || m.Task.Fn != lost.Fn || !slices.Equal(m.Task.Args, lost.Args) {
			t.Fatalf("reissue %+v, want root %v's retained packet on a live processor", m, lost.Key)
		}
	}

	// The original and the reissued root both answer: one completion, and
	// the second drains.
	lost := on[dead][1]
	r.Deliver(rootAnswer(roots[lost], expr.VInt(2)))
	r.Deliver(rootAnswer(re[0], expr.VInt(2)))
	if v, err := reqs[lost].Wait(0, nil); err != nil || !v.Equal(expr.VInt(2)) {
		t.Fatalf("request %d answer = %v, %v", lost, v, err)
	}
	for i, q := range reqs {
		if i != answered && i != lost {
			if _, err := q.Wait(0, nil); err == nil {
				t.Fatalf("unanswered request %d reported an answer", i)
			}
		}
	}

	// No later root lands on the processor the super-root was told is dead.
	for i := 0; i < 16; i++ {
		if _, err := r.Submit(prog, "fib", []expr.Value{expr.VInt(3)}); err != nil {
			t.Fatal(err)
		}
	}
	later, _ := split(t, w.take())
	for _, m := range later {
		if m.To == dead {
			t.Fatalf("a root was placed on dead processor %d: %+v", dead, m)
		}
	}
	got, by := r.Metrics()
	nre := int64(len(re))
	if drained := core.CountersOf(&got).Drained; got.TasksSpawned != 24+nre || got.Reissues != nre || got.LateResults != 1 || drained != 1 {
		t.Fatalf("spawned/reissued/late/drained = %d/%d/%d/%d, want %d/%d/1/1", got.TasksSpawned, got.Reissues, got.LateResults, drained, 24+nre, nre)
	}
	if by[0]+by[1]+by[2]+by[3] != 0 {
		t.Fatalf("the super-root's reissue was attributed to a node: %v", by)
	}
	if n, h := r.Held(); n != 22 || h.Tasks != 22 || h.Checkpoints != 22 {
		t.Fatalf("super-root holds %d requests, %d tasks, %d checkpoints; want the 22 unanswered", n, h.Tasks, h.Checkpoints)
	}
}

// TestRootAnswersAndInstallsInOneDeliver: the super-root's gate at one slot
// and a queue one deep. The queued request's root packet leaves in the same
// Deliver that answers its predecessor — installed under the lock that freed
// the slot, the answer handed over once it is released — under its own
// stream index; a request shed at the offer loads nothing — its program is
// resident — and sends nothing; and once every admitted request has
// answered, the super-root holds no request, task or checkpoint.
func TestRootAnswersAndInstallsInOneDeliver(t *testing.T) {
	w, r := newFabric(t, Spec{Procs: 4, Admission: admission.Policy{MaxInFlight: 1, QueueBound: 1}})
	prog := lang.Fib()
	var reqs []*Request
	for range 3 {
		q, err := r.Submit(prog, "fib", []expr.Value{expr.VInt(3)})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, q)
	}
	roots, _ := split(t, w.take())
	if len(roots) != 1 || len(w.eps) != 1 {
		t.Fatalf("one slot sent %d roots and loaded %d programs, want 1 and 1", len(roots), len(w.eps))
	}
	if shed := reqs[2]; !shed.shed || shed.id != -1 {
		t.Fatalf("the offer past the queue's bound: shed %v, stream index %d", shed.shed, shed.id)
	}
	if _, err := reqs[2].Wait(time.Hour, nil); !errors.Is(err, errNoAnswer) {
		t.Fatalf("shed request waited to %v", err)
	}

	r.Deliver(rootAnswer(roots[0], expr.VInt(2)))
	next, _ := split(t, w.take())
	if len(next) != 1 || next[0].Task.Key.Stamp.Component(0) != 1 || next[0].Task.Reissue {
		t.Fatalf("answering request 0 sent %+v, want the queued request's root as request 1", next)
	}
	if v, err := reqs[0].Wait(0, nil); err != nil || !v.Equal(expr.VInt(2)) {
		t.Fatalf("request 0 answer = %v, %v", v, err)
	}
	if id, at := reqs[1].stamps(); id != 1 || !at.After(reqs[1].offered) {
		t.Fatalf("queued request installed as %d at %v, offered at %v", id, at, reqs[1].offered)
	}
	r.Deliver(rootAnswer(next[0], expr.VInt(2)))
	if v, err := reqs[1].Wait(0, nil); err != nil || !v.Equal(expr.VInt(2)) {
		t.Fatalf("request 1 answer = %v, %v", v, err)
	}
	if n, h := r.Held(); n != 0 || h.Tasks != 0 || h.Checkpoints != 0 || len(w.take()) != 0 {
		t.Fatalf("after both answers the super-root holds %d requests, %d tasks, %d checkpoints", n, h.Tasks, h.Checkpoints)
	}
}

// TestWaitAwaitsAnEndedRequestsReply: the super-root marks a request ended
// under its lock and hands the outcome over after releasing it, so a Wait
// whose budget runs out in between awaits that outcome; a request that has
// not ended reports errNoAnswer.
func TestWaitAwaitsAnEndedRequestsReply(t *testing.T) {
	r := &Root{}
	ended := &Request{root: r, offered: time.Now(), answer: make(chan machine.Outcome, 1), done: true}
	go func() {
		time.Sleep(20 * time.Millisecond)
		ended.answer <- machine.Outcome{Value: expr.VInt(7)}
	}()
	if v, err := ended.Wait(0, nil); err != nil || !v.Equal(expr.VInt(7)) {
		t.Fatalf("ended request answered %v, %v; want 7", v, err)
	}
	open := &Request{root: r, offered: time.Now(), answer: make(chan machine.Outcome, 1)}
	if _, err := open.Wait(0, nil); !errors.Is(err, errNoAnswer) {
		t.Fatalf("request that has not ended waited to %v", err)
	}
}

// TestRootWithoutRecoveryOnlyAnnounces: under "none" the super-root is told
// of a death and announces it, like the simulator's host, but reissues
// nothing — and still places no later root on the dead processor.
func TestRootWithoutRecoveryOnlyAnnounces(t *testing.T) {
	w, r := newFabric(t, Spec{Procs: 3, Scheme: "none"})
	prog := lang.Fib()
	for i := 0; i < 4; i++ {
		if _, err := r.Submit(prog, "fib", []expr.Value{expr.VInt(3)}); err != nil {
			t.Fatal(err)
		}
	}
	roots, _ := split(t, w.take())
	dead := roots[0].To
	r.NodeDown(dead)
	re, told := split(t, w.take())
	if len(re) != 0 || len(told) != 2 || slices.Contains(told, dead) {
		t.Fatalf("the none scheme reissued %+v and told %v, want nothing and the two survivors", re, told)
	}
	for i := 0; i < 8; i++ {
		if _, err := r.Submit(prog, "fib", []expr.Value{expr.VInt(3)}); err != nil {
			t.Fatal(err)
		}
	}
	later, _ := split(t, w.take())
	for _, m := range later {
		if m.To == dead {
			t.Fatalf("a root was placed on dead processor %d: %+v", dead, m)
		}
	}
	if got, _ := r.Metrics(); got.Reissues != 0 || got.MsgFault != 2 {
		t.Fatalf("reissued %d, announced %d times; want 0 and 2", got.Reissues, got.MsgFault)
	}
}

// TestRootLoadsEachSpecOnce: a stream that names its workloads by spec makes
// each distinct program resident once — on net that is one source broadcast,
// parse and compile per node — not once per request.
func TestRootLoadsEachSpecOnce(t *testing.T) {
	w, r := newFabric(t, Spec{Procs: 4})
	specs := []string{"fib:5", "tree:2,2"}
	for i := 0; i < 8; i++ {
		wl, err := core.StandardWorkload(specs[i%len(specs)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Submit(wl.Program, wl.Fn, wl.Args); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.eps) != len(specs) {
		t.Fatalf("8 requests of %d specs loaded %d programs", len(specs), len(w.eps))
	}
}

func TestSubmitRejectsBadEntries(t *testing.T) {
	r, err := NewRoot(Spec{Procs: 2}, &fabric{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(nil, "fib", nil); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := r.Submit(lang.Fib(), "nosuch", nil); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := NewRoot(Spec{Procs: 1}, &fabric{}); err == nil {
		t.Error("single-node machine accepted")
	}
}
