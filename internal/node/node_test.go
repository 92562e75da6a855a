package node

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/stamp"
	"repro/internal/trace"
)

// These tests drive the protocol with no goroutines and no sockets: a
// recording transport stands in for the interconnect, and the test delivers
// each message by hand.

// sent is one message the recording transport was handed.
type sent struct {
	to      proto.ProcID
	pkt     *proto.TaskPacket // spawn
	res     *proto.Result     // result
	dead    proto.ProcID      // node-down (pkt and res nil)
	reissue bool
	failed  proto.TaskKey // fail, with err
	err     error
}

// wire records every send and charges the super-root the way a transport
// must: every message as it is carried.
type wire struct {
	from proto.ProcID
	r    *Root
	log  []sent
	// loads counts program broadcasts.
	loads int
}

func (w *wire) Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool) {
	if w.from == proto.HostID {
		w.r.CountSpawn(pkt.EncodedSize(), reissue)
	} else {
		var d trace.Metrics
		CountSent(&d, true, reissue, pkt.EncodedSize())
		w.r.Fold(w.from, &d)
	}
	w.log = append(w.log, sent{to: to, pkt: pkt, reissue: reissue})
}

func (w *wire) Result(to proto.ProcID, res *proto.Result) {
	var d trace.Metrics
	CountSent(&d, false, false, res.EncodedSize())
	w.r.Fold(w.from, &d)
	w.log = append(w.log, sent{to: to, res: res})
}

func (w *wire) Fail(task proto.TaskKey, err error) {
	w.log = append(w.log, sent{to: proto.HostID, failed: task, err: err})
}

func (w *wire) NodeDown(to, dead proto.ProcID) {
	w.r.CountNodeDown(16)
	w.log = append(w.log, sent{to: to, dead: dead})
}

func (w *wire) LoadProgram(int, *lang.Program) error {
	w.loads++
	return nil
}

// take returns the sends logged so far and clears the log.
func (w *wire) take() []sent {
	out := w.log
	w.log = nil
	return out
}

// newWire is a recording transport from processor from, charging the
// metrics of a fresh super-root that sends through it.
func newWire(t *testing.T, from proto.ProcID, spec Spec) (*wire, *Root) {
	t.Helper()
	w := &wire{from: from}
	r, err := NewRoot(spec, w)
	if err != nil {
		t.Fatal(err)
	}
	w.r = r
	return w, r
}

// fibNode is processor 0 of a procs-node machine running lang.Fib.
func fibNode(t *testing.T, procs int, seed int64) (*Node, *wire) {
	t.Helper()
	ev, err := Spec{}.Evaluator()
	if err != nil {
		t.Fatal(err)
	}
	ep, err := ev.Compile(lang.Fib())
	if err != nil {
		t.Fatal(err)
	}
	w, _ := newWire(t, 0, Spec{Procs: procs})
	return New(0, procs, seed, w, func(int) lang.EvalProgram { return ep }), w
}

// fibPacket is the task fib(n) under the given stamp path, owed to parent.
func fibPacket(n int64, parent proto.ProcID, path ...uint32) *proto.TaskPacket {
	return &proto.TaskPacket{
		Key:    proto.TaskKey{Stamp: stamp.FromPath(path...)},
		Fn:     "fib",
		Args:   []expr.Value{expr.VInt(n)},
		Parent: proto.Addr{Proc: parent},
	}
}

// incarnations returns the resident incarnations of the task at s, oldest
// first.
func (n *Node) incarnations(s stamp.Stamp) []*task {
	var out []*task
	for t := n.tasks[s]; t != nil; t = t.next {
		out = append(out, t)
	}
	return out
}

func resultFor(child *proto.TaskPacket, v int64) *proto.Result {
	return &proto.Result{Child: child.Key, ParentTask: child.Parent.Task, HoleID: child.HoleID, Value: expr.VInt(v)}
}

func TestDuplicateSpawnAndIncarnations(t *testing.T) {
	n, w := fibNode(t, 4, 1)
	n.OnSpawn(fibPacket(5, proto.HostID, 0))
	first := w.take()
	if len(first) != 2 || first[0].pkt == nil || first[1].pkt == nil {
		t.Fatalf("fib(5) first pass sent %+v, want two child spawns", first)
	}
	// The same packet again (a re-delivery): the incumbent stays, nothing runs.
	n.OnSpawn(fibPacket(5, proto.HostID, 0))
	if again := w.take(); len(again) != 0 {
		t.Fatalf("same-parent duplicate ran a second incarnation: %+v", again)
	}
	// The same stamp from another parent incarnation runs alongside.
	n.OnSpawn(fibPacket(5, 2, 0))
	if twin := w.take(); len(twin) != 2 {
		t.Fatalf("different-parent incarnation sent %+v, want its own two spawns", twin)
	}
	if got := len(n.incarnations(first[0].pkt.Parent.Task.Stamp)); got != 2 {
		t.Fatalf("%d incarnations resident, want 2", got)
	}

	// One child's answer fills that hole in both incarnations; neither is
	// complete yet, so nothing is sent.
	n.OnResult(resultFor(first[0].pkt, 3))
	if early := w.take(); len(early) != 0 {
		t.Fatalf("half-filled incarnations sent %+v", early)
	}
	// The second answer completes both: each returns fib(5) to its own parent.
	n.OnResult(resultFor(first[1].pkt, 2))
	done := w.take()
	if len(done) != 2 || done[0].res == nil || done[1].res == nil {
		t.Fatalf("completion sent %+v, want two results", done)
	}
	parents := map[proto.ProcID]bool{done[0].to: true, done[1].to: true}
	if !parents[proto.HostID] || !parents[2] {
		t.Fatalf("results went to %v, want the host and processor 2", parents)
	}
	for _, d := range done {
		if !d.res.Value.Equal(expr.VInt(5)) {
			t.Fatalf("incarnation answered %v, want 5", d.res.Value)
		}
	}
	if drained := n.Metrics.DupResults + n.Metrics.LateResults; len(n.tasks) != 0 || drained != 0 {
		t.Fatalf("after completion: %d stamps resident, %d drained", len(n.tasks), drained)
	}
}

func TestLateAndDuplicateResultsDrain(t *testing.T) {
	n, w := fibNode(t, 4, 1)
	n.OnSpawn(fibPacket(4, proto.HostID, 0))
	kids := w.take()
	n.OnResult(resultFor(kids[0].pkt, 2))
	// The hole is already filled: the second copy is simply ignored.
	n.OnResult(resultFor(kids[0].pkt, 2))
	if n.Metrics.DupResults != 1 || n.Metrics.LateResults != 0 {
		t.Fatalf("duplicate result: dup/late = %d/%d, want 1/0", n.Metrics.DupResults, n.Metrics.LateResults)
	}
	n.OnResult(resultFor(kids[1].pkt, 1))
	if done := w.take(); len(done) != 1 || !done[0].res.Value.Equal(expr.VInt(3)) {
		t.Fatalf("fib(4) completion sent %+v", done)
	}
	// The task has retired: a late answer finds no addressee.
	n.OnResult(resultFor(kids[1].pkt, 1))
	if n.Metrics.DupResults != 1 || n.Metrics.LateResults != 1 {
		t.Fatalf("late result: dup/late = %d/%d, want 1/1", n.Metrics.DupResults, n.Metrics.LateResults)
	}
	if extra := w.take(); len(extra) != 0 {
		t.Fatalf("drained results caused sends: %+v", extra)
	}
}

// TestBadHoleIDDrains: a result can name any hole id — a decoded frame
// carries whatever it was sent with — and one that names no issued, unfilled
// hole of its addressee drains like a duplicate: nothing is sent, and the
// task keeps waiting for the answer it is owed.
func TestBadHoleIDDrains(t *testing.T) {
	n, w := fibNode(t, 4, 1)
	n.OnSpawn(fibPacket(4, proto.HostID, 0))
	kids := w.take()
	n.OnResult(resultFor(kids[0].pkt, 2))
	parent := kids[0].pkt.Parent.Task.Stamp
	holes := len(n.incarnations(parent)[0].holes)
	for i, id := range []int{-1, holes, math.MaxInt, kids[0].pkt.HoleID} {
		res := resultFor(kids[1].pkt, 1)
		res.HoleID = id
		n.OnResult(res)
		if drained := n.Metrics.DupResults + n.Metrics.LateResults; drained != int64(i+1) {
			t.Fatalf("hole %d: %d results drained, want %d", id, drained, i+1)
		}
		if sent := w.take(); len(sent) != 0 {
			t.Fatalf("hole %d: sent %+v", id, sent)
		}
		if inc := n.incarnations(parent); len(inc) != 1 || inc[0].unfilled != 1 {
			t.Fatalf("hole %d: the task is no longer waiting on its one open hole", id)
		}
	}
	n.OnResult(resultFor(kids[1].pkt, 1))
	if done := w.take(); len(done) != 1 || done[0].res == nil || !done[0].res.Value.Equal(expr.VInt(3)) {
		t.Fatalf("fib(4) completion sent %+v, want the result 3", done)
	}
}

// TestNodeDownReissuesExactlyTheLostChildren: a death reissues the unfilled
// children placed on the dead processor and nothing else. What placement
// draws for this node is reissued in place — counted, not sent — and runs
// there, so its own fresh spawns ride in the same burst.
func TestNodeDownReissuesExactlyTheLostChildren(t *testing.T) {
	const procs = 5
	n, w := fibNode(t, procs, 7)
	for i := uint32(0); i < 12; i++ {
		n.OnSpawn(fibPacket(6, proto.HostID, i))
	}
	// Everything that crossed, by destination; nothing is ever sent to self.
	byDest := map[proto.ProcID][]*proto.TaskPacket{}
	crossed, msgs := 0, 0
	note := func(log []sent) (reissues int) {
		msgs += len(log)
		for _, s := range log {
			if s.pkt == nil {
				continue // a subtree that ran in place whole answers the host
			}
			if s.to == 0 {
				t.Fatalf("node 0 mailed itself %+v", s)
			}
			crossed++
			byDest[s.to] = append(byDest[s.to], s.pkt)
			if s.reissue {
				reissues++
			}
		}
		return reissues
	}
	note(w.take())
	if n.Metrics.TasksInPlace == 0 {
		t.Fatal("placement never drew the node itself: nothing ran in place")
	}
	const dead, deadNext = proto.ProcID(3), proto.ProcID(1)
	if len(byDest[dead]) < 2 || len(byDest[deadNext]) < 1 {
		t.Fatalf("placement %v leaves too little on processors %d and %d to test", byDest, dead, deadNext)
	}
	// A child that already answered is not lost work. Pick one whose sibling
	// is still out, so its parent stays half-filled and silent.
	var answered *proto.TaskPacket
	for _, p := range byDest[dead] {
		if parent := n.incarnations(p.Parent.Task.Stamp); len(parent) == 1 && parent[0].unfilled == 2 {
			answered = p
			break
		}
	}
	if answered == nil {
		t.Fatalf("no child on processor %d has an unanswered sibling", dead)
	}
	n.OnResult(resultFor(answered, 8))
	if len(w.take()) != 0 {
		t.Fatal("a half-filled task sent something")
	}

	lost := map[*proto.TaskPacket]bool{}
	for _, p := range byDest[dead] {
		if p != answered {
			lost[p] = true
		}
	}
	want := int64(len(lost))
	n.OnNodeDown(dead)
	re := w.take()
	sentRe := note(re)
	if _, by := w.r.Metrics(); int64(sentRe)+n.Metrics.Reissues != want || by[0]+n.Metrics.Reissues != want {
		t.Fatalf("%d reissues sent (%d charged to node 0) + %d in place, want %d", sentRe, by[0], n.Metrics.Reissues, want)
	}
	reissued := want
	for _, s := range re {
		if s.pkt == nil {
			continue
		}
		if s.reissue && !lost[s.pkt] {
			t.Fatalf("reissued %+v: not a retained packet lost on processor %d", s, dead)
		}
		if s.to == dead {
			t.Fatalf("sent %+v to the dead processor %d", s, dead)
		}
		delete(lost, s.pkt)
	}
	if int64(len(lost)) != n.Metrics.Reissues {
		t.Fatalf("%d lost packets were not sent again, %d were reissued in place", len(lost), n.Metrics.Reissues)
	}

	// A second death: reissues avoid every processor known dead, and a packet
	// reissued onto the second victim is reissued again.
	_, by := w.r.Metrics()
	charged, inPlace := by[0], n.Metrics.Reissues
	want = int64(len(byDest[deadNext]))
	n.OnNodeDown(deadNext)
	re = w.take()
	sentRe = note(re)
	_, by = w.r.Metrics()
	if got := by[0] - charged + n.Metrics.Reissues - inPlace; got != want || int64(sentRe)+n.Metrics.Reissues-inPlace != want {
		t.Fatalf("second death reissued %d packets (%d sent), want %d", got, sentRe, want)
	}
	reissued += want
	for _, s := range re {
		if s.pkt != nil && (s.to == dead || s.to == deadNext) {
			t.Fatalf("sent %+v to a processor this node knows is dead", s)
		}
	}

	// The transport brings the in-place counts home; then the totals are the
	// simulator's: every packet spawned, every reissue, wherever it ran.
	w.r.Fold(0, &n.Metrics)
	got, by := w.r.Metrics()
	if want := int64(crossed) + n.Metrics.TasksInPlace; got.TasksSpawned != want || got.Reissues != reissued || got.TasksInPlace != n.Metrics.TasksInPlace {
		t.Fatalf("spawned/reissued/in place = %d/%d/%d, want %d/%d/%d (tasks.spawned includes reissues and in-place packets)",
			got.TasksSpawned, got.Reissues, got.TasksInPlace, want, reissued, n.Metrics.TasksInPlace)
	}
	if got.TotalMessages() != int64(msgs) {
		t.Fatalf("%d messages charged for the %d that crossed", got.TotalMessages(), msgs)
	}
	if by[0] != reissued {
		t.Fatalf("per-node attribution %v, want %d on node 0", by, reissued)
	}
}

// TestEvalErrorRetiresTheTaskAndReports: a pass that fails is reported to the
// super-root under the task's key with the evaluator's typed error, the
// incarnation is gone, and the node goes on serving — the next packet runs.
func TestEvalErrorRetiresTheTaskAndReports(t *testing.T) {
	ev, err := Spec{}.Evaluator()
	if err != nil {
		t.Fatal(err)
	}
	ep, err := ev.Compile(lang.MustParse("fn f(x) = 10 / x"))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := newWire(t, 0, Spec{Procs: 2})
	n := New(0, 2, 1, w, func(int) lang.EvalProgram { return ep })
	f := func(x int64, path ...uint32) *proto.TaskPacket {
		pkt := fibPacket(x, 1, path...)
		pkt.Fn = "f"
		return pkt
	}
	n.OnSpawn(f(0, 0, 1))
	got := w.take()
	if len(got) != 1 || got[0].failed != f(0, 0, 1).Key || !errors.Is(got[0].err, lang.ErrEval) {
		t.Fatalf("f(0) sent %+v, want one failure report for task 0.1 wrapping lang.ErrEval", got)
	}
	if len(n.tasks) != 0 {
		t.Fatalf("the failed task is still resident: %v", n.tasks)
	}
	n.OnSpawn(f(5, 0, 2))
	if got := w.take(); len(got) != 1 || got[0].res == nil || !got[0].res.Value.Equal(expr.VInt(2)) {
		t.Fatalf("f(5) after the failure sent %+v, want the result 2", got)
	}
}

// TestLongRunInPlaceYields: the last processor standing places everything on
// itself, and a request far larger than settleBudget must not run inside one
// handler call. Every budget's worth of deliveries the node mails itself the
// oldest waiting message — the only self-addressed traffic there is — and the
// counts stay exact: each packet is in place or crossed, never both.
func TestLongRunInPlaceYields(t *testing.T) {
	n, w := fibNode(t, 2, 1)
	n.OnNodeDown(1)
	n.OnSpawn(fibPacket(17, proto.HostID, 0))
	var answer expr.Value
	calls, yielded, mailed := 1, 0, int64(0)
	for log := w.take(); len(log) > 0; log = w.take() {
		if len(log) != 1 {
			t.Fatalf("handler call %d sent %d messages, want the one it yields with: %+v", calls, len(log), log)
		}
		switch m := log[0]; {
		case m.to == proto.HostID:
			answer = m.res.Value
		case m.to != 0:
			t.Fatalf("sent %+v to the dead processor", m)
		case m.pkt != nil:
			mailed++
			yielded++
			n.OnSpawn(m.pkt)
		default:
			yielded++
			n.OnResult(m.res)
		}
		calls++
	}
	const tasks = 5167 // fib(17)'s tree: 2·fib(18) − 1
	if answer == nil || !answer.Equal(expr.VInt(1597)) {
		t.Fatalf("fib(17) = %v after %d handler calls, want 1597", answer, calls)
	}
	if want := 2 * (tasks - 1) / settleBudget; yielded != want {
		t.Fatalf("%d messages in place yielded %d times, want %d (every %d deliveries)", 2*(tasks-1), yielded, want, settleBudget)
	}
	if drained := n.Metrics.DupResults + n.Metrics.LateResults; n.Metrics.TasksInPlace+mailed != tasks-1 || drained != 0 || len(n.tasks) != 0 {
		t.Fatalf("%d packets in place + %d mailed, want %d in all; %d drained, %d tasks left",
			n.Metrics.TasksInPlace, mailed, tasks-1, drained, len(n.tasks))
	}
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestNodeTaskAllocations bounds what a resident task costs the heap: one
// node whose only peer is dead runs compiled fib(17) in place — the 5 167
// tasks of TestLongRunInPlaceYields — through the recording transport, and
// the run's objects and bytes are divided by its tasks. A task keeps its
// packet, its hole table and its result; a per-task or per-pass object that
// holds no state shows here first. The run reads 9.5 objects and 828 B per
// task (15.5 and 1 140 B while a task kept a map of fills and a map of
// children). Only a run without -race counts the shipped code's allocations.
func TestNodeTaskAllocations(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a count of the shipped code's allocations: runs a 5 167-task request four times, without -race")
	}
	const tasks, budget, byteBudget = 5167, 10, 900
	ev, err := lang.EvaluatorByName("compiled")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := ev.Compile(lang.Fib())
	if err != nil {
		t.Fatal(err)
	}
	var answer expr.Value
	run := func() {
		w, _ := newWire(t, 0, Spec{Procs: 2})
		n := New(0, 2, 1, w, func(int) lang.EvalProgram { return ep })
		n.OnNodeDown(1)
		n.OnSpawn(fibPacket(17, proto.HostID, 0))
		for log := w.take(); len(log) > 0; log = w.take() {
			for _, m := range log {
				switch {
				case m.to == proto.HostID:
					answer = m.res.Value
				case m.pkt != nil:
					n.OnSpawn(m.pkt)
				default:
					n.OnResult(m.res)
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(2, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if answer == nil || !answer.Equal(expr.VInt(1597)) {
		t.Fatalf("fib(17) = %v, want 1597", answer)
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
		n, w := fibNode(t, 8, seed)
		for i := uint32(0); i < 6; i++ {
			n.OnSpawn(fibPacket(7, proto.HostID, i))
		}
		var dests []proto.ProcID
		for _, s := range w.take() {
			dests = append(dests, s.to)
		}
		return dests
	}
	a, b := place(42), place(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 placed differently on two runs:\n%v\n%v", a, b)
		}
	}
}

func TestRootPlacesRoundRobinAndReissuesOnDeath(t *testing.T) {
	w, r := newWire(t, proto.HostID, Spec{Procs: 4})
	firsts := 0
	r.OnFirstDelivery(func() { firsts++ })
	prog := lang.Fib()
	var reqs []*Request
	for i := 0; i < 4; i++ {
		q, err := r.Submit(prog, "fib", []expr.Value{expr.VInt(3)})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, q)
	}
	for i, s := range w.take() {
		if s.pkt == nil || s.reissue || s.to != proto.ProcID(i) || s.pkt.Parent.Proc != proto.HostID {
			t.Fatalf("root %d sent %+v, want a fresh spawn on processor %d", i, s, i)
		}
	}

	r.NodeDown(1)
	var told []proto.ProcID
	var re []sent
	for _, s := range w.take() {
		if s.pkt == nil {
			told = append(told, s.to)
		} else {
			re = append(re, s)
		}
	}
	if len(told) != 3 || told[0] != 0 || told[1] != 2 || told[2] != 3 {
		t.Fatalf("death announced to %v, want the three survivors", told)
	}
	if len(re) != 1 || !re[0].reissue || re[0].pkt != reqs[1].pkt || re[0].to == 1 {
		t.Fatalf("root reissue %+v, want request 1's retained packet on a live processor", re)
	}

	// The original and the reissued root both answer: one completion.
	for i := 0; i < 2; i++ {
		r.Deliver(&proto.Result{Child: reqs[1].pkt.Key, Value: expr.VInt(2)})
	}
	if v, err := reqs[1].Wait(0, nil); err != nil || !v.Equal(expr.VInt(2)) {
		t.Fatalf("request 1 answer = %v, %v", v, err)
	}
	if firsts != 1 {
		t.Fatalf("first-delivery hook ran %d times for a twin-answered request, want 1", firsts)
	}
	if _, err := reqs[0].Wait(0, nil); err == nil {
		t.Fatal("an unanswered request reported an answer")
	}
	// An answer for a request that never existed drains.
	r.Deliver(&proto.Result{Child: proto.TaskKey{Stamp: stamp.FromPath(99)}, Value: expr.VInt(0)})

	// Round-robin skips the processor the root was told is dead: request 5
	// would land on processor 1.
	for i := 0; i < 2; i++ {
		if _, err := r.Submit(prog, "fib", []expr.Value{expr.VInt(3)}); err != nil {
			t.Fatal(err)
		}
	}
	if s := w.take(); len(s) != 2 || s[0].to != 0 || s[1].to != 2 {
		t.Fatalf("requests 4 and 5 placed by %+v, want processors 0 and 2", s)
	}
	got, by := r.Metrics()
	if drained := core.CountersOf(&got).Drained; got.TasksSpawned != 7 || got.Reissues != 1 || got.LateResults != 1 || drained != 1 {
		t.Fatalf("spawned/reissued/late/drained = %d/%d/%d/%d, want 7/1/1/1", got.TasksSpawned, got.Reissues, got.LateResults, drained)
	}
	if by[0]+by[1]+by[2]+by[3] != 0 {
		t.Fatalf("the super-root's reissue was attributed to a node: %v", by)
	}
}

func TestRootWithoutRecoveryStaysSilent(t *testing.T) {
	w, r := newWire(t, proto.HostID, Spec{Procs: 3, NoRecovery: true})
	if _, err := r.Submit(lang.Fib(), "fib", []expr.Value{expr.VInt(3)}); err != nil {
		t.Fatal(err)
	}
	w.take()
	r.NodeDown(1)
	if s := w.take(); len(s) != 0 {
		t.Fatalf("the none scheme announced or reissued: %+v", s)
	}
	// Placement still uses what the root was told: request 1 skips processor 1.
	if _, err := r.Submit(lang.Fib(), "fib", []expr.Value{expr.VInt(3)}); err != nil {
		t.Fatal(err)
	}
	if s := w.take(); len(s) != 1 || s[0].to != 2 {
		t.Fatalf("root placed by %+v, want processor 2", s)
	}
}

// TestRootLoadsEachSpecOnce: a stream that names its workloads by spec makes
// each distinct program resident once — on net that is one source broadcast,
// parse and compile per node — not once per request.
func TestRootLoadsEachSpecOnce(t *testing.T) {
	w, r := newWire(t, proto.HostID, Spec{Procs: 4})
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
	if w.loads != len(specs) {
		t.Fatalf("8 requests of %d specs loaded %d programs", len(specs), w.loads)
	}
}

func TestSubmitRejectsBadEntries(t *testing.T) {
	r, err := NewRoot(Spec{Procs: 2}, &wire{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(nil, "fib", nil); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := r.Submit(lang.Fib(), "nosuch", nil); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := NewRoot(Spec{Procs: 1}, &wire{}); err == nil {
		t.Error("single-node machine accepted")
	}
}
