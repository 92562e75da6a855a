package node

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/stamp"
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

// wire records every send and charges the counters the way a transport
// must: every message as it is carried.
type wire struct {
	from proto.ProcID
	c    *Counters
	log  []sent
	// loads counts program broadcasts.
	loads int
}

func (w *wire) Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool) {
	w.c.CountSpawn(w.from, pkt.EncodedSize(), reissue)
	w.log = append(w.log, sent{to: to, pkt: pkt, reissue: reissue})
}

func (w *wire) Result(to proto.ProcID, res *proto.Result) {
	w.c.CountMsg(res.EncodedSize())
	w.log = append(w.log, sent{to: to, res: res})
}

func (w *wire) Fail(task proto.TaskKey, err error) {
	w.log = append(w.log, sent{to: proto.HostID, failed: task, err: err})
}

func (w *wire) NodeDown(to, dead proto.ProcID) {
	w.c.CountMsg(16)
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
// counters of a fresh super-root that sends through it.
func newWire(t *testing.T, from proto.ProcID, spec Spec) (*wire, *Root) {
	t.Helper()
	w := &wire{from: from}
	r, err := NewRoot(spec, w)
	if err != nil {
		t.Fatal(err)
	}
	w.c = &r.Counters
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
	if got := len(n.tasks[first[0].pkt.Parent.Task.Stamp]); got != 2 {
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
	if len(n.tasks) != 0 || n.Drained != 0 {
		t.Fatalf("after completion: %d stamps resident, %d drained", len(n.tasks), n.Drained)
	}
}

func TestLateAndDuplicateResultsDrain(t *testing.T) {
	n, w := fibNode(t, 4, 1)
	n.OnSpawn(fibPacket(4, proto.HostID, 0))
	kids := w.take()
	n.OnResult(resultFor(kids[0].pkt, 2))
	// The hole is already filled: the second copy is simply ignored.
	n.OnResult(resultFor(kids[0].pkt, 2))
	if n.Drained != 1 {
		t.Fatalf("duplicate result: drained = %d, want 1", n.Drained)
	}
	n.OnResult(resultFor(kids[1].pkt, 1))
	if done := w.take(); len(done) != 1 || !done[0].res.Value.Equal(expr.VInt(3)) {
		t.Fatalf("fib(4) completion sent %+v", done)
	}
	// The task has retired: a late answer finds no addressee.
	n.OnResult(resultFor(kids[1].pkt, 1))
	if n.Drained != 2 {
		t.Fatalf("late result: drained = %d, want 2", n.Drained)
	}
	if extra := w.take(); len(extra) != 0 {
		t.Fatalf("drained results caused sends: %+v", extra)
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
	if n.InPlace == 0 {
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
		if parent := n.tasks[p.Parent.Task.Stamp]; len(parent) == 1 && parent[0].unfilled == 2 {
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
	if int64(sentRe)+n.InPlaceReissues != want || n.Reissues != want {
		t.Fatalf("%d reissues sent + %d in place, %d counted, want %d", sentRe, n.InPlaceReissues, n.Reissues, want)
	}
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
	if int64(len(lost)) != n.InPlaceReissues {
		t.Fatalf("%d lost packets were not sent again, %d were reissued in place", len(lost), n.InPlaceReissues)
	}

	// A second death: reissues avoid every processor known dead, and a packet
	// reissued onto the second victim is reissued again.
	counted, inPlace := n.Reissues, n.InPlaceReissues
	want = int64(len(byDest[deadNext]))
	n.OnNodeDown(deadNext)
	re = w.take()
	sentRe = note(re)
	if got := n.Reissues - counted; got != want || int64(sentRe)+n.InPlaceReissues-inPlace != want {
		t.Fatalf("second death reissued %d packets (%d sent), want %d", got, sentRe, want)
	}
	for _, s := range re {
		if s.pkt != nil && (s.to == dead || s.to == deadNext) {
			t.Fatalf("sent %+v to a processor this node knows is dead", s)
		}
	}

	// The transport brings the in-place counts home; then the totals are the
	// simulator's: every packet spawned, every reissue, wherever it ran.
	w.c.CountInPlace(0, n.InPlace, n.InPlaceReissues)
	got := w.c.Snapshot()
	if want := int64(crossed) + n.InPlace; got.Spawned != want || got.Reissued != n.Reissues || got.InPlace != n.InPlace {
		t.Fatalf("counters spawned/reissued/in place = %d/%d/%d, want %d/%d/%d (Spawned includes reissues and in-place packets)",
			got.Spawned, got.Reissued, got.InPlace, want, n.Reissues, n.InPlace)
	}
	if got.Messages != int64(msgs) {
		t.Fatalf("%d messages charged for the %d that crossed", got.Messages, msgs)
	}
	if by := w.c.ReissuesByNode(); by[0] != n.Reissues {
		t.Fatalf("per-node attribution %v, want %d on node 0", by, n.Reissues)
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
	if n.InPlace+mailed != tasks-1 || n.Drained != 0 || len(n.tasks) != 0 {
		t.Fatalf("%d packets in place + %d mailed, want %d in all; %d drained, %d tasks left",
			n.InPlace, mailed, tasks-1, n.Drained, len(n.tasks))
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
	if got := r.Snapshot(); got.Spawned != 7 || got.Reissued != 1 || got.Drained != 1 {
		t.Fatalf("spawned/reissued/drained = %d/%d/%d, want 7/1/1", got.Spawned, got.Reissued, got.Drained)
	}
	if by := r.ReissuesByNode(); by[0]+by[1]+by[2]+by[3] != 0 {
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
