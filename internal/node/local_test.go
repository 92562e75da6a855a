package node

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/trace"
)

// Local delivery is observationally the wire. A node that draws itself as a
// destination delivers in place, from a private FIFO, before its handler
// returns; the parent of this change mailed itself through its Link and the
// transport brought the message back later. The tests here run one request
// on both and require that nobody outside the node can tell: the same
// transcript of what crossed the interconnect, the same answer, the same
// spawned, reissue and drain totals, and messages differing by exactly the
// messages that no longer exist.

// parcel is one message in flight in a mesh; exactly one of pkt, res, down
// is set (down is the dead processor's id + 1).
type parcel struct {
	to   proto.ProcID
	pkt  *proto.TaskPacket
	res  *proto.Result
	down proto.ProcID
}

// mesh is a whole machine in one goroutine: the real super-root, procs Nodes
// and one FIFO of messages in flight, delivered one at a time — so a run is a
// pure function of (program, procs, seed, kills).
//
// In loop mode every node stands for the parent's Node: it believes it is
// processor id+procs, which placement never draws, so everything it spawns
// reaches its Link; the Link translates the alias back, charges the message
// as the parent's transports did, and re-injects what is self-addressed
// through the public handlers once the current handler has returned — first
// in, first out, ahead of anything else in flight.
type mesh struct {
	t     testing.TB
	procs int
	loop  bool
	root  *Root
	ep    lang.EvalProgram
	nodes []*Node
	dead  []bool

	flight []parcel // crossing the interconnect
	home   []parcel // loop mode: self-addressed, awaiting re-injection

	crossed   []string // transcript of what crossed, root traffic included
	delivered int      // parcels taken off flight, the kill schedule's clock
	handled   int      // of those, the ones a live node's handler received

	// Loop mode: what the nodes mailed themselves.
	selfMsgs, selfSpawns, selfReissues int64
	selfBytes                          int64
}

func newMesh(t testing.TB, procs int, seed int64, loop bool) *mesh {
	m := &mesh{t: t, procs: procs, loop: loop, dead: make([]bool, procs)}
	var err error
	if m.root, err = NewRoot(Spec{Procs: procs, Seed: seed}, m); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < procs; p++ {
		n := New(proto.ProcID(p), procs, seed, meshLink{m, proto.ProcID(p)}, func(int) lang.EvalProgram { return m.ep })
		if loop {
			n.id += proto.ProcID(procs) // placement was seeded from the real id
		}
		m.nodes = append(m.nodes, n)
	}
	return m
}

// LoadProgram implements Fabric; a mesh runs one program.
func (m *mesh) LoadProgram(_ int, prog *lang.Program) error {
	ev, err := Spec{}.Evaluator()
	if err != nil {
		return err
	}
	m.ep, err = ev.Compile(prog)
	return err
}

// Spawn implements Fabric.
func (m *mesh) Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool) {
	m.root.CountSpawn(pkt.EncodedSize(), reissue)
	m.cross(proto.HostID, parcel{to: to, pkt: pkt}, reissue)
}

// NodeDown implements Fabric.
func (m *mesh) NodeDown(to, dead proto.ProcID) {
	m.root.CountNodeDown(16)
	m.cross(proto.HostID, parcel{to: to, down: dead + 1}, false)
}

func (m *mesh) cross(from proto.ProcID, p parcel, reissue bool) {
	what := fmt.Sprintf("down %d", p.down-1)
	switch {
	case p.pkt != nil:
		what = fmt.Sprintf("spawn %v hole %d reissue %v", p.pkt.Key, p.pkt.HoleID, reissue)
	case p.res != nil:
		what = fmt.Sprintf("result %v hole %d = %v", p.res.Child, p.res.HoleID, p.res.Value)
	}
	m.crossed = append(m.crossed, fmt.Sprintf("%d→%d %s", from, p.to, what))
	if p.to != proto.HostID {
		m.flight = append(m.flight, p)
	}
}

// meshLink is processor p's Link.
type meshLink struct {
	m *mesh
	p proto.ProcID
}

// real translates a loop-mode alias back to the processor it stands for.
func (l meshLink) real(id proto.ProcID) proto.ProcID {
	if id >= proto.ProcID(l.m.procs) {
		id -= proto.ProcID(l.m.procs)
	}
	return id
}

func (l meshLink) Spawn(to proto.ProcID, pkt *proto.TaskPacket, reissue bool) {
	m := l.m
	if pkt.Parent.Proc != l.real(pkt.Parent.Proc) {
		// The child must answer to a processor that exists — and, the parent
		// being an alias, will never mistake that address for its own.
		cp := *pkt
		cp.Parent.Proc = l.real(cp.Parent.Proc)
		pkt = &cp
	}
	if to = l.real(to); to == l.p {
		m.mailedSelf(parcel{to: to, pkt: pkt}, pkt.EncodedSize())
		m.selfSpawns++
		if reissue {
			m.selfReissues++
		}
	} else {
		m.cross(l.p, parcel{to: to, pkt: pkt}, reissue)
	}
	var d trace.Metrics
	CountSent(&d, true, reissue, pkt.EncodedSize())
	m.root.Fold(l.p, &d)
}

func (l meshLink) Result(to proto.ProcID, res *proto.Result) {
	m := l.m
	if to == l.p {
		m.mailedSelf(parcel{to: to, res: res}, res.EncodedSize())
	} else {
		m.cross(l.p, parcel{to: to, res: res}, false)
	}
	var d trace.Metrics
	CountSent(&d, false, false, res.EncodedSize())
	m.root.Fold(l.p, &d)
	if to == proto.HostID {
		m.root.Deliver(res)
	}
}

func (l meshLink) Fail(task proto.TaskKey, err error) { l.m.root.Fail(l.p, task, err) }

func (m *mesh) mailedSelf(p parcel, size int) {
	if !m.loop {
		m.t.Fatalf("node %d mailed itself, and these runs are far inside settleBudget: %+v", p.to, p)
	}
	m.selfMsgs++
	m.selfBytes += int64(size)
	m.home = append(m.home, p)
}

func (m *mesh) handle(p parcel) {
	switch n := m.nodes[p.to]; {
	case p.pkt != nil:
		n.OnSpawn(p.pkt)
	case p.res != nil:
		n.OnResult(p.res)
	default:
		n.OnNodeDown(p.down - 1)
	}
}

// kill is one entry of a kill schedule: processor proc dies once after
// parcels have been delivered.
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
		return // the schedule may name a victim twice; one node must survive
	}
	m.dead[p] = true
	m.root.NodeDown(p)
}

// run serves one request to completion under a kill schedule (sorted by
// after) and returns its answer, with everything only the nodes counted
// folded into the root's counters the way a transport does at shutdown.
func (m *mesh) run(w core.Workload, kills []kill) expr.Value {
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
		p := m.flight[0]
		m.flight = m.flight[1:]
		m.delivered++
		if m.dead[p.to] {
			m.root.CountBlackholed()
			continue
		}
		m.handled++
		m.handle(p)
		for len(m.home) > 0 {
			p, m.home = m.home[0], m.home[1:]
			m.handle(p)
		}
	}
	for i, n := range m.nodes {
		m.root.Fold(proto.ProcID(i), &n.Metrics)
	}
	v, err := q.Wait(0, nil)
	if err != nil {
		got, _ := m.root.Metrics()
		m.t.Fatalf("nothing left in flight and no answer: %v (loop %v, %q)", err, m.loop, got.Rows())
	}
	return v
}

// localDeliveryProgs are the programs the differential runs: two-way and
// three-way recursion, and a wide shallow tree.
var localDeliveryProgs = []string{"fib:9", "tak:6,3,1", "tree:4,3"}

// checkLocalDelivery runs one (program, procs, seed, kills) on a mesh of
// Nodes and on a mesh of loop-back Nodes and compares everything an observer
// outside a node can see. It returns the in-place mesh for further claims.
func checkLocalDelivery(t testing.TB, spec string, procs int, seed int64, kills []kill) *mesh {
	t.Helper()
	w, err := core.StandardWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lang.RefEval(w.Program, w.Fn, w.Args)
	if err != nil {
		t.Fatal(err)
	}
	inPlace, wire := newMesh(t, procs, seed, false), newMesh(t, procs, seed, true)
	got, ref := inPlace.run(w, kills), wire.run(w, kills)
	if !got.Equal(want) || !ref.Equal(want) {
		t.Fatalf("answers %v (in place) and %v (loop-back), want %v", got, ref, want)
	}
	if !slices.Equal(inPlace.crossed, wire.crossed) {
		for i := range inPlace.crossed {
			if i >= len(wire.crossed) || inPlace.crossed[i] != wire.crossed[i] {
				t.Fatalf("what crossed differs at message %d of %d/%d:\n  in place : %s\n  loop-back: %s",
					i, len(inPlace.crossed), len(wire.crossed), inPlace.crossed[i], append(wire.crossed, "(nothing)")[i])
			}
		}
		t.Fatalf("the loop-back run sent %d messages more", len(wire.crossed)-len(inPlace.crossed))
	}
	ma, byA := inPlace.root.Metrics()
	mb, byB := wire.root.Metrics()
	if ma.TasksSpawned != mb.TasksSpawned || ma.Reissues != mb.Reissues || ma.DupResults != mb.DupResults ||
		ma.LateResults != mb.LateResults || ma.Blackholed != mb.Blackholed || !slices.Equal(byA, byB) {
		t.Fatalf("spawned/reissued/dup/late/blackholed/by node = %d/%d/%d/%d/%d/%v in place, %d/%d/%d/%d/%d/%v through the wire",
			ma.TasksSpawned, ma.Reissues, ma.DupResults, ma.LateResults, ma.Blackholed, byA,
			mb.TasksSpawned, mb.Reissues, mb.DupResults, mb.LateResults, mb.Blackholed, byB)
	}
	var reissuesInPlace, byNode int64
	for i, n := range inPlace.nodes {
		reissuesInPlace += n.Metrics.Reissues
		byNode += byA[i]
		if ref := wire.nodes[i]; n.Metrics.DupResults != ref.Metrics.DupResults ||
			n.Metrics.LateResults != ref.Metrics.LateResults || ref.Metrics.TasksInPlace != 0 {
			t.Fatalf("node %d: dup/late %d/%d in place, %d/%d through the wire (which placed %d in place)", i,
				n.Metrics.DupResults, n.Metrics.LateResults, ref.Metrics.DupResults, ref.Metrics.LateResults, ref.Metrics.TasksInPlace)
		}
	}
	if ma.TasksInPlace != wire.selfSpawns || reissuesInPlace != wire.selfReissues || mb.TasksInPlace != 0 {
		t.Fatalf("%d packets (%d reissues) ran in place; the loop-back nodes mailed themselves %d (%d)",
			ma.TasksInPlace, reissuesInPlace, wire.selfSpawns, wire.selfReissues)
	}
	if byNode > ma.Reissues {
		t.Fatalf("the nodes are credited %d reissues, the stream total says %d", byNode, ma.Reissues)
	}
	a, b := core.CountersOf(&ma), core.CountersOf(&mb)
	if b.Messages-a.Messages != wire.selfMsgs || b.MsgBytes-a.MsgBytes != wire.selfBytes {
		t.Fatalf("messages %d (%d bytes) in place, %d (%d) through the wire: the difference is not the %d (%d) self-addressed",
			a.Messages, a.MsgBytes, b.Messages, b.MsgBytes, wire.selfMsgs, wire.selfBytes)
	}
	if a.Messages != int64(len(inPlace.crossed)) {
		t.Fatalf("%d messages charged, %d crossed", a.Messages, len(inPlace.crossed))
	}
	return inPlace
}

func TestLocalDeliveryIsTheWire(t *testing.T) {
	for _, spec := range localDeliveryProgs {
		for _, tc := range []struct {
			procs int
			seed  int64
			kills []kill
		}{
			{4, 1, nil},
			{8, 7, nil},
			{5, 3, []kill{{40, 3}, {90, 1}}},
			{6, 11, []kill{{1, 0}, {1, 1}, {1, 2}}}, // a cascade that takes the root's host first
			{3, 13, []kill{{25, 1}, {26, 2}}},       // down to one survivor mid-run
		} {
			t.Run(fmt.Sprintf("%s/p%d/k%d", spec, tc.procs, len(tc.kills)), func(t *testing.T) {
				m := checkLocalDelivery(t, spec, tc.procs, tc.seed, tc.kills)
				if got, _ := m.root.Metrics(); got.TasksInPlace == 0 || (len(tc.kills) > 0 && got.Reissues == 0) {
					t.Fatalf("the case exercised nothing: %q", got.Rows())
				}
			})
		}
	}
}

// TestWholeRequestInOneHandlerCall: two processors, one dead before the
// request starts. Until the survivor is told, half its spawns vanish into the
// dead one; the announcement reissues them all in place, and everything that
// is left of the request — hundreds of tasks deep — runs inside that one
// OnNodeDown call, by iteration, and answers the host from there.
func TestWholeRequestInOneHandlerCall(t *testing.T) {
	for _, spec := range localDeliveryProgs {
		m := checkLocalDelivery(t, spec, 2, 3, []kill{{0, 1}})
		if m.handled != 2 {
			t.Fatalf("%s: node 0's handlers ran %d times, want 2 (the root's packet, the announcement)", spec, m.handled)
		}
		got, _ := m.root.Metrics()
		if last := m.crossed[len(m.crossed)-1]; got.Reissues == 0 || got.Reissues != m.nodes[0].Metrics.Reissues || !strings.HasPrefix(last, "0→-1 result") {
			t.Fatalf("%s: %d reissued, %d of them in place, last message %q", spec, got.Reissues, m.nodes[0].Metrics.Reissues, last)
		}
	}
}

// FuzzNodeLocalDelivery is checkLocalDelivery over program × procs 2–8 × seed
// × kill points: kills is read as (delay, victim) byte pairs, each delay
// counted in delivered messages from the previous kill.
func FuzzNodeLocalDelivery(f *testing.F) {
	f.Add(uint8(0), uint8(4), int64(1), []byte{})
	f.Add(uint8(0), uint8(2), int64(3), []byte{0, 1}) // every placement local: one handler call runs the request
	f.Add(uint8(1), uint8(5), int64(7), []byte{40, 3, 50, 1})
	f.Add(uint8(2), uint8(8), int64(11), []byte{1, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6})
	f.Add(uint8(1), uint8(3), int64(13), []byte{25, 1, 1, 2})
	f.Add(uint8(2), uint8(6), int64(-5), []byte{200, 2, 200, 2, 255, 0})
	f.Fuzz(func(t *testing.T, prog, procs uint8, seed int64, schedule []byte) {
		if len(schedule) > 32 {
			return
		}
		var kills []kill
		for at := 0; len(schedule) >= 2; schedule = schedule[2:] {
			at += int(schedule[0])
			kills = append(kills, kill{at, proto.ProcID(int(schedule[1]) % (2 + int(procs)%7))})
		}
		checkLocalDelivery(t, localDeliveryProgs[int(prog)%len(localDeliveryProgs)], 2+int(procs)%7, seed, kills)
	})
}
