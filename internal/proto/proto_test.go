package proto

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/stamp"
)

func TestTaskKeyString(t *testing.T) {
	k := TaskKey{Stamp: stamp.FromPath(1, 2)}
	if k.String() != "1.2" {
		t.Errorf("plain key = %q", k.String())
	}
	k.Rep = 7
	if k.String() != "1.2#7" {
		t.Errorf("replica key = %q", k.String())
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Proc: 3, Task: TaskKey{Stamp: stamp.FromPath(0, 1)}}
	if got := a.String(); got != "0.1@3" {
		t.Errorf("Addr.String = %q", got)
	}
}

func samplePacket() *TaskPacket {
	return &TaskPacket{
		Key:       TaskKey{Stamp: stamp.FromPath(0, 1)},
		Gen:       5,
		ParentGen: 4,
		Fn:        "fib",
		Args:      []expr.Value{expr.VInt(10), expr.IntList(1, 2)},
		Parent:    Addr{Proc: 2, Task: TaskKey{Stamp: stamp.FromPath(0)}},
		HoleID:    1,
		Ancestors: []Addr{{Proc: HostID, Task: TaskKey{}}},
		Replicas:  1,
	}
}

func TestPacketEncodedSizePositiveAndMonotone(t *testing.T) {
	p := samplePacket()
	base := p.EncodedSize()
	if base <= 0 {
		t.Fatalf("EncodedSize = %d", base)
	}
	// More arguments → strictly larger.
	p2 := samplePacket()
	p2.Args = append(p2.Args, expr.VStr("abcdef"))
	if p2.EncodedSize() <= base {
		t.Error("size not monotone in args")
	}
	// Deeper ancestors → strictly larger.
	p3 := samplePacket()
	p3.Ancestors = append(p3.Ancestors, Addr{Proc: 1, Task: TaskKey{Stamp: stamp.FromPath(9)}})
	if p3.EncodedSize() <= base {
		t.Error("size not monotone in ancestors")
	}
}

func TestPacketCloneIsDeep(t *testing.T) {
	p := samplePacket()
	q := p.Clone()
	if q == p {
		t.Fatal("Clone returned the same pointer")
	}
	q.Args[0] = expr.VInt(99)
	if p.Args[0].Equal(expr.VInt(99)) {
		t.Error("Clone shares the Args slice")
	}
	q.Ancestors[0] = Addr{Proc: 9}
	if p.Ancestors[0].Proc == 9 {
		t.Error("Clone shares the Ancestors slice")
	}
	q.Twin = true
	if p.Twin {
		t.Error("Clone shares flags")
	}
}

func TestResultEncodedSize(t *testing.T) {
	r := &Result{
		Child:      TaskKey{Stamp: stamp.FromPath(0, 1, 2)},
		ParentTask: TaskKey{Stamp: stamp.FromPath(0, 1)},
		HoleID:     2,
		Value:      expr.VInt(42),
		DeadParent: Addr{Proc: 3, Task: TaskKey{Stamp: stamp.FromPath(0, 1)}},
		Remaining:  []Addr{{Proc: 0, Task: TaskKey{Stamp: stamp.FromPath(0)}}},
	}
	n := r.EncodedSize()
	if n <= 0 {
		t.Fatalf("EncodedSize = %d", n)
	}
	r2 := *r
	r2.Value = expr.IntList(1, 2, 3, 4, 5, 6, 7, 8)
	if r2.EncodedSize() <= n {
		t.Error("size not monotone in value")
	}
}

func TestMsgEncodedSize(t *testing.T) {
	task := &Msg{Type: MsgTask, From: 0, To: 1, Task: samplePacket()}
	if task.EncodedSize() <= samplePacket().EncodedSize() {
		t.Error("task message smaller than its payload")
	}
	hb := &Msg{Type: MsgHeartbeat, From: 0, To: 1}
	if hb.EncodedSize() <= 0 || hb.EncodedSize() >= task.EncodedSize() {
		t.Errorf("heartbeat size = %d, task size = %d", hb.EncodedSize(), task.EncodedSize())
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for mt := MsgTask; mt <= MsgChildAbort; mt++ {
		if strings.HasPrefix(mt.String(), "MsgType(") {
			t.Errorf("message type %d unnamed", int(mt))
		}
	}
	if !strings.HasPrefix(MsgType(99).String(), "MsgType(") {
		t.Error("unknown type fallback missing")
	}
}

func TestProcLetter(t *testing.T) {
	cases := map[ProcID]string{
		HostID: "host",
		0:      "A",
		3:      "D",
		25:     "Z",
		26:     "P26", // 6×6 grids and beyond keep a uniform naming scheme
		63:     "P63",
	}
	for p, want := range cases {
		if got := p.Letter(); got != want {
			t.Errorf("ProcID(%d).Letter() = %q, want %q", p, got, want)
		}
	}
}
