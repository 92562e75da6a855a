package proto

import (
	"bytes"
	"testing"

	"repro/internal/expr"
	"repro/internal/stamp"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestEncodedSizeAllocatesNothing pins that sizing a frame by encoding it
// keeps the encoder's scratch array on the stack: neither a packet with a
// cold memo nor a result costs a heap object to size.
func TestEncodedSizeAllocatesNothing(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a count of the shipped code's allocations, without -race")
	}
	parent := Addr{Proc: 3, Task: TaskKey{Stamp: stamp.FromPath(0, 2)}}
	pkt := &TaskPacket{
		Key: TaskKey{Stamp: parent.Task.Stamp.Child(1)}, Gen: 7, ParentGen: 6, FnIndex: 0,
		Args: []expr.Value{expr.VInt(1000)}, Parent: parent, HoleID: 1, Replicas: 1,
		Ancestors: []Addr{{Proc: HostID, Task: TaskKey{Stamp: stamp.FromPath(0)}}}, Twin: true,
	}
	res := &Result{
		Child: pkt.Key, ParentTask: parent.Task, HoleID: 1, Value: expr.IntList(3, 1000, 70000),
		DeadParent: parent, Remaining: pkt.Ancestors,
	}
	var n int
	if a := testing.AllocsPerRun(100, func() {
		fresh := *pkt // a copy with a cold memo: every run encodes
		fresh.encSize = 0
		n = fresh.EncodedSize()
	}); a != 0 || n != len(EncodePacket(pkt)) {
		t.Errorf("packet: %v allocations to size, %d bytes of %d", a, n, len(EncodePacket(pkt)))
	}
	if a := testing.AllocsPerRun(100, func() { n = res.EncodedSize() }); a != 0 || n != len(EncodeResult(res)) {
		t.Errorf("result: %v allocations to size, %d bytes of %d", a, n, len(EncodeResult(res)))
	}
}

// TestReadFrameIntoAllocatesNothing: a reader that keeps its Frame reads
// frame after frame into the same payload array.
func TestReadFrameIntoAllocatesNothing(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a count of the shipped code's allocations, without -race")
	}
	one := AppendFrame(nil, &Frame{Type: FrameResult, From: 1, To: 2, Payload: make([]byte, 40)})
	r := bytes.NewReader(bytes.Repeat(one, 200))
	var f Frame
	if err := ReadFrameInto(r, &f); err != nil { // sizes the array
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := ReadFrameInto(r, &f); err != nil || len(f.Payload) != 40 {
			t.Fatalf("read %d payload bytes: %v", len(f.Payload), err)
		}
	}); a != 0 {
		t.Errorf("%v allocations a frame", a)
	}
}
