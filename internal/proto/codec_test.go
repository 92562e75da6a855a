package proto

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/stamp"
)

// randomComponent is mostly a small fan-out index, sometimes one that takes
// every varint width up to five bytes.
func randomComponent(r *rand.Rand) uint32 {
	if r.Intn(4) == 0 {
		return r.Uint32() >> r.Intn(32)
	}
	return uint32(r.Intn(6))
}

func randomKey(r *rand.Rand) TaskKey {
	s := stamp.Root()
	for d := r.Intn(5); d > 0; d-- {
		s = s.Child(randomComponent(r))
	}
	return TaskKey{Stamp: s, Rep: Rep(r.Intn(4))}
}

func randomAddr(r *rand.Rand) Addr {
	return Addr{Proc: ProcID(r.Intn(10) - 1), Task: randomKey(r)}
}

// randomValue is an int of any width, a string or a list of both.
func randomValue(r *rand.Rand) expr.Value {
	switch r.Intn(4) {
	case 0:
		return expr.VStr(strings.Repeat("x", r.Intn(200)))
	case 1:
		return expr.ListOf(expr.VInt(r.Int63()), expr.VBool(true), expr.VUnit{}, expr.VInt(-r.Int63n(1000)))
	default:
		return expr.VInt(r.Int63() >> r.Intn(64) * int64(1-2*r.Intn(2)))
	}
}

// randomResult is a result to its parent, or, half the time, a grand result
// with a dead parent and the ancestors above it.
func randomResult(r *rand.Rand) *Result {
	res := &Result{
		Child:      randomKey(r),
		ParentTask: randomKey(r),
		HoleID:     r.Intn(8),
		Value:      randomValue(r),
	}
	if r.Intn(2) == 0 {
		res.Child = TaskKey{Stamp: res.ParentTask.Stamp.Child(uint32(res.HoleID)), Rep: res.ParentTask.Rep}
	}
	if r.Intn(2) == 0 {
		res.DeadParent = randomAddr(r)
	}
	for i := r.Intn(3); i > 0; i-- {
		res.Remaining = append(res.Remaining, randomAddr(r))
	}
	return res
}

func randomPacket(r *rand.Rand) *TaskPacket {
	p := &TaskPacket{
		Key:       randomKey(r),
		Gen:       r.Uint64(),
		ParentGen: r.Uint64(),
		Fn:        []string{"fib", "work", "n_3_17"}[r.Intn(3)],
		Parent:    randomAddr(r),
		HoleID:    r.Intn(16),
		Twin:      r.Intn(2) == 0,
		Reissue:   r.Intn(2) == 0,
		Replicas:  1 + r.Intn(5),
	}
	for i := r.Intn(3); i > 0; i-- {
		p.Args = append(p.Args, expr.VInt(r.Int63n(1000)))
	}
	if r.Intn(2) == 0 {
		p.Args = append(p.Args, expr.IntList(1, 2, 3))
	}
	for i := r.Intn(3); i > 0; i-- {
		p.Ancestors = append(p.Ancestors, randomAddr(r))
	}
	if r.Intn(2) == 0 { // the spawn the machine makes: the parent's child at the hole
		p.Key = TaskKey{Stamp: p.Parent.Task.Stamp.Child(uint32(p.HoleID)), Rep: p.Parent.Task.Rep}
	}
	return p
}

func packetsEqual(a, b *TaskPacket) bool {
	if a.Key != b.Key || a.Gen != b.Gen || a.ParentGen != b.ParentGen ||
		a.Fn != b.Fn || a.Parent != b.Parent || a.HoleID != b.HoleID ||
		a.Twin != b.Twin || a.Reissue != b.Reissue || a.Replicas != b.Replicas {
		return false
	}
	if len(a.Args) != len(b.Args) || len(a.Ancestors) != len(b.Ancestors) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	for i := range a.Ancestors {
		if a.Ancestors[i] != b.Ancestors[i] {
			return false
		}
	}
	return true
}

// TestQuickPacketRoundTrip proves the packet is self-contained: it survives
// a byte-level round trip with no external context — the property functional
// checkpointing (§2.1) depends on when packets are stored on peer
// processors.
func TestQuickPacketRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func() bool {
		p := randomPacket(r)
		buf := EncodePacket(p)
		back, err := DecodePacket(buf)
		if err != nil {
			return false
		}
		return packetsEqual(p, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickResultRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	f := func() bool {
		res := randomResult(r)
		buf := EncodeResult(res)
		back, err := DecodeResult(buf)
		if err != nil {
			return false
		}
		if back.Child != res.Child || back.ParentTask != res.ParentTask ||
			back.HoleID != res.HoleID || !back.Value.Equal(res.Value) ||
			back.DeadParent != res.DeadParent || len(back.Remaining) != len(res.Remaining) {
			return false
		}
		for i := range res.Remaining {
			if back.Remaining[i] != res.Remaining[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	p := randomPacket(r)
	buf := EncodePacket(p)
	for cut := 0; cut < len(buf); cut += 3 {
		if _, err := DecodePacket(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(buf))
		}
	}
	if _, err := DecodePacket(append(buf, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestEncodedSizeUpperBoundsWireForm pins that the size every backend charges
// is the codec's: EncodedSize is exactly the encoding's length for packets,
// results and values.
func TestEncodedSizeUpperBoundsWireForm(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 2000; i++ {
		p := randomPacket(r)
		if n, wire := p.EncodedSize(), len(EncodePacket(p)); n != wire {
			t.Fatalf("packet %+v: EncodedSize %d, wire %d", p, n, wire)
		}
		res := randomResult(r)
		if n, wire := res.EncodedSize(), len(EncodeResult(res)); n != wire {
			t.Fatalf("result %+v: EncodedSize %d, wire %d", res, n, wire)
		}
		v := randomValue(r)
		if n, wire := v.EncodedSize(), len(expr.EncodeValue(v)); n != wire {
			t.Fatalf("value %v: EncodedSize %d, wire %d", v, n, wire)
		}
	}
}

// TestDeepStampsRoundTrip is a call tree 20 000 levels deep: no stamp length
// on the wire is bounded by a fixed-width field.
func TestDeepStampsRoundTrip(t *testing.T) {
	const depth = 20_000
	deep, err := stamp.Decode(strings.Repeat("\x00\x00\x01\x02", depth-1))
	if err != nil {
		t.Fatal(err)
	}
	grand, _ := stamp.Decode(deep.Key()[:len(deep.Key())-4])
	p := &TaskPacket{
		Key: TaskKey{Stamp: deep.Child(3)}, Fn: "f", Args: []expr.Value{expr.VInt(1)},
		Parent: Addr{Proc: 5, Task: TaskKey{Stamp: deep}}, HoleID: 3, Replicas: 1,
		Ancestors: []Addr{{Proc: 1, Task: TaskKey{Stamp: grand}}},
	}
	if p.Key.Stamp.Level() != depth {
		t.Fatalf("packet at level %d, want %d", p.Key.Stamp.Level(), depth)
	}
	enc := EncodePacket(p)
	back, err := DecodePacket(enc)
	if err != nil || !packetsEqual(p, back) {
		t.Fatalf("%d-level packet: %v", depth, err)
	}
	if p.EncodedSize() != len(enc) {
		t.Fatalf("%d-level packet: EncodedSize %d, wire %d", depth, p.EncodedSize(), len(enc))
	}
	res := &Result{Child: p.Key, ParentTask: p.Parent.Task, HoleID: 3, Value: expr.VInt(8),
		DeadParent: p.Parent, Remaining: p.Ancestors}
	encR := EncodeResult(res)
	backR, err := DecodeResult(encR)
	if err != nil || backR.Child != res.Child || backR.ParentTask != res.ParentTask ||
		backR.DeadParent != res.DeadParent || backR.Remaining[0] != res.Remaining[0] {
		t.Fatalf("%d-level result: %v", depth, err)
	}
	if res.EncodedSize() != len(encR) {
		t.Fatalf("%d-level result: EncodedSize %d, wire %d", depth, res.EncodedSize(), len(encR))
	}
}
