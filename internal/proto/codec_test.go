package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
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
		FnIndex:   []int32{0, 3, 200}[r.Intn(3)],
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
		a.FnIndex != b.FnIndex || a.Parent != b.Parent || a.HoleID != b.HoleID ||
		a.Twin != b.Twin || a.Reissue != b.Reissue || a.Replicas != b.Replicas {
		return false
	}
	return slices.EqualFunc(a.Args, b.Args, expr.Value.Equal) && slices.Equal(a.Ancestors, b.Ancestors)
}

func resultsEqual(a, b *Result) bool {
	return a.Child == b.Child && a.ParentTask == b.ParentTask && a.HoleID == b.HoleID &&
		a.Value.Equal(b.Value) && a.DeadParent == b.DeadParent && slices.Equal(a.Remaining, b.Remaining)
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
		return err == nil && resultsEqual(res, back)
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
// is the codec's: EncodedSize is exactly the encoding's length for packets
// and results.
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
		Key: TaskKey{Stamp: deep.Child(3)}, FnIndex: 1, Args: []expr.Value{expr.VInt(1)},
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

// TestKeysRoundTrip: every key a frame carries — a packet's parent, key and
// ancestors, a result's addressee, child, dead parent and remaining chain,
// a control message's — survives the round trip at the nibble widths'
// edges (components 7, 8, 63, 64 and 2³²−1), with replica 0 and without,
// absolute, relative to a deeper, a shallower and a sibling stamp.
func TestKeysRoundTrip(t *testing.T) {
	keys := []TaskKey{
		{Stamp: stamp.Root()},
		{Stamp: stamp.FromPath(7), Rep: 1},
		{Stamp: stamp.FromPath(8, 0)},
		{Stamp: stamp.FromPath(8, 63, 64), Rep: 300},
		{Stamp: stamp.FromPath(1<<32 - 1)},
		{Stamp: stamp.FromPath(5, 1<<32-1, 0, 3), Rep: 1<<64 - 1},
		{Stamp: stamp.FromPath(8, 63, 65, 2)},
	}
	for _, a := range keys {
		for _, b := range keys {
			p := &TaskPacket{Key: b, Gen: 1, FnIndex: 9, Args: []expr.Value{expr.VInt(1)},
				Parent: Addr{Proc: 3, Task: a}, HoleID: 8, Replicas: 2,
				Ancestors: []Addr{{Proc: 1, Task: b}, {Proc: HostID, Task: a}}}
			if back, err := DecodePacket(EncodePacket(p)); err != nil || !packetsEqual(p, back) {
				t.Errorf("packet %v under %v: %+v, %v", b, a, back, err)
			}
			if n := p.EncodedSize(); n != len(EncodePacket(p)) {
				t.Errorf("packet %v under %v: EncodedSize %d, wire %d", b, a, n, len(EncodePacket(p)))
			}
			r := &Result{ParentTask: a, Child: b, HoleID: 64, Value: expr.VInt(2),
				DeadParent: Addr{Proc: 2, Task: a}, Remaining: []Addr{{Proc: 4, Task: b}}}
			if back, err := DecodeResult(EncodeResult(r)); err != nil || !resultsEqual(r, back) {
				t.Errorf("result %v to %v: %+v, %v", b, a, back, err)
			}
			for _, m := range []*Msg{
				{Type: MsgAbort, AbortTask: a, AbortGen: 3, AbortScope: b.Stamp},
				{Type: MsgTaskAck, AckParent: a, AckHole: 8, AckTask: b, AckGen: 5, PlacedOn: 1},
			} {
				if back, err := DecodeControl(AppendControl(nil, m)); err != nil || *back != *m {
					t.Errorf("%v of %v and %v: %+v, %v", m.Type, a, b, back, err)
				}
			}
		}
	}
}

// TestMalformedPaths: a path is canonical or an error — no pad nibble other
// than 0, no component longer than it needs or past 32 bits, no replica 0
// written out, no replica behind a bare stamp, no count the bytes cannot
// hold — and a function index past int32 is malformed too.
func TestMalformedPaths(t *testing.T) {
	// A result to the hole child of task (1): flags, ParentTask, hole 3, and
	// the value 1.
	result := func(key ...byte) []byte {
		return append(append([]byte{flagHoleChild}, key...), 3, 1, 2)
	}
	for _, ok := range [][]byte{
		result(0x03, 0x10),                               // (1)
		result(0x02, 0x10, 0x05),                         // (1)#5
		result(0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0x30), // (2³²−1)
		result(0x05, 0x12),                               // (1, 2)
		result(0x01),                                     // the root
	} {
		if _, err := DecodeResult(ok); err != nil {
			t.Errorf("%x: %v", ok, err)
		}
	}
	for name, bad := range map[string][]byte{
		"pad nibble":          result(0x03, 0x11),
		"non-minimal":         result(0x03, 0x80),
		"past 32 bits":        result(0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0x70),
		"twelve nibbles":      result(0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 0x00),
		"replica 0 written":   result(0x02, 0x10, 0x00),
		"count past the end":  result(0x7f, 0x10),
		"path cut in a value": result(0x03, 0x8f),
	} {
		if _, err := DecodeResult(bad); !errors.Is(err, ErrPacketCodec) {
			t.Errorf("%s (%x): %v", name, bad, err)
		}
	}
	abort := []byte{byte(MsgAbort), 0x01, 0x00} // the root task, generation 0
	if _, err := DecodeControl(append(abort, 0x03, 0x10)); err != nil {
		t.Errorf("abort scope (1): %v", err)
	}
	if _, err := DecodeControl(append(abort, 0x02, 0x10)); !errors.Is(err, ErrPacketCodec) {
		t.Errorf("abort scope with a replica bit: %v", err)
	}
	pkt := &TaskPacket{Key: TaskKey{Stamp: stamp.FromPath(0)}, FnIndex: math.MaxInt32, Replicas: 1}
	enc := EncodePacket(pkt)
	if back, err := DecodePacket(enc); err != nil || back.FnIndex != math.MaxInt32 {
		t.Errorf("function %d: %+v, %v", pkt.FnIndex, back, err)
	}
	// One past the largest index, in the same five bytes.
	last, past := binary.AppendUvarint(nil, math.MaxInt32), binary.AppendUvarint(nil, math.MaxInt32+1)
	if i := bytes.Index(enc, last); i < 0 || len(past) != len(last) {
		t.Fatalf("no function index %x in %x", last, enc)
	} else if _, err := DecodePacket(append(enc[:i:i], append(past, enc[i+len(last):]...)...)); !errors.Is(err, ErrPacketCodec) {
		t.Errorf("function %d: %v", int64(math.MaxInt32)+1, err)
	}
}
