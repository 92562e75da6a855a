package proto

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/stamp"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire_golden.txt from the current codec")

const wireGolden = "wire_golden.txt"

// wireCase is one frame the golden file pins: a packet or a result.
type wireCase struct {
	name string
	pkt  *TaskPacket
	res  *Result
}

func (c wireCase) encode() []byte {
	if c.pkt != nil {
		return EncodePacket(c.pkt)
	}
	return EncodeResult(c.res)
}

// wireCases is a packet for every combination of the packet's flag bits, a
// result for every combination of the result's, a packet at each
// generation where a uvarint changes width, and one under a parent whose
// last component, and one whose replica, is at each width of its field.
func wireCases() []wireCase {
	parent := Addr{Proc: 6, Task: TaskKey{Stamp: stamp.FromPath(2, 0)}}
	chain := []Addr{{Proc: 2, Task: TaskKey{Stamp: stamp.FromPath(2)}}, {Proc: HostID, Task: TaskKey{Stamp: stamp.Root()}}}
	lineage := TaskKey{Stamp: parent.Task.Stamp.Child(5), Rep: 4} // a re-placed or replicated child: not the hole child
	basePacket := func() *TaskPacket {
		return &TaskPacket{
			Key: parent.Task, Gen: 5, ParentGen: 3, FnIndex: 2, Args: []expr.Value{expr.VInt(17)},
			Parent: parent, HoleID: 5, Replicas: 1,
		}
	}
	var cases []wireCase
	for bits := 0; bits < 1<<5; bits++ {
		p := basePacket()
		name := "packet"
		set := func(bit int, what string, apply func()) {
			if bits&(1<<bit) != 0 {
				name += " " + what
				apply()
			}
		}
		p.Key = lineage
		set(0, "hole-child", func() { p.Key = TaskKey{Stamp: parent.Task.Stamp.Child(5)} })
		set(1, "twin", func() { p.Twin = true })
		set(2, "reissue", func() { p.Reissue = true })
		set(3, "replicated", func() { p.Replicas = 3 })
		set(4, "chain", func() { p.Ancestors = chain })
		cases = append(cases, wireCase{name: name, pkt: p})
	}
	for bits := 0; bits < 1<<3; bits++ {
		r := &Result{ParentTask: parent.Task, HoleID: 5, Child: lineage, Value: expr.VInt(1597)}
		name := "result"
		if bits&1 != 0 {
			name += " hole-child"
			r.Child = TaskKey{Stamp: parent.Task.Stamp.Child(5)}
		}
		if bits&2 != 0 {
			name += " dead-parent"
			r.DeadParent = Addr{Proc: 3, Task: TaskKey{Stamp: r.Child.Stamp}}
		}
		if bits&4 != 0 {
			name += " chain"
			r.Remaining = chain
		}
		cases = append(cases, wireCase{name: name, res: r})
	}
	for _, g := range []uint64{0, 127, 128, 16383, 16384, 1 << 63} {
		p := basePacket()
		p.Key = TaskKey{Stamp: parent.Task.Stamp.Child(5)}
		p.Gen, p.ParentGen = g, g
		cases = append(cases, wireCase{name: fmt.Sprintf("packet gen=%d", g), pkt: p})
	}
	for _, c := range []uint32{7, 8, 63, 64, 1<<32 - 1} {
		p := basePacket()
		p.Parent.Task = TaskKey{Stamp: stamp.FromPath(2, c)}
		p.Key = TaskKey{Stamp: p.Parent.Task.Stamp.Child(5)}
		cases = append(cases, wireCase{name: fmt.Sprintf("packet parent component=%d", c), pkt: p})
	}
	for _, rep := range []Rep{1, 127, 128} {
		p := basePacket()
		p.Parent.Task.Rep = rep
		p.Key = TaskKey{Stamp: p.Parent.Task.Stamp.Child(5), Rep: rep}
		cases = append(cases, wireCase{name: fmt.Sprintf("packet replica=%d", rep), pkt: p})
	}
	return cases
}

// TestWireFormatGolden pins the bytes of the packet and result codec: every
// case's encoding is its line in testdata/wire_golden.txt, and each line
// decodes back to its case. Regenerate with
// `go test ./internal/proto -run WireFormatGolden -update` — a deliberate
// format change, which also moves every backend's byte counts.
func TestWireFormatGolden(t *testing.T) {
	cases := wireCases()
	path := filepath.Join("testdata", wireGolden)
	if *updateWire {
		var b strings.Builder
		b.WriteString("# case\tencoding (hex); go test ./internal/proto -run WireFormatGolden -update rewrites this file\n")
		for _, c := range cases {
			fmt.Fprintf(&b, "%s\t%x\n", c.name, c.encode())
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			name, enc, _ := strings.Cut(line, "\t")
			golden[name] = enc
		}
	}
	if len(golden) != len(cases) {
		t.Errorf("%s holds %d cases, the codec's table %d", wireGolden, len(golden), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: not in %s", c.name, wireGolden)
			continue
		}
		if got := hex.EncodeToString(c.encode()); got != want {
			t.Errorf("%s: encodes to %s, golden %s", c.name, got, want)
		}
		raw, err := hex.DecodeString(want)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.pkt != nil {
			if back, err := DecodePacket(raw); err != nil || !packetsEqual(c.pkt, back) {
				t.Errorf("%s: golden decodes to %+v, %v", c.name, back, err)
			}
		} else if back, err := DecodeResult(raw); err != nil || !resultsEqual(c.res, back) {
			t.Errorf("%s: golden decodes to %+v, %v", c.name, back, err)
		}
	}
}

// TestCloneIsSizedAfresh: a respawn sizes a clone after rewriting what
// changes its encoding — its lineage (Key.Rep), its generations, its flags —
// so a clone of an already-sized packet must not carry the original's size.
func TestCloneIsSizedAfresh(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 500; i++ {
		p := randomPacket(r)
		p.EncodedSize()
		q := p.Clone()
		switch i % 3 {
		case 0:
			q.Key.Rep = Rep(r.Uint64() >> r.Intn(64)) // re-placed under a new lineage
		case 1:
			q.Gen, q.ParentGen = r.Uint64()>>r.Intn(64), r.Uint64()>>r.Intn(64)
		case 2:
			q.Twin, q.Reissue = !q.Twin, !q.Reissue
		}
		if n, wire := q.EncodedSize(), len(EncodePacket(q)); n != wire {
			t.Fatalf("clone %+v: EncodedSize %d, wire %d", q, n, wire)
		}
	}
}

// TestDecodeRejectsAbsentFields: a field a frame leaves out is spelled by its
// flag bit alone, so a flag the frame's kind does not define, an empty chain
// behind flagChain and a replica count of 1 behind flagReplicated are
// malformed.
func TestDecodeRejectsAbsentFields(t *testing.T) {
	parent := TaskKey{Stamp: stamp.FromPath(2, 0)}
	pkt := EncodePacket(&TaskPacket{Key: TaskKey{Stamp: parent.Stamp.Child(5)}, Gen: 5, ParentGen: 3, FnIndex: 0,
		Args: []expr.Value{expr.VInt(17)}, Parent: Addr{Proc: 6, Task: parent}, HoleID: 5, Replicas: 1})
	res := EncodeResult(&Result{ParentTask: parent, HoleID: 5, Child: TaskKey{Stamp: parent.Stamp.Child(5)}, Value: expr.VInt(8)})
	with := func(frame []byte, flag byte, tail ...byte) []byte {
		b := append([]byte{frame[0] | flag}, frame[1:]...)
		return append(b, tail...)
	}
	for name, frame := range map[string][]byte{
		"packet, undefined flag":         with(pkt, 1<<6),
		"packet, dead-parent flag":       with(pkt, flagDeadParent),
		"packet, empty chain":            with(pkt, flagChain, 0),
		"packet, one replica":            with(pkt, flagReplicated, 1),
		"packet, chain flag, no chain":   with(pkt, flagChain),
		"packet, replica flag, no count": with(pkt, flagReplicated),
	} {
		if _, err := DecodePacket(frame); !errors.Is(err, ErrPacketCodec) {
			t.Errorf("%s: decoded (%v)", name, err)
		}
	}
	for name, frame := range map[string][]byte{
		"result, twin flag":   with(res, flagTwin),
		"result, empty chain": with(res, flagChain, 0),
	} {
		if _, err := DecodeResult(frame); !errors.Is(err, ErrPacketCodec) {
			t.Errorf("%s: decoded (%v)", name, err)
		}
	}
	if _, err := DecodePacket(pkt); err != nil {
		t.Fatalf("the unaltered packet: %v", err)
	}
	if _, err := DecodeResult(res); err != nil {
		t.Fatalf("the unaltered result: %v", err)
	}
}

const frameGolden = "frame_golden.txt"

// frameCase is one line the frame golden file pins: a frame header, or the
// AppendControl payload of a control message.
type frameCase struct {
	name string
	hdr  *Frame // Payload unset; n is its length
	n    int
	ctl  *Msg
}

func (c frameCase) encode() []byte {
	if c.ctl != nil {
		return AppendControl(nil, c.ctl)
	}
	return appendHeader(nil, c.n, c.hdr.Type, c.hdr.Flags, c.hdr.From, c.hdr.To)
}

// frameCases is a header for every frame type, for each flag, for ids and
// payload lengths at every varint width boundary, and every control message
// net carries with its generations at the same boundaries.
func frameCases() []frameCase {
	var cases []frameCase
	add := func(t FrameType, flags byte, from, to ProcID, n int) {
		cases = append(cases, frameCase{
			name: fmt.Sprintf("header %v flags=%d from=%d to=%d len=%d", t, flags, from, to, n),
			hdr:  &Frame{Type: t, Flags: flags, From: from, To: to}, n: n,
		})
	}
	for t := FrameHello; t < frameTypeEnd; t++ {
		add(t, 0, 0, 1, 0)
	}
	add(FrameSpawn, FlagReissue, 0, 1, 20)
	add(FrameResult, FlagFailed, 1, HostID, 20)
	add(FrameResult, FlagReissue|FlagFailed, 1, HostID, 20)
	for _, id := range []ProcID{HostID, 0, 63, 64, -65, 1000, 1<<31 - 1, -1 << 31} {
		add(FrameControl, 0, id, 1, 3)
		add(FrameControl, 0, HostID, id, 3)
	}
	for _, n := range []int{127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, MaxFramePayload} {
		add(FrameProgram, 0, HostID, 2, n)
	}
	parent, child := TaskKey{Stamp: stamp.FromPath(2, 0)}, TaskKey{Stamp: stamp.FromPath(2, 0, 5), Rep: 1}
	for _, g := range []uint64{0, 127, 128, 16383, 16384, 1 << 63} {
		for _, m := range []*Msg{
			{Type: MsgAbort, AbortTask: child, AbortGen: g, AbortScope: parent.Stamp},
			{Type: MsgChildAbort, AbortTask: child, AbortGen: g},
			{Type: MsgTaskAck, AckParent: parent, AckHole: 5, AckTask: child, AckGen: g, PlacedOn: 64},
		} {
			cases = append(cases, frameCase{name: fmt.Sprintf("control %v gen=%d", m.Type, g), ctl: m})
		}
	}
	for _, p := range []ProcID{0, 63, 64} {
		cases = append(cases, frameCase{name: fmt.Sprintf("control fault-announce failed=%d", p), ctl: &Msg{Type: MsgFaultAnnounce, Failed: p}})
	}
	return cases
}

// TestFrameFormatGolden pins the bytes of the frame header and the control
// payloads: every case's encoding is its line in testdata/frame_golden.txt,
// and each line parses back to its case. Regenerate with
// `go test ./internal/proto -run FrameFormatGolden -update` — a deliberate
// format change, which also moves every backend's byte counts.
func TestFrameFormatGolden(t *testing.T) {
	cases := frameCases()
	path := filepath.Join("testdata", frameGolden)
	if *updateWire {
		var b strings.Builder
		b.WriteString("# case\tencoding (hex); go test ./internal/proto -run FrameFormatGolden -update rewrites this file\n")
		for _, c := range cases {
			fmt.Fprintf(&b, "%s\t%x\n", c.name, c.encode())
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(line, "#") {
			name, enc, _ := strings.Cut(line, "\t")
			golden[name] = enc
		}
	}
	if len(golden) != len(cases) {
		t.Errorf("%s holds %d cases, the table %d", frameGolden, len(golden), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: not in %s", c.name, frameGolden)
			continue
		}
		if got := hex.EncodeToString(c.encode()); got != want {
			t.Errorf("%s: encodes to %s, golden %s", c.name, got, want)
		}
		b, err := hex.DecodeString(want)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.ctl != nil {
			if back, err := DecodeControl(b); err != nil || *back != *c.ctl {
				t.Errorf("%s: golden decodes to %+v, %v", c.name, back, err)
			}
		} else if f, hdr, n, err := ParseFrameHeader(b); err != nil || f.Type != c.hdr.Type || f.Flags != c.hdr.Flags || f.From != c.hdr.From || f.To != c.hdr.To || hdr != len(b) || n != c.n {
			t.Errorf("%s: golden parses to %+v, %d-byte header, %d-byte payload, %v", c.name, f, hdr, n, err)
		}
	}
}

// TestControlGenerationOverflow: a control message's generations are
// uvarints, and one that overflows 64 bits is malformed, not truncated.
func TestControlGenerationOverflow(t *testing.T) {
	key := TaskKey{Stamp: stamp.FromPath(2, 0, 5), Rep: 1}
	over := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02} // 2^64 and more
	for _, m := range []*Msg{
		{Type: MsgChildAbort, AbortTask: key, AbortGen: 1},
		{Type: MsgTaskAck, AckParent: TaskKey{Stamp: stamp.FromPath(2, 0)}, AckHole: 5, AckTask: key, AckGen: 1},
	} {
		enc := AppendControl(nil, m)
		at := bytes.LastIndexByte(enc, 1) // the generation: the last 1 in either encoding
		if m.Type == MsgTaskAck {
			at = len(enc) - 2 // ahead of PlacedOn's one byte
		}
		bad := append(append(append([]byte(nil), enc[:at]...), over...), enc[at+1:]...)
		if _, err := DecodeControl(bad); !errors.Is(err, ErrPacketCodec) {
			t.Errorf("%v with a generation past 64 bits: %v", m.Type, err)
		}
		if back, err := DecodeControl(enc); err != nil || *back != *m {
			t.Errorf("%v: %+v, %v", m.Type, back, err)
		}
	}
}
