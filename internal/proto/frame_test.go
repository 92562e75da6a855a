package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/stamp"
)

func TestFrameRoundTrip(t *testing.T) {
	pkt := &TaskPacket{
		Key:    TaskKey{Stamp: stamp.FromPath(3, 1)},
		Fn:     "fib",
		Args:   []expr.Value{expr.VInt(12)},
		Parent: Addr{Proc: 2, Task: TaskKey{Stamp: stamp.FromPath(3)}},
		HoleID: 1,
	}
	frames := []*Frame{
		{Type: FrameHello, From: 3, To: HostID, Payload: []byte{0, 0, 0, 3}},
		{Type: FrameSpawn, Flags: FlagReissue, From: 1, To: 5, Payload: EncodePacket(pkt)},
		{Type: FrameHeartbeat, From: 0, To: HostID},
		{Type: FrameControl, From: HostID, To: 4, Payload: AppendControl(nil, &Msg{Type: MsgFaultAnnounce, Failed: 2})},
	}
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	total := 0
	for _, f := range frames {
		if err := w.Append(f); err != nil {
			t.Fatalf("Append(%v): %v", f.Type, err)
		}
		total += FrameHeaderSize + len(f.Payload)
		if w.Len() != total {
			t.Fatalf("batch is %d bytes after %v, want %d", w.Len(), f.Type, total)
		}
	}
	if err := w.Flush(); err != nil || buf.Len() != total || w.Len() != 0 {
		t.Fatalf("Flush: %v, stream %d bytes (want %d), %d left in the batch", err, buf.Len(), total, w.Len())
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame(%v): %v", want.Type, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags ||
			got.From != want.From || got.To != want.To ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("ReadFrame at boundary = %v, want io.EOF", err)
	}
}

func TestFrameSpawnPayloadRoundTrip(t *testing.T) {
	pkt := &TaskPacket{
		Key:       TaskKey{Stamp: stamp.FromPath(0, 2, 7)},
		Gen:       3,
		ParentGen: 1,
		Fn:        "tak",
		Args:      []expr.Value{expr.VInt(8), expr.VInt(4), expr.VInt(2)},
		Parent:    Addr{Proc: 1, Task: TaskKey{Stamp: stamp.FromPath(0, 2)}},
		HoleID:    7,
		Reissue:   true,
	}
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	if err := w.End(AppendPacket(w.Begin(FrameSpawn, 0, 1, 2), pkt)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePacket(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != pkt.Key || got.Fn != pkt.Fn || got.HoleID != pkt.HoleID || !got.Reissue {
		t.Fatalf("packet through a frame: got %+v, want %+v", got, pkt)
	}
}

// TestFrameMalformed is the wire-boundary rejection table: every truncated or
// corrupt prefix must fail with a typed error, never hang or panic, because
// the codec now reads from real sockets fed by other processes.
func TestFrameMalformed(t *testing.T) {
	valid := AppendFrame(nil, &Frame{Type: FrameSpawn, From: 1, To: 2, Payload: []byte("payload")})
	oversize := AppendFrame(nil, &Frame{Type: FrameHeartbeat, From: 0, To: HostID})
	oversize[0], oversize[1], oversize[2], oversize[3] = 0xff, 0xff, 0xff, 0xff
	badType := append([]byte(nil), valid...)
	badType[4] = 0 // zero type: the all-zero torn-stream shape
	hugeType := append([]byte(nil), valid...)
	hugeType[4] = byte(frameTypeEnd)
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty stream", nil, io.EOF},
		{"torn header", valid[:3], io.ErrUnexpectedEOF},
		{"header only", valid[:FrameHeaderSize], io.ErrUnexpectedEOF},
		{"torn payload", valid[:len(valid)-2], io.ErrUnexpectedEOF},
		{"zero type", badType, ErrFrame},
		{"unknown type", hugeType, ErrFrame},
		{"oversized length", oversize, ErrFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame(%q) = %v, want %v", tc.in, err, tc.want)
			}
		})
	}
	// The write side refuses what the read side would reject, before any
	// byte of the frame enters the batch; the refusal is sticky, so the
	// whole frames already batched are not sent after it either.
	for name, bad := range map[string]*Frame{
		"type 0":       {Type: 0},
		"unknown type": {Type: frameTypeEnd},
		"oversize":     {Type: FrameSpawn, Payload: make([]byte, MaxFramePayload+1)},
	} {
		var out countingWriter
		w := NewFrameWriter(&out)
		if err := w.Append(&Frame{Type: FrameHeartbeat}); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(bad); !errors.Is(err, ErrFrame) {
			t.Fatalf("Append(%s) = %v, want ErrFrame", name, err)
		}
		if w.Len() != FrameHeaderSize {
			t.Fatalf("Append(%s) left a %d-byte batch, want the one whole frame (%d)", name, w.Len(), FrameHeaderSize)
		}
		if err := w.Flush(); !errors.Is(err, ErrFrame) || out.writes != 0 {
			t.Fatalf("Flush after Append(%s) = %v with %d writes, want ErrFrame and none", name, err, out.writes)
		}
	}
}

// countingWriter records what a FrameWriter hands its connection.
type countingWriter struct {
	bytes.Buffer
	writes int
	fail   error
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.fail != nil {
		return 0, w.fail
	}
	return w.Buffer.Write(p)
}

// TestFrameWriterBytes pins the wire format across the batched writer: a
// batch built by Append, and by Begin/AppendPacket/AppendResult/End in
// place, is byte for byte AppendFrame of the same frames over
// EncodePacket/EncodeResult payloads, and leaves in one Write per Flush.
func TestFrameWriterBytes(t *testing.T) {
	pkt := fuzzSeedPacket()
	res := &Result{
		Child:      pkt.Key,
		ParentTask: pkt.Parent.Task,
		HoleID:     5,
		Value:      expr.IntList(8, 13),
		Remaining:  []Addr{{Proc: 0, Task: TaskKey{Stamp: stamp.Root()}}},
	}
	frames := []*Frame{
		{Type: FrameSpawn, Flags: FlagReissue, From: 2, To: 1, Payload: EncodePacket(pkt)},
		{Type: FrameResult, From: 1, To: HostID, Payload: EncodeResult(res)},
		{Type: FrameHeartbeat, From: 1, To: HostID},
	}
	var want []byte
	for _, f := range frames {
		want = AppendFrame(want, f)
	}
	var out countingWriter
	w := NewFrameWriter(&out)
	for round := 0; round < 2; round++ { // the second round reuses the buffer
		out.Reset()
		if err := w.End(AppendPacket(w.Begin(FrameSpawn, FlagReissue, 2, 1), pkt)); err != nil {
			t.Fatal(err)
		}
		if err := w.End(AppendResult(w.Begin(FrameResult, 0, 1, HostID), res)); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(frames[2]); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if out.writes != round+1 || !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("round %d: %d writes, bytes\n  %x\nwant one per flush and\n  %x", round, out.writes, out.Bytes(), want)
		}
		if err := w.Flush(); err != nil || out.writes != round+1 {
			t.Fatalf("empty Flush = %v, %d writes: an empty batch must not touch the connection", err, out.writes)
		}
	}
	// A failed Write is sticky: the stream may hold a torn frame, so nothing
	// may follow it.
	out.fail = io.ErrClosedPipe
	_ = w.Append(frames[2])
	if err := w.Flush(); err != io.ErrClosedPipe {
		t.Fatalf("Flush on a broken connection = %v", err)
	}
	out.fail = nil
	if err := w.Append(frames[2]); err != io.ErrClosedPipe || w.Len() != 0 {
		t.Fatalf("Append after a failed write = %v, batch %d bytes", err, w.Len())
	}
}

// TestPacketMalformed is the codec-level rejection table: truncations of a
// valid packet/result encoding at every field boundary must fail cleanly.
func TestPacketMalformed(t *testing.T) {
	pkt := &TaskPacket{
		Key:       TaskKey{Stamp: stamp.FromPath(1, 2)},
		Fn:        "f",
		Args:      []expr.Value{expr.VInt(7), expr.IntList(1, 2)},
		Parent:    Addr{Proc: 3, Task: TaskKey{Stamp: stamp.FromPath(1)}},
		HoleID:    2,
		Ancestors: []Addr{{Proc: 0, Task: TaskKey{Stamp: stamp.Root()}}},
	}
	enc := EncodePacket(pkt)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodePacket(enc[:cut]); !errors.Is(err, ErrPacketCodec) {
			t.Fatalf("DecodePacket(enc[:%d]) = %v, want ErrPacketCodec", cut, err)
		}
	}
	if _, err := DecodePacket(append(append([]byte(nil), enc...), 0xaa)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("DecodePacket(trailing byte) = %v, want trailing-bytes error", err)
	}
	res := &Result{
		Child:      TaskKey{Stamp: stamp.FromPath(1, 2)},
		ParentTask: TaskKey{Stamp: stamp.FromPath(1)},
		HoleID:     2,
		Value:      expr.VInt(9),
		DeadParent: Addr{Proc: 1, Task: TaskKey{Stamp: stamp.FromPath(1)}},
	}
	encR := EncodeResult(res)
	for cut := 0; cut < len(encR); cut++ {
		if _, err := DecodeResult(encR[:cut]); !errors.Is(err, ErrPacketCodec) {
			t.Fatalf("DecodeResult(enc[:%d]) = %v, want ErrPacketCodec", cut, err)
		}
	}
	// A count the buffer cannot hold is malformed, not a size to allocate:
	// 0x7fffffff values would be 32 GiB (testdata/fuzz/*/huge-count).
	hugePkt, hugeRes := hugeCounts()
	if _, err := DecodePacket(hugePkt); !errors.Is(err, ErrPacketCodec) {
		t.Fatalf("DecodePacket(huge Args count) = %v, want ErrPacketCodec", err)
	}
	if _, err := DecodeResult(hugeRes); !errors.Is(err, ErrPacketCodec) {
		t.Fatalf("DecodeResult(huge list count) = %v, want ErrPacketCodec", err)
	}
}

// hugeCounts is a packet whose Args prefix, and a result whose list value,
// claims 0x7fffffff elements with none following.
func hugeCounts() (pkt, res []byte) {
	key := TaskKey{Stamp: stamp.FromPath(1)}
	huge := binary.AppendUvarint(nil, 0x7fffffff)
	// A packet ends with the Args count, the ancestor count and Replicas; a
	// result with a list value, with the list's count and the chain count.
	pkt = EncodePacket(&TaskPacket{Key: key, Fn: "f"})
	pkt = append(pkt[:len(pkt)-3], huge...)
	res = EncodeResult(&Result{Child: key, ParentTask: key, Value: expr.VList{}})
	res = append(res[:len(res)-2], huge...)
	return pkt, res
}
