package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/stamp"
)

func TestFrameRoundTrip(t *testing.T) {
	pkt := &TaskPacket{
		Key:     TaskKey{Stamp: stamp.FromPath(3, 1)},
		FnIndex: 0,
		Args:    []expr.Value{expr.VInt(12)},
		Parent:  Addr{Proc: 2, Task: TaskKey{Stamp: stamp.FromPath(3)}},
		HoleID:  1,
	}
	// Each frame with its header: the uvarint length, type | flags<<4, and
	// the zigzag ids (HostID is 01, 3 is 06).
	frames := []struct {
		*Frame
		header string
	}{
		{&Frame{Type: FrameHello, From: 3, To: HostID, Payload: []byte{0, 0, 0, 3}}, "04010601"},
		{&Frame{Type: FrameSpawn, Flags: FlagReissue, From: 1, To: 5, Payload: EncodePacket(pkt)}, "0c13020a"},
		{&Frame{Type: FrameHeartbeat, From: 0, To: HostID}, "00060001"},
		{&Frame{Type: FrameControl, From: HostID, To: 4, Payload: AppendControl(nil, &Msg{Type: MsgFaultAnnounce, Failed: 2})}, "02050108"},
		{&Frame{Type: FrameResult, Flags: FlagFailed, From: 64, To: 1000, Payload: make([]byte, 200)}, "c801248001d00f"},
	}
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	total := 0
	for _, f := range frames {
		if err := w.Append(f.Frame); err != nil {
			t.Fatalf("Append(%v): %v", f.Type, err)
		}
		if got := hex.EncodeToString(AppendFrame(nil, f.Frame)[:len(f.header)/2]); got != f.header {
			t.Fatalf("%v frame's header is %s, want %s", f.Type, got, f.header)
		}
		total += len(f.header)/2 + len(f.Payload)
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
		FnIndex:   2,
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
	if got.Key != pkt.Key || got.FnIndex != pkt.FnIndex || got.HoleID != pkt.HoleID || !got.Reissue {
		t.Fatalf("packet through a frame: got %+v, want %+v", got, pkt)
	}
}

// TestFrameMalformed is the wire-boundary rejection table: every truncated or
// corrupt prefix must fail with a typed error, never hang or panic, because
// the codec now reads from real sockets fed by other processes.
func TestFrameMalformed(t *testing.T) {
	valid := AppendFrame(nil, &Frame{Type: FrameSpawn, From: 1, To: 2, Payload: []byte("payload")})
	if got := hex.EncodeToString(valid[:4]); got != "07030204" {
		t.Fatalf("header %s, want 07030204", got)
	}
	with := func(i int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[i] = b
		return out
	}
	header := func(fields ...[]byte) []byte { return append(bytes.Join(fields, nil), "payload"...) }
	long0 := append(bytes.Repeat([]byte{0x80}, 9), 0) // a zero in ten bytes, the longest a varint may take
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty stream", nil, io.EOF},
		{"torn length", []byte{0x80}, io.ErrUnexpectedEOF},
		{"torn header", valid[:3], io.ErrUnexpectedEOF},
		{"header only", valid[:4], io.ErrUnexpectedEOF},
		{"torn payload", valid[:len(valid)-2], io.ErrUnexpectedEOF},
		{"zero type", with(1, 0), ErrFrame}, // the all-zero torn-stream shape
		{"unknown type", with(1, byte(frameTypeEnd)), ErrFrame},
		{"undefined flag", with(1, byte(FrameSpawn)|1<<6), ErrFrame},
		{"oversized length", header(binary.AppendUvarint(nil, MaxFramePayload+1), []byte{3, 2, 4}), ErrFrame},
		{"length past 64 bits", header(bytes.Repeat([]byte{0x80}, 10), []byte{1, 3, 2, 4}), ErrFrame},
		{"id past int32", header([]byte{7, 3}, binary.AppendVarint(nil, 1<<31), []byte{4}), ErrFrame},
		{"id past 64 bits", header([]byte{7, 3, 2}, bytes.Repeat([]byte{0xff}, 10), []byte{1}), ErrFrame},
		{"unended id after long fields", header(long0, []byte{3}, long0, bytes.Repeat([]byte{0x80}, 11)), ErrFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame(%q) = %v, want %v", tc.in, err, tc.want)
			}
			// The hub parses the same bytes where they lie: a header cut
			// short is a wait for more, an invalid one the same error.
			_, hdr, _, err := ParseFrameHeader(tc.in)
			switch {
			case tc.want == ErrFrame && !errors.Is(err, ErrFrame),
				tc.want != ErrFrame && len(tc.in) < 4 && err != io.ErrUnexpectedEOF,
				tc.want != ErrFrame && len(tc.in) >= 4 && (err != nil || hdr != 4):
				t.Fatalf("ParseFrameHeader(%q) = %d, %v", tc.in, hdr, err)
			}
		})
	}
	// The write side refuses what the read side would reject, before any
	// byte of the frame enters the batch; the refusal is sticky, so the
	// whole frames already batched are not sent after it either.
	for name, bad := range map[string]*Frame{
		"type 0":         {Type: 0},
		"unknown type":   {Type: frameTypeEnd},
		"undefined flag": {Type: FrameResult, Flags: 1 << 2},
		"oversize":       {Type: FrameSpawn, Payload: make([]byte, MaxFramePayload+1)},
	} {
		var out countingWriter
		w := NewFrameWriter(&out)
		if err := w.Append(&Frame{Type: FrameHeartbeat}); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(bad); !errors.Is(err, ErrFrame) {
			t.Fatalf("Append(%s) = %v, want ErrFrame", name, err)
		}
		if w.Len() != 4 {
			t.Fatalf("Append(%s) left a %d-byte batch, want the one whole 4-byte frame", name, w.Len())
		}
		if err := w.Flush(); !errors.Is(err, ErrFrame) || out.writes != 0 {
			t.Fatalf("Flush after Append(%s) = %v with %d writes, want ErrFrame and none", name, err, out.writes)
		}
	}
}

// appendOldFrame writes a frame in the format the varint header replaced: a
// 14-byte header of a big-endian uint32 length, the type, the flags and
// big-endian int32 ids.
func appendOldFrame(buf []byte, f *Frame) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	buf = append(buf, byte(f.Type), f.Flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(f.From))
	buf = binary.BigEndian.AppendUint32(buf, uint32(f.To))
	return append(buf, f.Payload...)
}

// TestOldFrameHeaderRejected: a frame with the old fixed 14-byte header and a
// payload under 64 KiB begins with two zero bytes, which the varint header
// reads as an empty payload of type 0: every such frame is refused with
// ErrFrame by the reader and by the hub's parser, never taken for a frame.
func TestOldFrameHeaderRejected(t *testing.T) {
	for typ := FrameHello; typ < frameTypeEnd; typ++ {
		for _, flags := range []byte{0, FlagReissue, FlagFailed} {
			for _, n := range []int{0, 1, 127, 128, 16384, 1<<16 - 1} {
				for _, ids := range [][2]ProcID{{HostID, 0}, {0, 63}, {64, 1000}, {1000, HostID}} {
					old := appendOldFrame(nil, &Frame{Type: typ, Flags: flags, From: ids[0], To: ids[1], Payload: make([]byte, n)})
					if _, err := ReadFrame(bytes.NewReader(old)); !errors.Is(err, ErrFrame) {
						t.Fatalf("ReadFrame(old %v frame, flags %d, %d bytes, %v) = %v, want ErrFrame", typ, flags, n, ids, err)
					}
					if _, _, _, err := ParseFrameHeader(old); !errors.Is(err, ErrFrame) {
						t.Fatalf("ParseFrameHeader(old %v frame, flags %d, %d bytes, %v) = %v, want ErrFrame", typ, flags, n, ids, err)
					}
				}
			}
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

// TestFrameWriterPatchesLongLengths: Begin reserves one byte for the length
// and End moves the payload up when the length needs more — at each uvarint
// width boundary, for a program frame of 16 KiB and more, between frames
// that fit — and the batch is byte for byte AppendFrame of the same frames.
func TestFrameWriterPatchesLongLengths(t *testing.T) {
	small := &Frame{Type: FrameControl, From: 2, To: 70, Payload: []byte{6, 4}}
	var frames []*Frame
	for _, n := range []int{127, 128, 16383, 16384, 40000, 2097151, 2097152} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 13)
		}
		frames = append(frames, small, &Frame{Type: FrameProgram, From: HostID, To: 3, Payload: payload})
	}
	frames = append(frames, small)
	var want []byte
	var out bytes.Buffer
	w := NewFrameWriter(&out)
	for _, f := range frames {
		want = AppendFrame(want, f)
		if err := w.End(append(w.Begin(f.Type, f.Flags, f.From, f.To), f.Payload...)); err != nil {
			t.Fatal(err)
		}
		if w.Len() != len(want) {
			t.Fatalf("after a %d-byte payload the batch is %d bytes, want %d", len(f.Payload), w.Len(), len(want))
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("the batch differs from AppendFrame of its frames")
	}
	for _, f := range frames {
		got, err := ReadFrame(&out)
		if err != nil || got.Type != f.Type || got.From != f.From || got.To != f.To || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("read back a %d-byte frame as %v (%v)", len(f.Payload), got.Type, err)
		}
	}
}

// TestPacketMalformed is the codec-level rejection table: truncations of a
// valid packet/result encoding at every field boundary must fail cleanly.
func TestPacketMalformed(t *testing.T) {
	pkt := &TaskPacket{
		Key:       TaskKey{Stamp: stamp.FromPath(1, 2)},
		FnIndex:   1,
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
	// 0x7fffffff values would be 32 GiB (testdata/fuzz/*/huge-count). The
	// error names the count, so the guard refused it, not a short read; the
	// same bytes with a zero count decode.
	hugePkt, hugeRes, cut := hugeCounts()
	const guard = "2147483647 values in 0 bytes"
	if _, err := DecodePacket(hugePkt); !errors.Is(err, ErrPacketCodec) || !strings.Contains(err.Error(), guard) {
		t.Fatalf("DecodePacket(huge Args count) = %v, want ErrPacketCodec naming %q", err, guard)
	}
	if _, err := DecodeResult(hugeRes); !errors.Is(err, ErrPacketCodec) || !strings.Contains(err.Error(), guard) {
		t.Fatalf("DecodeResult(huge list count) = %v, want ErrPacketCodec naming %q", err, guard)
	}
	zero := binary.AppendUvarint(nil, 0)
	if _, err := DecodePacket(append(hugePkt[:cut[0]:cut[0]], zero...)); err != nil {
		t.Fatalf("DecodePacket(zero Args count) = %v", err)
	}
	if _, err := DecodeResult(append(hugeRes[:cut[1]:cut[1]], zero...)); err != nil {
		t.Fatalf("DecodeResult(zero list count) = %v", err)
	}
}

// hugeCounts is a packet whose Args count, and a result whose list value's
// count, claims 0x7fffffff elements with none following; cut is where each
// count begins.
func hugeCounts() (pkt, res []byte, cut [2]int) {
	key := TaskKey{Stamp: stamp.FromPath(1)}
	huge := binary.AppendUvarint(nil, 0x7fffffff)
	// An unreplicated packet without ancestors ends with its Args count, and
	// a result without a chain with its value: here an empty list's count.
	pkt = EncodePacket(&TaskPacket{Key: key, FnIndex: 1, Replicas: 1})
	res = EncodeResult(&Result{Child: key, ParentTask: key, Value: expr.VList{}})
	cut = [2]int{len(pkt) - 1, len(res) - 1}
	return append(pkt[:cut[0]], huge...), append(res[:cut[1]], huge...), cut
}
