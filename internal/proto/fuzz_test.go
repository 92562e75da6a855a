package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/stamp"
)

// The codec is now a real wire boundary: net-backend children decode bytes
// produced by another OS process, so arbitrary input must either decode
// cleanly or fail with a typed error — never panic, hang, or decode into a
// value that does not re-encode canonically. Seed corpus lives under
// testdata/fuzz; run with `go test -fuzz FuzzDecodePacket ./internal/proto`.

func fuzzSeedPacket() *TaskPacket {
	return &TaskPacket{
		Key:       TaskKey{Stamp: stamp.FromPath(2, 0, 5), Rep: 1},
		Gen:       4,
		ParentGen: 2,
		FnIndex:   0,
		Args:      []expr.Value{expr.VInt(17), expr.IntList(3, 1, 4)},
		Parent:    Addr{Proc: 6, Task: TaskKey{Stamp: stamp.FromPath(2, 0)}},
		HoleID:    5,
		Ancestors: []Addr{{Proc: 2, Task: TaskKey{Stamp: stamp.FromPath(2)}}},
		Twin:      true,
		Replicas:  1,
	}
}

func FuzzDecodePacket(f *testing.F) {
	enc := EncodePacket(fuzzSeedPacket())
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacket(data)
		if err != nil {
			if !errors.Is(err, ErrPacketCodec) {
				t.Fatalf("DecodePacket error not wrapped in ErrPacketCodec: %v", err)
			}
			return
		}
		// Accepted input must re-encode canonically: a second round trip is
		// a fixed point (the first may normalize, e.g. a non-minimal varint
		// or a hole child written out in full).
		// What every backend charges is exactly what it encodes to.
		enc1 := EncodePacket(p)
		if n := p.EncodedSize(); n != len(enc1) {
			t.Fatalf("EncodedSize %d, encoding %d bytes", n, len(enc1))
		}
		p2, err := DecodePacket(enc1)
		if err != nil {
			t.Fatalf("re-decode of accepted packet failed: %v", err)
		}
		if enc2 := EncodePacket(p2); !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode not a fixed point:\n  enc1 %x\n  enc2 %x", enc1, enc2)
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	enc := EncodeResult(&Result{
		Child:      TaskKey{Stamp: stamp.FromPath(1, 3)},
		ParentTask: TaskKey{Stamp: stamp.FromPath(1)},
		HoleID:     3,
		Value:      expr.IntList(8, 13),
		DeadParent: Addr{Proc: 4, Task: TaskKey{Stamp: stamp.FromPath(1)}},
		Remaining:  []Addr{{Proc: 0, Task: TaskKey{Stamp: stamp.Root()}}},
	})
	f.Add(enc)
	f.Add(enc[:len(enc)-3])
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			if !errors.Is(err, ErrPacketCodec) {
				t.Fatalf("DecodeResult error not wrapped in ErrPacketCodec: %v", err)
			}
			return
		}
		enc1 := EncodeResult(r)
		if n := r.EncodedSize(); n != len(enc1) {
			t.Fatalf("EncodedSize %d, encoding %d bytes", n, len(enc1))
		}
		r2, err := DecodeResult(enc1)
		if err != nil {
			t.Fatalf("re-decode of accepted result failed: %v", err)
		}
		if enc2 := EncodeResult(r2); !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode not a fixed point:\n  enc1 %x\n  enc2 %x", enc1, enc2)
		}
	})
}

// FuzzDecodeControl: arbitrary bytes through the control-message decoder
// give an error or a message whose encoding is a fixed point, from the
// first re-encoding on.
func FuzzDecodeControl(f *testing.F) {
	for _, m := range []*Msg{
		{Type: MsgAbort, AbortTask: TaskKey{Stamp: stamp.FromPath(1, 2, 3)}, AbortGen: 77, AbortScope: stamp.FromPath(1, 2)},
		{Type: MsgChildAbort, AbortTask: TaskKey{Stamp: stamp.FromPath(4, 0), Rep: 5}, AbortGen: 9},
		{Type: MsgTaskAck, AckParent: TaskKey{Stamp: stamp.FromPath(2)}, AckTask: TaskKey{Stamp: stamp.FromPath(2, 1)},
			AckHole: 1, AckGen: 3, PlacedOn: 6},
		{Type: MsgFaultAnnounce, Failed: 3},
	} {
		enc := AppendControl(nil, m)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	f.Add([]byte{byte(MsgTask)})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeControl(data)
		if err != nil {
			if !errors.Is(err, ErrPacketCodec) {
				t.Fatalf("DecodeControl error not wrapped in ErrPacketCodec: %v", err)
			}
			return
		}
		enc1 := AppendControl(nil, m)
		m2, err := DecodeControl(enc1)
		if err != nil {
			t.Fatalf("re-decode of accepted %v failed: %v", m.Type, err)
		}
		if enc2 := AppendControl(nil, m2); !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode not a fixed point:\n  enc1 %x\n  enc2 %x", enc1, enc2)
		}
	})
}

// TestOldFormatRejected: the corpus keeps encodings in the formats this codec
// replaced: as v1-*, the fixed-width format (4-byte stamp components behind a
// 16-bit length, 8-byte reps and ints); as v2-*, the compact format with
// fixed 8-byte generations and an always-written chain count and replica
// count; as v3-*, the format with the function's name as text, a uvarint per
// stamp component and a replica after every key. Such a frame is an error,
// never a packet or a result.
func TestOldFormatRejected(t *testing.T) {
	for fuzz, decode := range map[string]func([]byte) error{
		"FuzzDecodePacket": func(b []byte) error { _, err := DecodePacket(b); return err },
		"FuzzDecodeResult": func(b []byte) error { _, err := DecodeResult(b); return err },
	} {
		var files []string
		for _, v := range []string{"v1-*", "v2-*", "v3-*"} {
			got, err := filepath.Glob(filepath.Join("testdata", "fuzz", fuzz, v))
			if err != nil || len(got) == 0 {
				t.Fatalf("%s: no %s seeds (%v)", fuzz, v, err)
			}
			files = append(files, got...)
		}
		for _, file := range files {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if err := decode([]byte(data)); !errors.Is(err, ErrPacketCodec) {
				t.Errorf("%s decoded: %v", file, err)
			}
		}
	}
}

func FuzzReadFrame(f *testing.F) {
	one := AppendFrame(nil, &Frame{Type: FrameHeartbeat, From: 2, To: HostID})
	two := AppendFrame(one, &Frame{
		Type: FrameSpawn, Flags: FlagReissue, From: HostID, To: 3,
		Payload: EncodePacket(fuzzSeedPacket()),
	})
	f.Add(two)
	f.Add(one[:2])
	f.Add(append(binary.AppendUvarint(nil, MaxFramePayload+1), byte(FrameHello), 0, 0))
	f.Add(appendOldFrame(nil, &Frame{Type: FrameHeartbeat, From: 2, To: HostID}))
	f.Add(AppendFrame(nil, &Frame{Type: FrameResult, Flags: FlagFailed, From: 64, To: 1000, Payload: make([]byte, 200)}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := ReadFrame(r)
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrFrame) {
					t.Fatalf("ReadFrame error outside the contract: %v", err)
				}
				return
			}
			var buf bytes.Buffer
			w := NewFrameWriter(&buf)
			if err := w.Append(fr); err != nil {
				t.Fatalf("accepted frame does not re-write: %v", err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			back, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("re-read of accepted frame failed: %v", err)
			}
			if back.Type != fr.Type || back.Flags != fr.Flags ||
				back.From != fr.From || back.To != fr.To ||
				!bytes.Equal(back.Payload, fr.Payload) {
				t.Fatalf("frame round trip drifted: %+v vs %+v", back, fr)
			}
		}
	})
}

// fuzzFrames cuts fuzz input into a sequence of valid frames: five bytes of
// type, flags (the defined bits of the byte), from, to and payload length,
// then that much payload.
func fuzzFrames(data []byte) []*Frame {
	var out []*Frame
	for len(data) >= 5 {
		n := min(int(data[4]), len(data)-5)
		out = append(out, &Frame{
			Type:  1 + FrameType(data[0])%(frameTypeEnd-1),
			Flags: data[1] & frameFlags,
			From:  ProcID(int8(data[2])), To: ProcID(int8(data[3])),
			Payload: data[5 : 5+n],
		})
		data = data[5+n:]
	}
	return out
}

// fuzzInput inverts fuzzFrames for seeding.
func fuzzInput(frames ...*Frame) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, byte(f.Type-1), f.Flags, byte(f.From), byte(f.To), byte(len(f.Payload)))
		out = append(out, f.Payload...)
	}
	return out
}

// readAll reads frames through a 16-byte buffered reader — smaller than any
// frame with a payload, so every frame crosses buffer boundaries — until the
// first error.
func readAll(stream []byte) ([]*Frame, error) {
	r := bufio.NewReaderSize(bytes.NewReader(stream), 16)
	var out []*Frame
	for {
		f, err := ReadFrame(r)
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// FuzzFrameStream is the batch's fail-silent property: a node killed in the
// middle of a write leaves whole frames followed by a torn one. Any sequence
// of valid frames batched into one buffer reads back as those frames and
// io.EOF, and the same buffer cut at every offset yields exactly the whole
// frames before the cut, then io.ErrUnexpectedEOF (io.EOF on a boundary) —
// never a wrong frame, never a hang.
func FuzzFrameStream(f *testing.F) {
	pkt := &TaskPacket{
		Key: TaskKey{Stamp: stamp.FromPath(3, 1, 0, 2)}, Gen: 1, FnIndex: 0,
		Args:   []expr.Value{expr.VInt(12)},
		Parent: Addr{Proc: 2, Task: TaskKey{Stamp: stamp.FromPath(3, 1, 0)}}, HoleID: 2, Replicas: 1,
	}
	res := &Result{Child: pkt.Key, ParentTask: pkt.Parent.Task, HoleID: 2, Value: expr.VInt(144)}
	// The spawn/result/heartbeat triple bench/probes.go times, the spawn
	// behind the one-byte program tag net writes.
	f.Add(fuzzInput(
		&Frame{Type: FrameSpawn, From: 2, To: 1, Payload: append([]byte{0}, EncodePacket(pkt)...)},
		&Frame{Type: FrameResult, From: 1, To: 2, Payload: EncodeResult(res)},
		&Frame{Type: FrameHeartbeat, From: 1, To: HostID},
	))
	// Frames whose length and ids take two bytes each, around a small one.
	f.Add(fuzzInput(
		&Frame{Type: FrameResult, Flags: FlagFailed, From: 64, To: -65, Payload: bytes.Repeat([]byte{0x80}, 200)},
		&Frame{Type: FrameControl, From: HostID, To: 63, Payload: []byte{6, 4}},
		&Frame{Type: FrameSpawn, Flags: FlagReissue, From: 127, To: -128, Payload: bytes.Repeat([]byte{7}, 128)},
	))
	f.Add([]byte{})
	f.Add([]byte{7, 0xff, 0xff, 3, 200, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			return // the cut loop is quadratic
		}
		frames := fuzzFrames(data)
		var stream bytes.Buffer
		w := NewFrameWriter(&stream)
		ends := []int{0} // ends[k] is where the first k frames end
		for _, fr := range frames {
			if err := w.Append(fr); err != nil {
				t.Fatalf("valid frame refused: %v", err)
			}
			ends = append(ends, w.Len())
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		whole := 0
		for cut := 0; cut <= stream.Len(); cut++ {
			if whole+1 < len(ends) && ends[whole+1] <= cut {
				whole++
			}
			want := io.ErrUnexpectedEOF
			if cut == ends[whole] {
				want = io.EOF
			}
			got, err := readAll(stream.Bytes()[:cut])
			if err != want || len(got) != whole {
				t.Fatalf("cut at %d of %d: %d frames then %v, want %d then %v", cut, stream.Len(), len(got), err, whole, want)
			}
			for i, g := range got {
				fr := frames[i]
				if g.Type != fr.Type || g.Flags != fr.Flags || g.From != fr.From || g.To != fr.To ||
					!bytes.Equal(g.Payload, fr.Payload) {
					t.Fatalf("cut at %d: frame %d is %+v, want %+v", cut, i, g, fr)
				}
			}
		}
	})
}
