package netnode

import (
	"bytes"
	"testing"

	"repro/internal/expr"
	"repro/internal/proto"
	"repro/internal/stamp"
)

// TestMsgSizeIsFrameLength: every backend charges a message
// proto.Msg.EncodedSize, so that must be the length of the frame net writes
// for it (appendMsg) — for every kind net carries, between the host and
// processors whose ids take one and two bytes, and for payloads at each
// width boundary of the length's uvarint.
func TestMsgSizeIsFrameLength(t *testing.T) {
	parent := proto.TaskKey{Stamp: stamp.FromPath(3, 1)}
	child := proto.TaskKey{Stamp: parent.Stamp.Child(2)}
	packet := func(prog int, pad string) *proto.TaskPacket {
		return &proto.TaskPacket{Key: child, Gen: 2, Fn: "fib", Args: []expr.Value{expr.VStr(pad)},
			Parent: proto.Addr{Proc: 3, Task: parent}, HoleID: 2, Replicas: 1, Prog: prog}
	}
	result := func(pad string) *proto.Result {
		return &proto.Result{Child: child, ParentTask: parent, HoleID: 2, Value: expr.VStr(pad)}
	}
	kinds := map[string]func(pad string) proto.Msg{
		"spawn tag 0":   func(pad string) proto.Msg { return proto.Msg{Type: proto.MsgTask, Task: packet(0, pad)} },
		"spawn tag 200": func(pad string) proto.Msg { return proto.Msg{Type: proto.MsgTask, Task: packet(200, pad)} },
		"reissue": func(pad string) proto.Msg {
			p := packet(1, pad)
			p.Reissue = true
			return proto.Msg{Type: proto.MsgTask, Task: p}
		},
		"result": func(pad string) proto.Msg { return proto.Msg{Type: proto.MsgResult, Result: result(pad)} },
		"failed result": func(pad string) proto.Msg {
			return proto.Msg{Type: proto.MsgResult, Result: result(pad), EvalErr: true}
		},
		"abort": func(string) proto.Msg {
			return proto.Msg{Type: proto.MsgAbort, AbortTask: child, AbortGen: 300, AbortScope: parent.Stamp}
		},
		"child-abort": func(string) proto.Msg { return proto.Msg{Type: proto.MsgChildAbort, AbortTask: child, AbortGen: 7} },
		"task-ack": func(string) proto.Msg {
			return proto.Msg{Type: proto.MsgTaskAck, AckParent: parent, AckHole: 2, AckTask: child, AckGen: 1 << 40, PlacedOn: 64}
		},
		"fault-announce 1000": func(string) proto.Msg { return proto.Msg{Type: proto.MsgFaultAnnounce, Failed: 1000} },
		"fault-announce 0":    func(string) proto.Msg { return proto.Msg{Type: proto.MsgFaultAnnounce} },
	}
	ids := []proto.ProcID{proto.HostID, 0, 63, 64, 1000}
	// frame is the frame appendMsg writes for m, and its payload's length.
	frame := func(m *proto.Msg) (wire, payload int) {
		var out bytes.Buffer
		w := proto.NewFrameWriter(&out)
		if err := appendMsg(w, m.From, m); err != nil || w.Flush() != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		_, hdr, n, err := proto.ParseFrameHeader(out.Bytes())
		if err != nil || hdr+n != out.Len() {
			t.Fatalf("%+v: a %d-byte frame of header %d and payload %d (%v)", m, out.Len(), hdr, n, err)
		}
		return out.Len(), n
	}
	for name, kind := range kinds {
		pads := []string{""}
		if m := kind(""); m.Task != nil || m.Result != nil {
			// Pad the payload to each side of the length's width boundaries.
			_, base := frame(&m)
			for _, want := range []int{127, 128, 16383, 16384} {
				for extra := want - base - 3; ; extra++ {
					m := kind(string(make([]byte, extra)))
					if _, n := frame(&m); n == want {
						pads = append(pads, string(make([]byte, extra)))
						break
					} else if n > want {
						t.Fatalf("%s: no padding makes a %d-byte payload", name, want)
					}
				}
			}
		}
		for _, pad := range pads {
			for _, from := range ids {
				for _, to := range ids {
					m := kind(pad)
					m.From, m.To = from, to
					wire, n := frame(&m)
					if got := m.EncodedSize(); got != wire {
						t.Errorf("%s from %d to %d, %d-byte payload: EncodedSize %d, frame %d bytes", name, from, to, n, got, wire)
					}
				}
			}
		}
	}
}
