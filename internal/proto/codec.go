package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/expr"
	"repro/internal/stamp"
)

// Binary codec for task packets and results, and the only definition of
// their size. The net backend ships these bytes; the simulator, the live
// backend and the checkpoint store charge EncodedSize, which is the length
// the encoder writes into a stack array, so every backend counts the bytes
// netnode writes. The round trip is also §2.1's claim made executable: "the
// packet contains all necessary information, either directly or indirectly
// accessible, to activate the child task" — a packet survives it with
// nothing external, which is what storing it on a peer processor (§2)
// requires.
//
// The form is compact. Lengths, counts, replicas, hole ids and generations
// are uvarints; processor ids are zigzag varints (values follow expr's
// codec). One stamp per frame is written in full — a packet's parent, a
// result's addressee — and every other stamp relative to one the frame
// already carried: the number of that stamp's trailing components to drop,
// then the components to append (§3.1: a child is stamped by appending one
// component to its parent's stamp). A task that is its parent's child at its
// hole, the normal case, costs one flag bit, and so do the fields a frame
// almost never carries: a non-empty address chain and a replica count other
// than 1 are written only behind their flag bit.
//
//	packet: flags, Gen, ParentGen, Parent (absolute), HoleID, Key (unless
//	        flagHoleChild; relative to Parent), Fn, Args, Ancestors (if
//	        flagChain: a count, each relative to the address before it),
//	        Replicas (if flagReplicated)
//	result: flags, ParentTask (absolute), HoleID, Child (unless
//	        flagHoleChild; relative to ParentTask), Value, DeadParent (if
//	        flagDeadParent; relative to Child), Remaining (if flagChain: a
//	        count, each relative to the address before it)
//
// A flag bit the frame's kind does not define, an empty chain behind
// flagChain and a replica count of 1 behind flagReplicated are malformed.
//
// An address is its processor, its stamp and its replica.

// ErrPacketCodec wraps packet/result decoding errors.
var ErrPacketCodec = errors.New("proto: codec")

// Bits of the flags byte that leads a packet or a result.
const (
	flagTwin       = 1 << iota // packet: Twin
	flagReissue                // packet: Reissue
	flagHoleChild              // the key is the parent's child at HoleID, same replica, and is not written
	flagDeadParent             // result: DeadParent is set
	flagChain                  // packet: Ancestors, result: Remaining is non-empty
	flagReplicated             // packet: Replicas is not 1
)

// The flag bits each frame kind defines.
const (
	packetFlags = flagTwin | flagReissue | flagHoleChild | flagChain | flagReplicated
	resultFlags = flagHoleChild | flagDeadParent | flagChain
)

// width is the byte width of one component in a stamp's Key.
const width = 4

// component reads the component at byte offset o of a stamp's Key.
func component(raw string, o int) uint32 {
	return uint32(raw[o])<<24 | uint32(raw[o+1])<<16 | uint32(raw[o+2])<<8 | uint32(raw[o+3])
}

// holeChild reports whether k is parent's child at hole, with parent's
// replica: the key a frame leaves out.
func holeChild(k, parent TaskKey, hole int) bool {
	ks, ps := k.Stamp.Key(), parent.Stamp.Key()
	return k.Rep == parent.Rep && hole >= 0 && uint64(hole) <= math.MaxUint32 &&
		len(ks) == len(ps)+width && ks[:len(ps)] == ps && component(ks, len(ps)) == uint32(hole)
}

// shared is the byte length of the longest whole-component prefix of a and b.
func shared(a, b string) int {
	n := min(len(a), len(b))
	if a[:n] == b[:n] {
		return n
	}
	i := 0
	for a[i] == b[i] {
		i++
	}
	return i - i%width
}

// appendPath writes the components of raw from byte offset o on: their
// count, then each.
func appendPath(buf []byte, raw string, o int) []byte {
	buf = binary.AppendUvarint(buf, uint64((len(raw)-o)/width))
	for ; o < len(raw); o += width {
		buf = binary.AppendUvarint(buf, uint64(component(raw, o)))
	}
	return buf
}

// appendKey writes a key absolutely: its stamp's path, then its replica.
func appendKey(buf []byte, k TaskKey) []byte {
	buf = appendPath(buf, k.Stamp.Key(), 0)
	return binary.AppendUvarint(buf, uint64(k.Rep))
}

// appendRelKey writes a key relative to ref: how many of ref's trailing
// components to drop, the path past what both share, then the replica.
func appendRelKey(buf []byte, k TaskKey, ref stamp.Stamp) []byte {
	ks, rs := k.Stamp.Key(), ref.Key()
	c := shared(ks, rs)
	buf = binary.AppendUvarint(buf, uint64((len(rs)-c)/width))
	buf = appendPath(buf, ks, c)
	return binary.AppendUvarint(buf, uint64(k.Rep))
}

// appendChain writes a non-empty address chain: a count, then each address —
// its processor and its key relative to the stamp before it, ref for the
// first. An empty chain is the absence of flagChain and is not written.
func appendChain(buf []byte, chain []Addr, ref stamp.Stamp) []byte {
	if len(chain) == 0 {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(chain)))
	for _, a := range chain {
		buf = binary.AppendVarint(buf, int64(a.Proc))
		buf = appendRelKey(buf, a.Task, ref)
		ref = a.Task.Stamp
	}
	return buf
}

func (p *TaskPacket) flags() byte {
	var f byte
	if p.Twin {
		f |= flagTwin
	}
	if p.Reissue {
		f |= flagReissue
	}
	if holeChild(p.Key, p.Parent.Task, p.HoleID) {
		f |= flagHoleChild
	}
	if len(p.Ancestors) != 0 {
		f |= flagChain
	}
	if p.Replicas != 1 {
		f |= flagReplicated
	}
	return f
}

// EncodePacket serializes a task packet to bytes.
func EncodePacket(p *TaskPacket) []byte { return AppendPacket(nil, p) }

// AppendPacket appends a task packet's wire form to buf.
func AppendPacket(buf []byte, p *TaskPacket) []byte {
	flags := p.flags()
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, p.Gen)
	buf = binary.AppendUvarint(buf, p.ParentGen)
	buf = binary.AppendVarint(buf, int64(p.Parent.Proc))
	buf = appendKey(buf, p.Parent.Task)
	buf = binary.AppendUvarint(buf, uint64(p.HoleID))
	if flags&flagHoleChild == 0 {
		buf = appendRelKey(buf, p.Key, p.Parent.Task.Stamp)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Fn)))
	buf = append(buf, p.Fn...)
	buf = binary.AppendUvarint(buf, uint64(len(p.Args)))
	for _, v := range p.Args {
		buf = expr.AppendValue(buf, v)
	}
	buf = appendChain(buf, p.Ancestors, p.Parent.Task.Stamp)
	if flags&flagReplicated != 0 {
		buf = binary.AppendUvarint(buf, uint64(p.Replicas))
	}
	return buf
}

// EncodedSize is len(EncodePacket(p)), encoded into a stack array. Checkpoint
// storage and every backend's message bytes are charged from it, once per
// hop and once per retention, hence the memo, under one rule: a packet is
// sized after its last write. A spawn builds its packet whole; a respawn
// rewrites generations, flags or the lineage only on a fresh Clone, which
// carries no memo, before the clone is first sized. So every charge is the
// wire length, and the checkpoint store refunds at Release the size it
// charged at Retain.
func (p *TaskPacket) EncodedSize() int {
	if p.encSize == 0 {
		var buf [256]byte // a packet that fits is sized without allocating
		p.encSize = len(AppendPacket(buf[:0], p))
	}
	return p.encSize
}

// DecodePacket inverts EncodePacket.
func DecodePacket(buf []byte) (*TaskPacket, error) {
	d := decoder{buf: buf}
	p := &TaskPacket{}
	flags := d.flags(packetFlags)
	p.Twin, p.Reissue = flags&flagTwin != 0, flags&flagReissue != 0
	p.Gen = d.uvarint("generation")
	p.ParentGen = d.uvarint("parent generation")
	p.Parent.Proc = d.proc()
	p.Parent.Task = d.key()
	p.HoleID = int(d.uvarint("hole id"))
	p.Key = d.childKey(flags, p.Parent.Task, p.HoleID)
	p.Fn = d.string("function name")
	if d.err == nil {
		var err error
		if p.Args, d.buf, err = expr.DecodeValues(d.buf); err != nil {
			d.err = fmt.Errorf("%w: %v", ErrPacketCodec, err)
		}
	}
	p.Ancestors = d.chain(flags, p.Parent.Task.Stamp)
	p.Replicas = 1
	if flags&flagReplicated != 0 {
		if p.Replicas = int(d.uvarint("replicas")); p.Replicas == 1 {
			d.fail("replicas")
		}
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return p, nil
}

// EncodeResult serializes a result payload.
func EncodeResult(r *Result) []byte { return AppendResult(nil, r) }

func (r *Result) flags() byte {
	var f byte
	if holeChild(r.Child, r.ParentTask, r.HoleID) {
		f |= flagHoleChild
	}
	if r.DeadParent != (Addr{}) {
		f |= flagDeadParent
	}
	if len(r.Remaining) != 0 {
		f |= flagChain
	}
	return f
}

// AppendResult appends a result's wire form to buf.
func AppendResult(buf []byte, r *Result) []byte {
	flags := r.flags()
	buf = append(buf, flags)
	buf = appendKey(buf, r.ParentTask)
	buf = binary.AppendUvarint(buf, uint64(r.HoleID))
	if flags&flagHoleChild == 0 {
		buf = appendRelKey(buf, r.Child, r.ParentTask.Stamp)
	}
	buf = expr.AppendValue(buf, r.Value)
	ref := r.Child.Stamp
	if flags&flagDeadParent != 0 {
		buf = binary.AppendVarint(buf, int64(r.DeadParent.Proc))
		buf = appendRelKey(buf, r.DeadParent.Task, ref)
		ref = r.DeadParent.Task.Stamp
	}
	return appendChain(buf, r.Remaining, ref)
}

// EncodedSize is len(EncodeResult(r)), encoded into a stack array.
func (r *Result) EncodedSize() int {
	var buf [256]byte
	return len(AppendResult(buf[:0], r))
}

// DecodeResult inverts EncodeResult.
func DecodeResult(buf []byte) (*Result, error) {
	d := decoder{buf: buf}
	r := &Result{}
	flags := d.flags(resultFlags)
	r.ParentTask = d.key()
	r.HoleID = int(d.uvarint("hole id"))
	r.Child = d.childKey(flags, r.ParentTask, r.HoleID)
	if d.err == nil {
		var err error
		if r.Value, d.buf, err = expr.DecodeValue(d.buf); err != nil {
			d.err = fmt.Errorf("%w: %v", ErrPacketCodec, err)
		}
	}
	ref := r.Child.Stamp
	if flags&flagDeadParent != 0 {
		r.DeadParent.Proc = d.proc()
		r.DeadParent.Task = d.relKey(ref)
		ref = r.DeadParent.Task.Stamp
	}
	r.Remaining = d.chain(flags, ref)
	if err := d.end(); err != nil {
		return nil, err
	}
	return r, nil
}

// decoder reads a frame field by field. The first malformed field sets err
// and empties buf, so every later read yields a zero value and one check at
// the end reports it.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: short or malformed %s", ErrPacketCodec, what)
	}
	d.buf = nil
}

// end reports the first error, or trailing bytes.
func (d *decoder) end() error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrPacketCodec, len(d.buf))
	}
	return d.err
}

func (d *decoder) byte(what string) byte {
	if len(d.buf) < 1 {
		d.fail(what)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// flags reads a frame's flags byte; a bit outside known is malformed.
func (d *decoder) flags(known byte) byte {
	f := d.byte("flags")
	if f&^known != 0 {
		d.fail("flags")
	}
	return f
}

// uvarint reads a uvarint; the one-byte case, nearly every field, inlines.
func (d *decoder) uvarint(what string) uint64 {
	if len(d.buf) > 0 && d.buf[0] < 0x80 {
		v := d.buf[0]
		d.buf = d.buf[1:]
		return uint64(v)
	}
	return d.longUvarint(what)
}

func (d *decoder) longUvarint(what string) uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a count of items that take at least a byte each, so one the
// bytes left cannot hold is malformed, never a size to allocate.
func (d *decoder) count(what string) int {
	n := d.uvarint(what)
	if n > uint64(len(d.buf)) {
		d.fail(what)
		return 0
	}
	return int(n)
}

func (d *decoder) proc() ProcID {
	v, n := binary.Varint(d.buf)
	if n <= 0 || v != int64(int32(v)) {
		d.fail("processor id")
		return 0
	}
	d.buf = d.buf[n:]
	return ProcID(v)
}

func (d *decoder) string(what string) string {
	n := d.count(what)
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// path reads a component count and that many components, and returns the
// stamp they extend prefix (a stamp's Key) by.
func (d *decoder) path(prefix string) stamp.Stamp {
	raw := prefix
	if n := d.count("stamp length"); n > 0 {
		var scratch [64]byte // a stamp 16 levels deep builds on the stack
		b := append(scratch[:0], prefix...)
		for ; n > 0 && d.err == nil; n-- {
			c := d.uvarint("stamp component")
			if c > math.MaxUint32 {
				d.fail("stamp component")
			}
			b = binary.BigEndian.AppendUint32(b, uint32(c))
		}
		raw = string(b)
	}
	s, err := stamp.Decode(raw)
	if err != nil {
		d.fail("stamp")
	}
	return s
}

func (d *decoder) key() TaskKey {
	s := d.path("")
	return TaskKey{Stamp: s, Rep: Rep(d.uvarint("rep"))}
}

func (d *decoder) relKey(ref stamp.Stamp) TaskKey {
	drop := d.uvarint("stamp drop")
	if drop > uint64(ref.Level()) {
		d.fail("stamp drop")
		return TaskKey{}
	}
	s := d.path(ref.Key()[:(ref.Level()-int(drop))*width])
	return TaskKey{Stamp: s, Rep: Rep(d.uvarint("rep"))}
}

// childKey derives the key a frame leaves out when flagHoleChild is set, and
// reads it relative to the parent otherwise.
func (d *decoder) childKey(flags byte, parent TaskKey, hole int) TaskKey {
	if flags&flagHoleChild == 0 {
		return d.relKey(parent.Stamp)
	}
	if hole < 0 || uint64(hole) > math.MaxUint32 {
		d.fail("hole id")
		return TaskKey{}
	}
	return TaskKey{Stamp: parent.Stamp.Child(uint32(hole)), Rep: parent.Rep}
}

// chain reads the address chain behind flagChain, which holds at least one
// address; without the flag the chain is empty.
func (d *decoder) chain(flags byte, ref stamp.Stamp) []Addr {
	if flags&flagChain == 0 {
		return nil
	}
	n := d.count("address count")
	if n == 0 {
		d.fail("address count")
	}
	var chain []Addr
	for ; n > 0 && d.err == nil; n-- {
		a := Addr{Proc: d.proc()}
		a.Task = d.relKey(ref)
		chain = append(chain, a)
		ref = a.Task.Stamp
	}
	return chain
}

// AppendControl appends the wire form of a message that is neither a task
// packet nor a result: its type, then (generations as uvarints)
//
//	abort:          AbortTask (absolute), AbortGen, AbortScope (absolute)
//	child-abort:    AbortTask (absolute), AbortGen
//	task-ack:       AckParent (absolute), AckHole, AckTask (relative to
//	                AckParent), AckGen, PlacedOn
//	fault-announce: Failed
//
// From and To travel in the frame header.
func AppendControl(buf []byte, m *Msg) []byte {
	buf = append(buf, byte(m.Type))
	switch m.Type {
	case MsgAbort, MsgChildAbort:
		buf = appendKey(buf, m.AbortTask)
		buf = binary.AppendUvarint(buf, m.AbortGen)
		if m.Type == MsgAbort {
			buf = appendPath(buf, m.AbortScope.Key(), 0)
		}
	case MsgTaskAck:
		buf = appendKey(buf, m.AckParent)
		buf = binary.AppendUvarint(buf, uint64(m.AckHole))
		buf = appendRelKey(buf, m.AckTask, m.AckParent.Stamp)
		buf = binary.AppendUvarint(buf, m.AckGen)
		buf = binary.AppendVarint(buf, int64(m.PlacedOn))
	case MsgFaultAnnounce:
		buf = binary.AppendVarint(buf, int64(m.Failed))
	}
	return buf
}

// DecodeControl inverts AppendControl; any other message type is malformed.
func DecodeControl(buf []byte) (*Msg, error) {
	d := decoder{buf: buf}
	m := &Msg{Type: MsgType(d.byte("message type"))}
	switch m.Type {
	case MsgAbort, MsgChildAbort:
		m.AbortTask = d.key()
		m.AbortGen = d.uvarint("abort generation")
		if m.Type == MsgAbort {
			m.AbortScope = d.path("")
		}
	case MsgTaskAck:
		m.AckParent = d.key()
		m.AckHole = int(d.uvarint("hole id"))
		m.AckTask = d.relKey(m.AckParent.Stamp)
		m.AckGen = d.uvarint("ack generation")
		m.PlacedOn = d.proc()
	case MsgFaultAnnounce:
		m.Failed = d.proc()
	default:
		d.fail("message type")
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return m, nil
}
