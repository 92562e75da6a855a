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
// nothing external but the program code every node holds, which is what
// storing it on a peer processor (§2) requires.
//
// The form is compact: a packet carries only what resident code cannot
// supply. Lengths, counts, replicas, hole ids, function indices and
// generations are uvarints; processor ids are zigzag varints (values follow
// expr's codec). The function travels as its index in the packet's program
// (FnIndex), not as its name. A path — a stamp's components from some point
// on — is a uvarint header, its component count shifted left past a bare
// bit, then the components packed in nibbles: three value bits and a
// continuation bit each, the low bits first, two nibbles a byte, high nibble
// first, a zero nibble padding the last byte. A component below 8, nearly
// every hole index, costs half a byte. The bare bit is set when nothing
// follows the path: a bare stamp, or a key whose replica is 0. A key's other
// replicas follow its path as a uvarint, so replica 0 costs nothing.
//
// One stamp per frame is written in full — a packet's parent, a result's
// addressee — and every other stamp relative to one the frame already
// carried: the number of that stamp's trailing components to drop, then the
// path to append (§3.1: a child is stamped by appending one component to its
// parent's stamp). A task that is its parent's child at its hole, the normal
// case, costs one flag bit, and so do the fields a frame almost never
// carries: a non-empty address chain and a replica count other than 1 are
// written only behind their flag bit.
//
//	packet: flags, Gen, ParentGen, Parent (absolute), HoleID, Key (unless
//	        flagHoleChild; relative to Parent), FnIndex, Args, Ancestors (if
//	        flagChain: a count, each relative to the address before it),
//	        Replicas (if flagReplicated)
//	result: flags, ParentTask (absolute), HoleID, Child (unless
//	        flagHoleChild; relative to ParentTask), Value, DeadParent (if
//	        flagDeadParent; relative to Child), Remaining (if flagChain: a
//	        count, each relative to the address before it)
//
// A flag bit the frame's kind does not define, an empty chain behind
// flagChain, a replica count of 1 behind flagReplicated, a replica of 0
// written out, a stamp that is not bare, a component longer than it needs
// and a pad nibble other than 0 are malformed. A decoded packet's Fn is
// empty: the receiver resolves it from FnIndex in the program it holds, and
// an index the program lacks is its to refuse.
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

// appendPath writes the path of raw's components from byte offset o on: the
// header, their count shifted past the bare bit, then the components in
// nibbles.
func appendPath(buf []byte, raw string, o int, bare bool) []byte {
	h := uint64((len(raw)-o)/width) << 1
	if bare {
		h |= 1
	}
	buf = binary.AppendUvarint(buf, h)
	var hi byte   // a byte's high nibble, waiting for its low one
	half := false // hi holds a nibble
	for ; o < len(raw); o += width {
		for c := component(raw, o); ; c >>= 3 {
			nib := byte(c & 7)
			if c >= 8 {
				nib |= 8
			}
			if half {
				buf = append(buf, hi|nib)
			} else {
				hi = nib << 4
			}
			if half = !half; c < 8 {
				break
			}
		}
	}
	if half {
		buf = append(buf, hi)
	}
	return buf
}

// appendKeyPath writes k's path from byte offset o of its stamp on, then its
// replica unless it is 0 and the path is bare.
func appendKeyPath(buf []byte, k TaskKey, o int) []byte {
	buf = appendPath(buf, k.Stamp.Key(), o, k.Rep == 0)
	if k.Rep != 0 {
		buf = binary.AppendUvarint(buf, uint64(k.Rep))
	}
	return buf
}

// appendKey writes a key absolutely.
func appendKey(buf []byte, k TaskKey) []byte { return appendKeyPath(buf, k, 0) }

// appendRelKey writes a key relative to ref: how many of ref's trailing
// components to drop, then the key's path past what both share.
func appendRelKey(buf []byte, k TaskKey, ref stamp.Stamp) []byte {
	ks, rs := k.Stamp.Key(), ref.Key()
	c := shared(ks, rs)
	buf = binary.AppendUvarint(buf, uint64((len(rs)-c)/width))
	return appendKeyPath(buf, k, c)
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
	buf = binary.AppendUvarint(buf, uint64(p.FnIndex))
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
	if i := d.uvarint("function index"); i <= math.MaxInt32 {
		p.FnIndex = int32(i)
	} else {
		d.fail("function index")
	}
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

// path reads a path and returns the stamp it extends prefix (a stamp's Key)
// by, and its header's bare bit.
func (d *decoder) path(prefix string) (stamp.Stamp, bool) {
	h := d.uvarint("stamp length")
	n := h >> 1
	if n > 2*uint64(len(d.buf)) { // a component takes at least a nibble
		d.fail("stamp length")
		n = 0
	}
	raw := prefix
	if n > 0 {
		var scratch [64]byte // a stamp 16 levels deep builds on the stack
		b := append(scratch[:0], prefix...)
		half := false // the next nibble is d.buf[0]'s low one
		for ; n > 0 && d.err == nil; n-- {
			b = binary.BigEndian.AppendUint32(b, d.component(&half))
		}
		if half && d.err == nil {
			if d.buf[0]&0xf != 0 {
				d.fail("stamp padding")
			} else {
				d.buf = d.buf[1:]
			}
		}
		raw = string(b)
	}
	s, err := stamp.Decode(raw)
	if err != nil {
		d.fail("stamp")
	}
	return s, h&1 != 0
}

// component reads one nibble-packed component; half says its first nibble
// is the low one of d.buf[0], and is left saying the same of the next.
func (d *decoder) component(half *bool) uint32 {
	var c uint64
	for shift := 0; shift <= 30 && len(d.buf) > 0; shift += 3 {
		nib := d.buf[0] >> 4
		if *half {
			nib = d.buf[0] & 0xf
			d.buf = d.buf[1:]
		}
		*half = !*half
		c |= uint64(nib&7) << shift
		if nib&8 == 0 {
			if (nib == 0 && shift > 0) || c > math.MaxUint32 {
				break // longer than it needs, or past 32 bits
			}
			return uint32(c)
		}
	}
	d.fail("stamp component")
	return 0
}

// keyFrom reads a key whose path extends prefix, and its replica unless the
// path is bare.
func (d *decoder) keyFrom(prefix string) TaskKey {
	s, bare := d.path(prefix)
	k := TaskKey{Stamp: s}
	if !bare {
		if k.Rep = Rep(d.uvarint("rep")); k.Rep == 0 {
			d.fail("rep")
		}
	}
	return k
}

func (d *decoder) key() TaskKey { return d.keyFrom("") }

func (d *decoder) relKey(ref stamp.Stamp) TaskKey {
	drop := d.uvarint("stamp drop")
	if drop > uint64(ref.Level()) {
		d.fail("stamp drop")
		return TaskKey{}
	}
	return d.keyFrom(ref.Key()[:(ref.Level()-int(drop))*width])
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
			buf = appendPath(buf, m.AbortScope.Key(), 0, true)
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
			var bare bool
			if m.AbortScope, bare = d.path(""); !bare {
				d.fail("abort scope")
			}
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
