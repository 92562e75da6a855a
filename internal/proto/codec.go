package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/expr"
	"repro/internal/stamp"
)

// Binary codec for task packets and results, and the only definition of
// their size. The net backend ships these bytes; the simulator, the live
// backend and the checkpoint store charge EncodedSize, which is exactly the
// length of the encoding (a size walker beside each Append), so every
// backend counts the bytes netnode writes. The round trip is also §2.1's
// claim made executable: "the packet contains all necessary information,
// either directly or indirectly accessible, to activate the child task" — a
// packet survives it with nothing external, which is what storing it on a
// peer processor (§2) requires.
//
// The form is compact. Lengths, counts, replicas and hole ids are uvarints;
// processor ids are zigzag varints (values follow expr's codec); generations
// are fixed 8-byte fields. One stamp per frame is written in full — a
// packet's parent, a result's addressee — and every other stamp relative to
// one the frame already carried: the number of that stamp's trailing
// components to drop, then the components to append (§3.1: a child is
// stamped by appending one component to its parent's stamp). A task that is
// its parent's child at its hole, the normal case, costs one flag bit.
//
//	packet: flags, Gen, ParentGen, Parent (absolute), HoleID, Key (unless
//	        flagHoleChild; relative to Parent), Fn, Args, Ancestors (a count,
//	        each relative to the address before it), Replicas
//	result: flags, ParentTask (absolute), HoleID, Child (unless
//	        flagHoleChild; relative to ParentTask), Value, DeadParent (if
//	        flagDeadParent; relative to Child), Remaining (a count, each
//	        relative to the address before it)
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

// uvarintLen is the length of x as binary.AppendUvarint writes it.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of x as binary.AppendVarint writes it.
func varintLen(x int64) int { return uvarintLen(uint64(x)<<1 ^ uint64(x>>63)) }

// appendPath writes the components of raw from byte offset o on: their
// count, then each.
func appendPath(buf []byte, raw string, o int) []byte {
	buf = binary.AppendUvarint(buf, uint64((len(raw)-o)/width))
	for ; o < len(raw); o += width {
		buf = binary.AppendUvarint(buf, uint64(component(raw, o)))
	}
	return buf
}

func pathSize(raw string, o int) int {
	n := uvarintLen(uint64((len(raw) - o) / width))
	for ; o < len(raw); o += width {
		n += uvarintLen(uint64(component(raw, o)))
	}
	return n
}

// appendKey writes a key absolutely: its stamp's path, then its replica.
func appendKey(buf []byte, k TaskKey) []byte {
	buf = appendPath(buf, k.Stamp.Key(), 0)
	return binary.AppendUvarint(buf, uint64(k.Rep))
}

func keySize(k TaskKey) int { return pathSize(k.Stamp.Key(), 0) + uvarintLen(uint64(k.Rep)) }

// appendRelKey writes a key relative to ref: how many of ref's trailing
// components to drop, the path past what both share, then the replica.
func appendRelKey(buf []byte, k TaskKey, ref stamp.Stamp) []byte {
	ks, rs := k.Stamp.Key(), ref.Key()
	c := shared(ks, rs)
	buf = binary.AppendUvarint(buf, uint64((len(rs)-c)/width))
	buf = appendPath(buf, ks, c)
	return binary.AppendUvarint(buf, uint64(k.Rep))
}

func relKeySize(k TaskKey, ref stamp.Stamp) int {
	ks, rs := k.Stamp.Key(), ref.Key()
	c := shared(ks, rs)
	return uvarintLen(uint64((len(rs)-c)/width)) + pathSize(ks, c) + uvarintLen(uint64(k.Rep))
}

// appendChain writes an address chain: a count, then each address — its
// processor and its key relative to the stamp before it, ref for the first.
func appendChain(buf []byte, chain []Addr, ref stamp.Stamp) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(chain)))
	for _, a := range chain {
		buf = binary.AppendVarint(buf, int64(a.Proc))
		buf = appendRelKey(buf, a.Task, ref)
		ref = a.Task.Stamp
	}
	return buf
}

func chainSize(chain []Addr, ref stamp.Stamp) int {
	n := uvarintLen(uint64(len(chain)))
	for _, a := range chain {
		n += varintLen(int64(a.Proc)) + relKeySize(a.Task, ref)
		ref = a.Task.Stamp
	}
	return n
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
	return f
}

// EncodePacket serializes a task packet to bytes.
func EncodePacket(p *TaskPacket) []byte { return AppendPacket(nil, p) }

// AppendPacket appends a task packet's wire form to buf.
func AppendPacket(buf []byte, p *TaskPacket) []byte {
	flags := p.flags()
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, p.Gen)
	buf = binary.BigEndian.AppendUint64(buf, p.ParentGen)
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
	return binary.AppendUvarint(buf, uint64(p.Replicas))
}

// EncodedSize is exactly len(EncodePacket(p)). Checkpoint storage and every
// backend's message bytes are charged from it, once per hop and once per
// retention, hence the memo. The memo is never dropped: a packet's size
// depends only on fields fixed at construction (key, parent, hole, function,
// arguments, ancestors, replicas), while what Respawn and the recovery
// schemes rewrite afterwards — Gen, ParentGen and the twin/reissue flags —
// has a fixed width. So a store subtracts at Release the size it added at
// Retain, and a Clone may carry the memo over.
func (p *TaskPacket) EncodedSize() int {
	if p.encSize > 0 {
		return p.encSize
	}
	n := 1 + 8 + 8 // flags, generations
	n += varintLen(int64(p.Parent.Proc)) + keySize(p.Parent.Task)
	n += uvarintLen(uint64(p.HoleID))
	if !holeChild(p.Key, p.Parent.Task, p.HoleID) {
		n += relKeySize(p.Key, p.Parent.Task.Stamp)
	}
	n += uvarintLen(uint64(len(p.Fn))) + len(p.Fn)
	n += expr.ValuesEncodedSize(p.Args)
	n += chainSize(p.Ancestors, p.Parent.Task.Stamp)
	n += uvarintLen(uint64(p.Replicas))
	p.encSize = n
	return n
}

// DecodePacket inverts EncodePacket.
func DecodePacket(buf []byte) (*TaskPacket, error) {
	d := decoder{buf: buf}
	p := &TaskPacket{}
	flags := d.byte("flags")
	p.Twin, p.Reissue = flags&flagTwin != 0, flags&flagReissue != 0
	p.Gen = d.fixed64("generation")
	p.ParentGen = d.fixed64("parent generation")
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
	p.Ancestors = d.chain(p.Parent.Task.Stamp)
	p.Replicas = int(d.uvarint("replicas"))
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

// EncodedSize is exactly len(EncodeResult(r)).
func (r *Result) EncodedSize() int {
	flags := r.flags()
	n := 1 + keySize(r.ParentTask) + uvarintLen(uint64(r.HoleID))
	if flags&flagHoleChild == 0 {
		n += relKeySize(r.Child, r.ParentTask.Stamp)
	}
	n += r.Value.EncodedSize()
	ref := r.Child.Stamp
	if flags&flagDeadParent != 0 {
		n += varintLen(int64(r.DeadParent.Proc)) + relKeySize(r.DeadParent.Task, ref)
		ref = r.DeadParent.Task.Stamp
	}
	return n + chainSize(r.Remaining, ref)
}

// DecodeResult inverts EncodeResult.
func DecodeResult(buf []byte) (*Result, error) {
	d := decoder{buf: buf}
	r := &Result{}
	flags := d.byte("flags")
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
	r.Remaining = d.chain(ref)
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

func (d *decoder) fixed64(what string) uint64 {
	if len(d.buf) < 8 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
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

func (d *decoder) chain(ref stamp.Stamp) []Addr {
	var chain []Addr
	for n := d.count("address count"); n > 0 && d.err == nil; n-- {
		a := Addr{Proc: d.proc()}
		a.Task = d.relKey(ref)
		chain = append(chain, a)
		ref = a.Task.Stamp
	}
	return chain
}
