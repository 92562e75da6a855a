// Package checkpoint implements the functional checkpoint store of §2–3:
// "Each processor maintains a table of linked lists. The Nth entry of the
// table contains all topmost checkpoints from the host processor to
// processor N" (§3.2). A checkpoint is a Slot its owner holds: the machine
// embeds one in the record of every child a task spawns, so retaining,
// settling and releasing a checkpoint (Hold, Move, Drop) relink a slot the
// parent already points to, and hash no key. The table has one list per
// destination, the pending list of unacknowledged placements first.
//
// The store keeps *all* pending checkpoints (not just topmost ones) because
// entries are released as children complete, which can promote a previously
// shadowed checkpoint to topmost; the topmost set is computed on demand at
// recovery time. A checkpoint settled on the failed processor is shadowed
// when another one settled there lies strictly above its parent: reissuing
// that one aborts the parent, so the paper's "do nothing if descendant" rule
// asks exactly the question rollback's abort asks.
package checkpoint

import (
	"slices"

	"repro/internal/proto"
	"repro/internal/stamp"
)

// Entry is one retained checkpoint.
type Entry struct {
	// Packet is the retained packet, nil while the slot holds none.
	Packet *proto.TaskPacket
	// Dest is the processor the task settled on, or -2 while placement is
	// unacknowledged (in-flight, Figure 6 states b/d). A slot that holds no
	// packet keeps it too, for an owner that checkpoints nothing.
	Dest proto.ProcID
}

// PendingDest marks checkpoints whose placement is not yet acknowledged.
const PendingDest proto.ProcID = -2

// Slot is an Entry linked into its destination's list; the zero Slot holds
// nothing.
type Slot struct {
	Entry
	prev, next *Slot
}

// Store is one processor's checkpoint table: heads[d-PendingDest] is the
// first slot held for destination d. bytes is the sum of the held packets'
// EncodedSize (memoized, so Drop refunds what Hold charged) and peak its
// high-water mark. A Store is not safe for concurrent use.
type Store struct {
	heads       []*Slot
	n           int
	bytes, peak int64
}

// NewStore creates an empty checkpoint store.
func NewStore() *Store { return &Store{} }

// Hold retains pkt in sl, settled on dest. A packet sl already holds is
// replaced: a reissued packet supersedes the original.
func (s *Store) Hold(sl *Slot, pkt *proto.TaskPacket, dest proto.ProcID) {
	s.Drop(sl)
	sl.Packet, sl.Dest = pkt, dest
	i := int(dest - PendingDest)
	if i >= len(s.heads) {
		s.heads = append(s.heads, make([]*Slot, i+1-len(s.heads))...)
	}
	if sl.next = s.heads[i]; sl.next != nil {
		sl.next.prev = sl
	}
	s.heads[i] = sl
	s.n++
	s.bytes += int64(pkt.EncodedSize())
	s.peak = max(s.peak, s.bytes)
}

// Move records that sl's task settled on dest (placement ack received;
// Figure 6 state c/e), or is unplaced again (PendingDest).
func (s *Store) Move(sl *Slot, dest proto.ProcID) {
	if pkt := sl.Packet; pkt != nil && dest != sl.Dest {
		s.Drop(sl)
		s.Hold(sl, pkt, dest)
	}
	sl.Dest = dest
}

// Drop releases sl's checkpoint after the child's result arrived ("Return
// packets from a child task normally eliminate the children that are no
// longer needed" — §4). It reports whether sl held one.
func (s *Store) Drop(sl *Slot) bool {
	if sl.Packet == nil {
		return false
	}
	if sl.prev != nil {
		sl.prev.next = sl.next
	} else {
		s.heads[sl.Dest-PendingDest] = sl.next
	}
	if sl.next != nil {
		sl.next.prev = sl.prev
	}
	s.n--
	s.bytes -= int64(sl.Packet.EncodedSize())
	sl.Packet, sl.prev, sl.next = nil, nil, nil
	return true
}

// head is the first slot held for dest, or nil.
func (s *Store) head(dest proto.ProcID) *Slot {
	if i := int(dest - PendingDest); i < len(s.heads) {
		return s.heads[i]
	}
	return nil
}

// Find returns the slot holding key in dest's list, or nil.
func (s *Store) Find(dest proto.ProcID, key proto.TaskKey) *Slot {
	sl := s.head(dest)
	for sl != nil && sl.Packet.Key != key {
		sl = sl.next
	}
	return sl
}

// Retain, Settle and Release are Hold (pending), Move and Drop by key, for
// a caller that keeps no slot; each walks the table. Settle and Release
// report whether key was held.
func (s *Store) Retain(pkt *proto.TaskPacket) { s.Hold(s.find(pkt.Key), pkt, PendingDest) }

func (s *Store) Settle(key proto.TaskKey, dest proto.ProcID) bool {
	sl := s.find(key)
	s.Move(sl, dest)
	return sl.Packet != nil
}

func (s *Store) Release(key proto.TaskKey) bool { return s.Drop(s.find(key)) }

// find returns the slot holding key, or a new one.
func (s *Store) find(key proto.TaskKey) *Slot {
	for i := range s.heads {
		if sl := s.Find(PendingDest+proto.ProcID(i), key); sl != nil {
			return sl
		}
	}
	return new(Slot)
}

// Len returns the number of retained checkpoints.
func (s *Store) Len() int { return s.n }

// PeakBytes returns the high-water retained storage in bytes.
func (s *Store) PeakBytes() int64 { return s.peak }

// For returns the slots settled on dest, sorted in stamp preorder
// (deterministic recovery order).
func (s *Store) For(dest proto.ProcID) []*Slot {
	var out []*Slot
	for sl := s.head(dest); sl != nil; sl = sl.next {
		out = append(out, sl)
	}
	slices.SortFunc(out, func(a, b *Slot) int { return a.Packet.Key.Compare(b.Packet.Key) })
	return out
}

// TopmostFor computes the §3.2 recovery set for a failed destination, in
// stamp preorder. An entry settled on dest is shadowed iff another such
// entry's stamp lies strictly above its parent's stamp: rollback aborts the
// resident tasks strictly below a reissued stamp, so that reissue aborts the
// parent and reissuing the entry would not be fruitful (the B5 case). Every
// other entry is topmost. In particular an entry whose parent shares its
// stamp with another entry is topmost: the parent is another incarnation,
// which that reissue does not abort.
func (s *Store) TopmostFor(dest proto.ProcID) (topmost, shadowed []*Slot) {
	// shallowest is the shallowest entry so far at or above the current
	// stamp: preorder visits a subtree right after its root. A parent's stamp
	// is its child's minus the last component (§3.1), so some entry lies
	// strictly above the parent iff shallowest does.
	var shallowest stamp.Stamp
	for i, e := range s.For(dest) {
		st := e.Packet.Key.Stamp
		if i == 0 || st != shallowest && !shallowest.IsAncestorOf(st) {
			shallowest = st
		}
		if shallowest.IsAncestorOf(e.Packet.Parent.Task.Stamp) {
			shadowed = append(shadowed, e)
		} else {
			topmost = append(topmost, e)
		}
	}
	return topmost, shadowed
}
