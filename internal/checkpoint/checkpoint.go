// Package checkpoint implements the functional checkpoint store of §2–3:
// each processor retains a copy of every task packet it spawned, keyed by
// the destination processor the task settled on — "Each processor maintains
// a table of linked lists. The Nth entry of the table contains all topmost
// checkpoints from the host processor to processor N" (§3.2). A checkpoint
// is retained pending and settled by its placement ack (Retain, Settle), or
// retained at the destination its sender picked (RetainAt).
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
	Packet *proto.TaskPacket
	// Dest is the processor the task settled on, or -2 while placement is
	// unacknowledged (in-flight, Figure 6 states b/d).
	Dest proto.ProcID
}

// PendingDest marks checkpoints whose placement is not yet acknowledged.
const PendingDest proto.ProcID = -2

// Store is one processor's checkpoint table. It is not safe for concurrent
// use; in the discrete-event machine each processor is single-threaded.
// Entries are held by value, so retaining a packet allocates no record.
type Store struct {
	entries map[proto.TaskKey]Entry
	// bytes tracks current retained storage, the sum of the packets'
	// EncodedSize (memoized, so Release refunds what Retain charged); peak
	// is the high-water mark reported to metrics.
	bytes int64
	peak  int64
}

// NewStore creates an empty checkpoint store.
func NewStore() *Store {
	return &Store{entries: make(map[proto.TaskKey]Entry)}
}

// Retain records the functional checkpoint of a freshly spawned packet.
// Placement is initially pending; Settle moves it to a destination entry.
// Retaining an already-present key replaces the entry (a reissued packet
// supersedes the original).
func (s *Store) Retain(pkt *proto.TaskPacket) { s.RetainAt(pkt, PendingDest) }

// RetainAt is Retain then Settle(pkt.Key, dest) in one step: the checkpoint
// of a packet whose destination is known as it leaves.
func (s *Store) RetainAt(pkt *proto.TaskPacket, dest proto.ProcID) {
	if old, ok := s.entries[pkt.Key]; ok {
		s.bytes -= int64(old.Packet.EncodedSize())
	}
	s.entries[pkt.Key] = Entry{Packet: pkt, Dest: dest}
	s.bytes += int64(pkt.EncodedSize())
	if s.bytes > s.peak {
		s.peak = s.bytes
	}
}

// Settle records that the checkpointed task settled on dest (placement ack
// received; Figure 6 state c/e).
func (s *Store) Settle(key proto.TaskKey, dest proto.ProcID) bool {
	e, ok := s.entries[key]
	if !ok {
		return false
	}
	e.Dest = dest
	s.entries[key] = e
	return true
}

// Release drops the checkpoint after the child's result arrived ("Return
// packets from a child task normally eliminate the children that are no
// longer needed" — §4). It reports whether the key was present.
func (s *Store) Release(key proto.TaskKey) bool {
	e, ok := s.entries[key]
	if !ok {
		return false
	}
	s.bytes -= int64(e.Packet.EncodedSize())
	delete(s.entries, key)
	return true
}

// Get returns the retained packet for key, if present.
func (s *Store) Get(key proto.TaskKey) (*proto.TaskPacket, bool) {
	e, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	return e.Packet, true
}

// Dest returns the settled destination for key (PendingDest if in flight).
func (s *Store) Dest(key proto.TaskKey) (proto.ProcID, bool) {
	e, ok := s.entries[key]
	if !ok {
		return 0, false
	}
	return e.Dest, true
}

// Len returns the number of retained checkpoints.
func (s *Store) Len() int { return len(s.entries) }

// PeakBytes returns the high-water retained storage in bytes.
func (s *Store) PeakBytes() int64 { return s.peak }

// For returns copies of all retained checkpoints settled on dest, sorted in
// stamp preorder (deterministic recovery order).
func (s *Store) For(dest proto.ProcID) []Entry {
	var out []Entry
	for _, e := range s.entries {
		if e.Dest == dest {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Entry) int { return a.Packet.Key.Compare(b.Packet.Key) })
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
func (s *Store) TopmostFor(dest proto.ProcID) (topmost, shadowed []Entry) {
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
