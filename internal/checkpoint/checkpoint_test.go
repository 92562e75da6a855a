package checkpoint

import (
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/proto"
	"repro/internal/stamp"
)

// pkt is the packet of the task at path, spawned by its real parent: the
// task at path minus its last component.
func pkt(path ...uint32) *proto.TaskPacket {
	return &proto.TaskPacket{
		Key:    proto.TaskKey{Stamp: stamp.FromPath(path...)},
		Parent: proto.Addr{Task: proto.TaskKey{Stamp: stamp.FromPath(path[:len(path)-1]...)}},
		Fn:     "f",
		Args:   []expr.Value{expr.VInt(1)},
	}
}

func TestRetainSettleRelease(t *testing.T) {
	s := NewStore()
	p := pkt(1)
	s.Retain(p)
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if d, ok := s.Dest(p.Key); !ok || d != PendingDest {
		t.Fatalf("Dest = %v,%v want pending", d, ok)
	}
	if !s.Settle(p.Key, 3) {
		t.Fatal("Settle failed")
	}
	if d, _ := s.Dest(p.Key); d != 3 {
		t.Fatalf("Dest after settle = %d", d)
	}
	got, ok := s.Get(p.Key)
	if !ok || got != p {
		t.Fatal("Get did not return the retained packet")
	}
	if !s.Release(p.Key) {
		t.Fatal("Release failed")
	}
	if s.Release(p.Key) {
		t.Fatal("double Release succeeded")
	}
	if s.Len() != 0 || s.bytes != 0 {
		t.Fatalf("after release: len=%d bytes=%d", s.Len(), s.bytes)
	}
	if s.PeakBytes() <= 0 {
		t.Fatal("peak bytes not tracked")
	}
}

func TestSettleUnknownKey(t *testing.T) {
	s := NewStore()
	if s.Settle(proto.TaskKey{Stamp: stamp.FromPath(9)}, 1) {
		t.Fatal("Settle on unknown key succeeded")
	}
}

func TestByteAccounting(t *testing.T) {
	s := NewStore()
	p1, p2 := pkt(1), pkt(2, 3)
	s.Retain(p1)
	s.Retain(p2)
	want := int64(p1.EncodedSize() + p2.EncodedSize())
	if s.bytes != want {
		t.Fatalf("Bytes = %d, want %d", s.bytes, want)
	}
	s.Release(p1.Key)
	if s.bytes != int64(p2.EncodedSize()) {
		t.Fatalf("Bytes after release = %d", s.bytes)
	}
	if s.PeakBytes() != want {
		t.Fatalf("PeakBytes = %d, want %d", s.PeakBytes(), want)
	}
	// Re-retaining the same key replaces, not doubles.
	s.Retain(p2)
	if s.bytes != int64(p2.EncodedSize()) {
		t.Fatalf("Bytes after re-retain = %d", s.bytes)
	}
	// A respawn retains a clone whose generations and flags were rewritten
	// after its size was memoized: the memo is still the wire length, and
	// Release takes back exactly what Retain charged.
	re := p2.Clone()
	re.Gen, re.ParentGen, re.Reissue = 1<<60, 7, true
	if n := len(proto.EncodePacket(re)); re.EncodedSize() != n {
		t.Fatalf("respawned packet: EncodedSize %d, wire %d", re.EncodedSize(), n)
	}
	s.Retain(re)
	s.Release(re.Key)
	if s.bytes != 0 {
		t.Fatalf("Bytes after respawn and release = %d", s.bytes)
	}
}

func TestForReturnsOnlySettledOnDest(t *testing.T) {
	s := NewStore()
	a, b, c := pkt(1), pkt(2), pkt(3)
	s.Retain(a)
	s.Retain(b)
	s.Retain(c)
	s.Settle(a.Key, 5)
	s.Settle(b.Key, 6)
	// c stays pending
	got := s.For(5)
	if len(got) != 1 || got[0].Packet != a {
		t.Fatalf("For(5) = %v", got)
	}
	if len(s.For(7)) != 0 {
		t.Fatal("For(7) nonempty")
	}
	if len(s.For(PendingDest)) != 1 {
		t.Fatal("pending entry not visible under PendingDest")
	}
}

// TestTopmostForPaperFigure1 recreates the checkpoint layout of Figure 1 as
// described in §3.2: processor C holds checkpoints for B2, B3 and B5 in its
// entry for processor B, where B5 is a descendant of B2. Recovery must
// reissue B2 and B3 only, suppressing B5 ("Reactivation of B5 only
// increases the system overhead"): B2 lies strictly above B5's parent, which
// B2's reissue aborts.
func TestTopmostForPaperFigure1(t *testing.T) {
	s := NewStore()
	b2 := pkt(0, 1)
	b3 := pkt(0, 2)
	b5 := pkt(0, 1, 0, 2, 0) // genealogical descendant of B2
	const procB = 1
	for _, p := range []*proto.TaskPacket{b2, b3, b5} {
		s.Retain(p)
		s.Settle(p.Key, procB)
	}
	top, shadowed := s.TopmostFor(procB)
	if len(top) != 2 {
		t.Fatalf("topmost = %d entries, want 2", len(top))
	}
	if top[0].Packet != b2 || top[1].Packet != b3 {
		t.Fatalf("topmost packets wrong: %v %v", top[0].Packet.Key, top[1].Packet.Key)
	}
	if len(shadowed) != 1 || shadowed[0].Packet != b5 {
		t.Fatalf("shadowed = %v", shadowed)
	}
}

// TestTopmostForTwoIncarnations is processor 6's store in the torus-16
// cascade (cmd/apsim/testdata/runs/torus16-cascade.line): an orphaned
// incarnation of 7.0.0 checkpointed 7.0.0.0, the live 7.0.0.0 that replaced
// it checkpointed 7.0.0.0.1, and both settled on processor 7. Reissuing
// 7.0.0.0 aborts only what lies strictly below it, not the live 7.0.0.0, so
// its lost child must be reissued too or its hole is never filled.
func TestTopmostForTwoIncarnations(t *testing.T) {
	s := NewStore()
	orphans, lives := pkt(7, 0, 0, 0), pkt(7, 0, 0, 0, 1)
	for _, p := range []*proto.TaskPacket{orphans, lives} {
		s.Retain(p)
		s.Settle(p.Key, 7)
	}
	top, shadowed := s.TopmostFor(7)
	if len(top) != 2 || top[0].Packet != orphans || top[1].Packet != lives || len(shadowed) != 0 {
		t.Fatalf("top=%v shadowed=%v, want both topmost", keys(top), keys(shadowed))
	}
}

// FuzzTopmostFor: for any entry set, TopmostFor partitions each
// destination's entries, in For's order, exactly as the rule's brute-force
// statement does: an entry is shadowed iff some entry settled on the same
// destination has a stamp strictly above the entry's parent stamp. Each
// entry is a header byte (level 1–5, destination 0–2, replica 0–1) and then
// one byte per stamp component (0–2); its parent is its path minus the last
// component, in the same replica.
func FuzzTopmostFor(f *testing.F) {
	f.Add([]byte{6, 0, 1, 6, 0, 2, 9, 0, 1, 0, 2, 0}) // Figure 1, on processor 1
	f.Add([]byte{8, 1, 0, 0, 0, 9, 1, 0, 0, 0, 1})    // two incarnations, on 1
	f.Add([]byte{5, 2, 20, 2, 22, 2, 1, 0, 11, 2, 1}) // 2, 2#1 and 2.1.0#1 on 1; 2.1 on 2
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		for len(data) > 0 {
			h := data[0]
			level := 1 + int(h%5)
			if len(data) < 1+level {
				break
			}
			path := make([]uint32, level)
			for i := range path {
				path[i] = uint32(data[1+i] % 3)
			}
			data = data[1+level:]
			p := pkt(path...)
			p.Key.Rep = proto.Rep(h / 15 % 2)
			p.Parent.Task.Rep = p.Key.Rep
			s.Retain(p)
			s.Settle(p.Key, proto.ProcID(h/5%3))
		}
		for dest := range proto.ProcID(3) {
			all := s.For(dest)
			var wantTop, wantShadowed []*Entry
			for _, e := range all {
				if slices.ContainsFunc(all, func(a *Entry) bool {
					return a.Packet.Key.Stamp.IsAncestorOf(e.Packet.Parent.Task.Stamp)
				}) {
					wantShadowed = append(wantShadowed, e)
				} else {
					wantTop = append(wantTop, e)
				}
			}
			top, shadowed := s.TopmostFor(dest)
			if !slices.Equal(top, wantTop) || !slices.Equal(shadowed, wantShadowed) {
				t.Fatalf("dest %d: TopmostFor = %v / %v, want %v / %v", dest, keys(top), keys(shadowed), keys(wantTop), keys(wantShadowed))
			}
		}
	})
}

// keys is the entries' keys, for failure messages.
func keys(es []*Entry) []proto.TaskKey {
	out := make([]proto.TaskKey, len(es))
	for i, e := range es {
		out[i] = e.Packet.Key
	}
	return out
}

func TestTopmostForEmptyDest(t *testing.T) {
	s := NewStore()
	top, shadowed := s.TopmostFor(3)
	if top != nil || shadowed != nil {
		t.Fatal("TopmostFor on empty store returned entries")
	}
}

func TestReleasePromotesShadowedEntry(t *testing.T) {
	// After the topmost ancestor's result arrives and its checkpoint is
	// released, a previously shadowed descendant becomes topmost — the
	// staleness case that justifies computing the antichain on demand.
	s := NewStore()
	anc := pkt(1)
	desc := pkt(1, 0, 2)
	s.Retain(anc)
	s.Retain(desc)
	s.Settle(anc.Key, 4)
	s.Settle(desc.Key, 4)
	top, _ := s.TopmostFor(4)
	if len(top) != 1 || top[0].Packet != anc {
		t.Fatalf("initial topmost = %v", top)
	}
	s.Release(anc.Key)
	top, shadowed := s.TopmostFor(4)
	if len(top) != 1 || top[0].Packet != desc || len(shadowed) != 0 {
		t.Fatalf("after release: top=%v shadowed=%v", top, shadowed)
	}
}

func TestReplicasAreIndependentlyTopmost(t *testing.T) {
	s := NewStore()
	r0 := &proto.TaskPacket{Key: proto.TaskKey{Stamp: stamp.FromPath(2), Rep: 10}, Fn: "f"}
	r1 := &proto.TaskPacket{Key: proto.TaskKey{Stamp: stamp.FromPath(2), Rep: 11}, Fn: "f"}
	s.Retain(r0)
	s.Retain(r1)
	s.Settle(r0.Key, 2)
	s.Settle(r1.Key, 2)
	top, shadowed := s.TopmostFor(2)
	if len(top) != 2 || len(shadowed) != 0 {
		t.Fatalf("replica topmost: top=%d shadowed=%d", len(top), len(shadowed))
	}
}

// Keys returns all retained keys in preorder.
func (s *Store) Keys() []proto.TaskKey {
	out := make([]proto.TaskKey, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	slices.SortFunc(out, proto.TaskKey.Compare)
	return out
}

func TestKeysDeterministicOrder(t *testing.T) {
	s := NewStore()
	for _, p := range []*proto.TaskPacket{pkt(3), pkt(1), pkt(2, 0), pkt(2)} {
		s.Retain(p)
	}
	keys := s.Keys()
	want := []stamp.Stamp{
		stamp.FromPath(1), stamp.FromPath(2), stamp.FromPath(2, 0), stamp.FromPath(3),
	}
	if len(keys) != len(want) {
		t.Fatalf("Keys len = %d", len(keys))
	}
	for i := range want {
		if keys[i].Stamp != want[i] {
			t.Fatalf("Keys[%d] = %v, want %v", i, keys[i].Stamp, want[i])
		}
	}
}
