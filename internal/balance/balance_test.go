package balance

import (
	"math/rand"
	"testing"

	"repro/internal/proto"
	"repro/internal/stamp"
)

// fakeView is a scriptable View for policy tests.
type fakeView struct {
	self      proto.ProcID
	size      int
	queue     int
	neighbors []proto.ProcID
	grads     map[proto.ProcID]int
	faulty    map[proto.ProcID]bool
	rng       *rand.Rand
}

func (f *fakeView) Self() proto.ProcID           { return f.self }
func (f *fakeView) Size() int                    { return f.size }
func (f *fakeView) QueueLen() int                { return f.queue }
func (f *fakeView) Neighbors() []proto.ProcID    { return f.neighbors }
func (f *fakeView) IsFaulty(p proto.ProcID) bool { return f.faulty[p] }
func (f *fakeView) Rand() *rand.Rand             { return f.rng }
func (f *fakeView) NeighborGradient(p proto.ProcID) int {
	if g, ok := f.grads[p]; ok {
		return g
	}
	return MaxGradient
}

func newFake() *fakeView {
	return &fakeView{
		self: 0, size: 4,
		neighbors: []proto.ProcID{1, 2},
		grads:     map[proto.ProcID]int{},
		faulty:    map[proto.ProcID]bool{},
		rng:       rand.New(rand.NewSource(1)),
	}
}

func key(path ...uint32) proto.TaskKey {
	return proto.TaskKey{Stamp: stamp.FromPath(path...)}
}

func TestLocalAlwaysSelf(t *testing.T) {
	p := NewLocal()
	v := newFake()
	if p.Mode() != Direct {
		t.Fatal("local mode")
	}
	if got := p.PickDest(v, key(1)); got != v.self {
		t.Fatalf("PickDest = %d", got)
	}
	if got := p.Step(v, 0); got != v.self {
		t.Fatalf("Step = %d", got)
	}
}

func TestRandomAvoidsFaulty(t *testing.T) {
	p := NewRandom()
	v := newFake()
	v.faulty[1] = true
	v.faulty[3] = true
	for i := 0; i < 200; i++ {
		d := p.PickDest(v, key(uint32(i)))
		if d == 1 || d == 3 {
			t.Fatalf("random placed on faulty proc %d", d)
		}
	}
}

func TestRandomAllFaultyFallsBackToSelf(t *testing.T) {
	p := NewRandom()
	v := newFake()
	for i := 0; i < v.size; i++ {
		v.faulty[proto.ProcID(i)] = true
	}
	if got := p.PickDest(v, key(1)); got != v.self {
		t.Fatalf("PickDest with all faulty = %d", got)
	}
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	p := NewRandom()
	mk := func() []proto.ProcID {
		v := newFake()
		v.rng = rand.New(rand.NewSource(99))
		out := make([]proto.ProcID, 50)
		for i := range out {
			out[i] = p.PickDest(v, key(uint32(i)))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random placement not reproducible for fixed seed")
		}
	}
}

func TestStaticHashStableAndFaultAware(t *testing.T) {
	p := NewStaticHash()
	v := newFake()
	k := key(1, 2, 3)
	d1 := p.PickDest(v, k)
	d2 := p.PickDest(v, k)
	if d1 != d2 {
		t.Fatalf("static placement unstable: %d vs %d", d1, d2)
	}
	// Different keys spread across processors.
	seen := map[proto.ProcID]bool{}
	for i := uint32(0); i < 64; i++ {
		seen[p.PickDest(v, key(i))] = true
	}
	if len(seen) < 2 {
		t.Fatalf("static hash used only %d processors", len(seen))
	}
	// Killing the home slot moves the task deterministically elsewhere.
	v.faulty[d1] = true
	d3 := p.PickDest(v, k)
	if d3 == d1 {
		t.Fatal("static hash placed on faulty processor")
	}
	if d4 := p.PickDest(v, k); d4 != d3 {
		t.Fatal("fault remap unstable")
	}
}

func TestStaticHashReplicasSeparate(t *testing.T) {
	p := NewStaticHash()
	v := newFake()
	v.size = 16
	k0 := proto.TaskKey{Stamp: stamp.FromPath(1), Rep: 1}
	k1 := proto.TaskKey{Stamp: stamp.FromPath(1), Rep: 2}
	// With 16 slots the two replica keys should usually differ; we only
	// require the hash actually incorporates Rep (not a strict spread).
	if p.PickDest(v, k0) == p.PickDest(v, k1) {
		k2 := proto.TaskKey{Stamp: stamp.FromPath(1), Rep: 3}
		if p.PickDest(v, k0) == p.PickDest(v, k2) {
			t.Skip("hash collisions on this tuple; acceptable")
		}
	}
}

func TestGradientSettlesWhenLight(t *testing.T) {
	g := NewGradient()
	v := newFake()
	v.queue = 1 // ≤ settle threshold
	if got := g.Step(v, 0); got != v.self {
		t.Fatalf("light queue should settle, got %d", got)
	}
}

func TestGradientForwardsDownhill(t *testing.T) {
	g := NewGradient()
	v := newFake()
	v.queue = 5
	v.grads[1] = 3
	v.grads[2] = 0 // idle neighbor
	if got := g.Step(v, 0); got != 2 {
		t.Fatalf("Step = %d, want 2 (downhill)", got)
	}
	// Tie goes to lowest id.
	v.grads[1] = 0
	if got := g.Step(v, 0); got != 1 {
		t.Fatalf("tie-break Step = %d, want 1", got)
	}
}

func TestGradientAvoidsFaultyNeighbors(t *testing.T) {
	g := NewGradient()
	v := newFake()
	v.queue = 5
	v.grads[1] = 0
	v.grads[2] = 2
	v.faulty[1] = true
	if got := g.Step(v, 0); got != 2 {
		t.Fatalf("Step = %d, want 2 (live neighbor)", got)
	}
}

func TestGradientTTLSettles(t *testing.T) {
	g := NewGradient()
	v := newFake()
	v.queue = 10
	v.grads[1] = 0
	if got := g.Step(v, 7); got != 1 {
		t.Fatalf("one hop inside the budget settled on %d, want forward to 1", got)
	}
	if got := g.Step(v, 8); got != v.self {
		t.Fatalf("TTL exhausted but forwarded to %d", got)
	}
}

func TestGradientSettlesAtLocalMinimum(t *testing.T) {
	g := NewGradient()
	v := newFake()
	v.queue = 5
	// All neighbors as busy as us or busier: no improvement, stay.
	v.grads[1] = MaxGradient
	v.grads[2] = MaxGradient
	if got := g.Step(v, 0); got != v.self {
		t.Fatalf("Step = %d, want self at local minimum", got)
	}
}

func TestLocalGradientComputation(t *testing.T) {
	g := NewGradient()
	v := newFake()
	v.queue = 0
	if got := g.LocalGradient(v); got != 0 {
		t.Fatalf("idle gradient = %d", got)
	}
	v.queue = 7
	v.grads[1] = 2
	v.grads[2] = 5
	if got := g.LocalGradient(v); got != 3 {
		t.Fatalf("busy gradient = %d, want 3", got)
	}
	// All neighbors unknown/faulty: saturates.
	v.grads = map[proto.ProcID]int{}
	if got := g.LocalGradient(v); got != MaxGradient {
		t.Fatalf("isolated gradient = %d, want max", got)
	}
	v.grads[1] = 1
	v.faulty[1] = true
	if got := g.LocalGradient(v); got != MaxGradient {
		t.Fatalf("gradient through faulty neighbor = %d, want max", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"local", "random", "static", "gradient"} {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("policy %q has empty name", name)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName accepted unknown policy")
	}
}
