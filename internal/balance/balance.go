// Package balance implements task placement. §3.3 of the paper ties recovery
// quality to the allocation strategy: "the ability to recover by simply
// reissuing checkpointed tasks depends on the availability of a dynamic
// allocation strategy, such as the gradient model approach [10]" — reference
// [10] being Lin & Keller's own gradient-model load balancer, which is
// implemented here alongside the static and random baselines the section
// contrasts it with.
package balance

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/proto"
)

// View is the information a placement policy may consult. It deliberately
// exposes only locally available knowledge plus neighbor gossip, matching
// the partitioned-memory assumption: no global queue state exists.
// (Random placement additionally assumes a task can be addressed to any
// processor, which the paper's dynamic-allocation discussion permits.)
type View interface {
	// Self is the deciding processor.
	Self() proto.ProcID
	// Size is the number of processors in the machine.
	Size() int
	// QueueLen is the local ready-queue length.
	QueueLen() int
	// Neighbors lists the direct neighbors in ascending order.
	Neighbors() []proto.ProcID
	// NeighborGradient returns the last gradient value gossiped by a
	// neighbor (MaxGradient if never heard from).
	NeighborGradient(p proto.ProcID) int
	// IsFaulty reports whether p is believed failed.
	IsFaulty(p proto.ProcID) bool
	// Rand is the deterministic RNG of the simulation.
	Rand() *rand.Rand
}

// Mode distinguishes placement styles.
type Mode int

// Placement modes.
const (
	// Direct policies choose a final destination at spawn time; the packet
	// is routed straight there.
	Direct Mode = iota
	// HopByHop policies decide one hop at a time; every intermediate
	// processor may settle or forward the packet (the gradient model's
	// transient states b/d of Figure 6).
	HopByHop
)

// MaxGradient is the "infinitely far from idle" value.
const MaxGradient = 1 << 20

// liveView is an optional View extension: a view that maintains its faulty
// count lets Random place without scanning the whole faulty bitmap. The
// count must agree exactly with IsFaulty — live processors are the Intn
// modulus, so a drifting count would change every subsequent draw.
type liveView interface {
	FaultyCount() int
}

// Policy decides where spawned tasks go.
type Policy interface {
	Name() string
	Mode() Mode
	// PickDest (Direct mode) returns the destination for a fresh packet.
	PickDest(v View, key proto.TaskKey) proto.ProcID
	// Step (HopByHop mode) returns the next hop, or Self() to settle here.
	// hops is the distance the packet has already traveled.
	Step(v View, hops int) proto.ProcID
}

// --- Local ---

// Local places every task on the spawning processor. It is the degenerate
// baseline (no distribution, no parallelism across nodes).
type Local struct{}

// NewLocal returns the local-only policy.
func NewLocal() *Local { return &Local{} }

func (*Local) Name() string { return "local" }
func (*Local) Mode() Mode   { return Direct }
func (*Local) PickDest(v View, _ proto.TaskKey) proto.ProcID {
	return v.Self()
}
func (*Local) Step(v View, _ int) proto.ProcID { return v.Self() }

// --- Random ---

// Random places each task on a uniformly random non-faulty processor.
// It is the classic dynamic-allocation strawman: fully distributed and
// fault-oblivious at spawn time.
type Random struct{}

// NewRandom returns the random policy.
func NewRandom() *Random { return &Random{} }

func (*Random) Name() string { return "random" }
func (*Random) Mode() Mode   { return Direct }

func (*Random) PickDest(v View, _ proto.TaskKey) proto.ProcID {
	n := v.Size()
	// Count live candidates, draw one uniformly, then walk to it: one Intn
	// over the live count, exactly the draw the slice-collecting version
	// made, without materializing the candidate list. A view that tracks
	// its faulty count (liveView) skips the counting pass, and — in the
	// all-live case, which is every draw of a fault-free run — the walk
	// too: the k-th live processor of an all-live machine is processor k.
	live, counted := 0, false
	if lv, ok := v.(liveView); ok {
		live, counted = n-lv.FaultyCount(), true
	} else {
		for i := 0; i < n; i++ {
			if !v.IsFaulty(proto.ProcID(i)) {
				live++
			}
		}
	}
	if live <= 0 {
		return v.Self()
	}
	k := v.Rand().Intn(live)
	if counted && live == n {
		return proto.ProcID(k)
	}
	for i := 0; i < n; i++ {
		if p := proto.ProcID(i); !v.IsFaulty(p) {
			if k == 0 {
				return p
			}
			k--
		}
	}
	return v.Self()
}

func (r *Random) Step(v View, _ int) proto.ProcID { return r.PickDest(v, proto.TaskKey{}) }

// --- StaticHash ---

// StaticHash places each task on hash(stamp) mod N — the static allocation
// §3.3 warns about: placement is a pure function of task identity, so after
// a failure the hash slot of the dead processor must be re-mapped and
// descendants' linkage updated, which the machine counts as fix-up traffic.
type StaticHash struct{}

// NewStaticHash returns the static-hash policy.
func NewStaticHash() *StaticHash { return &StaticHash{} }

func (*StaticHash) Name() string { return "static" }
func (*StaticHash) Mode() Mode   { return Direct }

func (*StaticHash) PickDest(v View, key proto.TaskKey) proto.ProcID {
	n := v.Size()
	h := fnv.New32a()
	h.Write([]byte(key.Stamp.Key()))
	var repBuf [8]byte
	for i := 0; i < 8; i++ {
		repBuf[i] = byte(key.Rep >> (8 * i))
	}
	h.Write(repBuf[:])
	slot := int(h.Sum32()) % n
	if slot < 0 {
		slot += n
	}
	// Deterministic linear probing past faulty processors: this is the
	// "reassignment" §3.3 describes for static allocation after a failure.
	for i := 0; i < n; i++ {
		p := proto.ProcID((slot + i) % n)
		if !v.IsFaulty(p) {
			return p
		}
	}
	return v.Self()
}

func (s *StaticHash) Step(v View, _ int) proto.ProcID { return s.PickDest(v, proto.TaskKey{}) }

// --- Gradient ---

// Gradient is the demand-driven gradient model of Lin & Keller [10]: idle
// processors are gradient 0; every other processor's gradient is one more
// than its nearest neighbor's, so the gradient field encodes the hop
// distance toward the nearest idle processor. Overloaded processors push
// spawned tasks down the gradient, one hop at a time; packets settle when
// they reach lightly loaded territory or exhaust their hop budget.
type Gradient struct{}

// The gradient model's parameters.
const (
	// gradientIdle: queue length at or below which a processor is idle
	// (gradient 0).
	gradientIdle = 0
	// gradientSettle: queue length at or below which an in-transit packet
	// settles here instead of forwarding.
	gradientSettle = 1
	// gradientTTL: maximum hops a packet may travel before settling
	// unconditionally (prevents livelock when the gradient field is stale).
	gradientTTL = 8
)

// NewGradient returns the gradient policy.
func NewGradient() *Gradient { return &Gradient{} }

func (*Gradient) Name() string {
	return fmt.Sprintf("gradient(idle≤%d,settle≤%d,ttl=%d)", gradientIdle, gradientSettle, gradientTTL)
}

func (*Gradient) Mode() Mode { return HopByHop }

// PickDest in direct mode is unused for gradient; it settles locally.
func (*Gradient) PickDest(v View, _ proto.TaskKey) proto.ProcID { return v.Self() }

// Step implements the hop-by-hop push: settle if local load is light, the
// hop budget is spent, or no live neighbor is closer to an idle processor;
// otherwise forward to the neighbor with the smallest gradient (ties to the
// lowest id, for determinism).
func (g *Gradient) Step(v View, hops int) proto.ProcID {
	if hops >= gradientTTL {
		return v.Self()
	}
	if v.QueueLen() <= gradientSettle {
		return v.Self()
	}
	self := v.Self()
	myG := g.LocalGradient(v)
	best := self
	bestG := myG
	for _, nb := range v.Neighbors() {
		if v.IsFaulty(nb) {
			continue
		}
		if ng := v.NeighborGradient(nb); ng < bestG {
			best, bestG = nb, ng
		}
	}
	return best
}

// LocalGradient computes this processor's gradient value from its queue and
// its neighbors' gossiped gradients. The machine gossips the result to
// neighbors whenever it changes.
func (*Gradient) LocalGradient(v View) int {
	if v.QueueLen() <= gradientIdle {
		return 0
	}
	minNb := MaxGradient
	for _, nb := range v.Neighbors() {
		if v.IsFaulty(nb) {
			continue
		}
		if ng := v.NeighborGradient(nb); ng < minNb {
			minNb = ng
		}
	}
	if minNb >= MaxGradient {
		return MaxGradient
	}
	return minNb + 1
}

// --- Pinned ---

// Pinned maps specific level stamps to specific processors, falling back to
// another policy for unmapped tasks. It exists to reproduce the paper's
// figures exactly: Figure 1 prescribes which task runs on which processor.
type Pinned struct {
	// Map keys are stamp.Stamp.Key() values.
	Map map[string]proto.ProcID
	// Fallback handles unmapped tasks; defaults to Random.
	Fallback Policy
}

// NewPinned builds a pinned policy over stamp-key → processor assignments.
func NewPinned(m map[string]proto.ProcID, fallback Policy) *Pinned {
	if fallback == nil {
		fallback = NewRandom()
	}
	return &Pinned{Map: m, Fallback: fallback}
}

func (*Pinned) Name() string { return "pinned" }
func (*Pinned) Mode() Mode   { return Direct }

func (p *Pinned) PickDest(v View, key proto.TaskKey) proto.ProcID {
	if dest, ok := p.Map[key.Stamp.Key()]; ok && !v.IsFaulty(dest) {
		return dest
	}
	return p.Fallback.PickDest(v, key)
}

func (p *Pinned) Step(v View, hops int) proto.ProcID { return p.Fallback.Step(v, hops) }

// ByName constructs a policy from a CLI spec: "local", "random", "static",
// "gradient".
func ByName(name string) (Policy, error) {
	switch name {
	case "local":
		return NewLocal(), nil
	case "random":
		return NewRandom(), nil
	case "static":
		return NewStaticHash(), nil
	case "gradient":
		return NewGradient(), nil
	default:
		return nil, fmt.Errorf("balance: unknown policy %q", name)
	}
}
