package faults

import (
	"math/rand"
	"sort"

	"repro/internal/proto"
	"repro/internal/topology"
)

// This file holds the composable stress-plan builders. The bundled 1986
// scenarios only ever crash one or two hand-picked processors; the builders
// generate the regimes HEAL-style evaluations care about — simultaneous
// multi-node loss (Burst), failures that spread along the interconnect
// (Cascade), and the loss of a whole physical region (Correlated). Every
// builder is a pure function of its arguments, so plans are reproducible
// under a seed and safe to fan out across the runner's worker pool. Builders
// return fresh plans; compose them with Merge or Add.

// Burst returns a plan that crashes k distinct processors, drawn uniformly
// without replacement from [0, n), all at time at. The draw is a pure
// function of seed. k is clamped to n.
func Burst(n, k int, at int64, kind Kind, seed int64) *Plan {
	if n <= 0 || k <= 0 {
		return None()
	}
	if k > n {
		k = n
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	p := None()
	for _, proc := range perm[:k] {
		p.Add(Fault{At: at, Proc: proto.ProcID(proc), Kind: kind})
	}
	return p
}

// Cascade returns a plan that models a failure spreading along the
// interconnect: the origin crashes at time at (wave 0), and each subsequent
// wave crashes the not-yet-failed topology neighbors of the previous wave
// delay ticks later, for waves additional waves. spread is the independent
// probability that a candidate neighbor joins the next wave (1 ⇒ the full
// BFS frontier, i.e. wave w is exactly the nodes at hop distance w); the
// coin flips are a pure function of seed and the visit order (ascending
// node id per wave), so a (topo, origin, seed) triple always yields the
// same plan.
func Cascade(topo topology.Topology, origin proto.ProcID, at, delay int64, waves int, spread float64, kind Kind, seed int64) *Plan {
	p := None()
	n := topo.Size()
	if int(origin) < 0 || int(origin) >= n {
		return p
	}
	rng := rand.New(rand.NewSource(seed))
	failed := make([]bool, n)
	failed[origin] = true
	p.Add(Fault{At: at, Proc: origin, Kind: kind})
	frontier := []topology.NodeID{topology.NodeID(origin)}
	for w := 1; w <= waves && len(frontier) > 0; w++ {
		// Collect the wave's distinct candidates in ascending id order so
		// the rng consumption order is deterministic.
		candidate := make([]bool, n)
		for _, u := range frontier {
			for _, v := range topo.Neighbors(u) {
				if !failed[v] {
					candidate[v] = true
				}
			}
		}
		var next []topology.NodeID
		for v := 0; v < n; v++ {
			if !candidate[v] {
				continue
			}
			if spread < 1 && rng.Float64() >= spread {
				continue
			}
			failed[v] = true
			next = append(next, topology.NodeID(v))
			p.Add(Fault{At: at + int64(w)*delay, Proc: proto.ProcID(v), Kind: kind})
		}
		frontier = next
	}
	return p
}

// Correlated returns a plan that crashes every processor within radius hops
// of center at time at — the loss of a physical region (a board, a rack, a
// power domain) whose members are adjacent in the interconnect. Radius 0 is
// just the center; a radius at least the diameter is the whole machine.
func Correlated(topo topology.Topology, center proto.ProcID, radius int, at int64, kind Kind) *Plan {
	p := None()
	n := topo.Size()
	if int(center) < 0 || int(center) >= n || radius < 0 {
		return p
	}
	for v := 0; v < n; v++ {
		if topo.Dist(topology.NodeID(center), topology.NodeID(v)) <= radius {
			p.Add(Fault{At: at, Proc: proto.ProcID(v), Kind: kind})
		}
	}
	return p
}

// Merge appends every fault of other (composing independently built plans)
// and returns the receiver for chaining. Duplicate faults of one processor
// are allowed — the machine ignores faults injected after death — so merged
// regions may overlap.
func (p *Plan) Merge(other *Plan) *Plan {
	if other != nil {
		p.Faults = append(p.Faults, other.Faults...)
	}
	return p
}

// Procs returns the distinct processors the plan faults, ascending.
func (p *Plan) Procs() []proto.ProcID {
	seen := map[proto.ProcID]bool{}
	var out []proto.ProcID
	for _, f := range p.Faults {
		if !seen[f.Proc] {
			seen[f.Proc] = true
			out = append(out, f.Proc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
