// Package topology models the interconnection network shapes of the
// simulated multiprocessor. The paper assumes "a processor makes its best
// effort to communicate with a destination node" over an interconnection
// network (§1); the recovery protocols are topology-agnostic, but message
// cost (hop count) and the gradient-model load balancer (§3.3) both need
// neighbor structure and routing.
//
// Two families are provided. The regular shapes of the 1986 experiments —
// Ring, Mesh2D, Hypercube (validated to dimension 6, 64 processors),
// Complete, Star — and generator-backed irregular shapes for the stress
// scenarios: Torus (wraparound mesh), BinaryTree (every internal node a cut
// vertex), and RandomRegular (a seeded configuration-model sample, so runs
// sharing a seed share the graph). All of them precompute one BFS distance
// table at construction; ByName maps CLI spec strings to constructors so
// every experiment can name any shape.
package topology

import (
	"fmt"
	"math/bits"
	"sync"
)

// NodeID identifies a processor in the topology, 0-based.
type NodeID int32

// Topology describes an undirected connected network of N nodes.
type Topology interface {
	// Size returns the number of nodes.
	Size() int
	// Neighbors returns the direct neighbors of id in ascending order.
	// The returned slice must not be modified.
	Neighbors(id NodeID) []NodeID
	// Dist returns the shortest-path hop count between two nodes.
	Dist(from, to NodeID) int
	// Name returns a short human-readable description.
	Name() string
}

// table is a generic precomputed-BFS implementation backing every concrete
// topology. For the machine sizes the simulator targets (≤ a few thousand
// nodes), one O(N²) table is cheap and makes Dist O(1).
type table struct {
	name      string
	neighbors [][]NodeID
	dist      []int32 // row-major: dist[from*N+to]
}

func (t *table) Size() int                    { return len(t.neighbors) }
func (t *table) Neighbors(id NodeID) []NodeID { return t.neighbors[id] }
func (t *table) Name() string                 { return t.name }

func (t *table) Dist(from, to NodeID) int {
	return int(t.dist[int(from)*len(t.neighbors)+int(to)])
}

// Dists returns t's all-pairs hop counts as one row-major Size()×Size()
// table: Dists(t)[from*t.Size()+to] == t.Dist(from, to). The slice is the
// topology's own and must not be modified.
func Dists(t Topology) []int32 { return t.(*table).dist }

// build precomputes the BFS distance table from an adjacency list. It
// returns an error if the graph is disconnected.
func build(name string, adj [][]NodeID) (Topology, error) {
	n := len(adj)
	t := &table{name: name, neighbors: adj, dist: make([]int32, n*n)}
	for i := range t.dist {
		t.dist[i] = -1
	}
	queue := make([]NodeID, 0, n)
	for src := 0; src < n; src++ {
		dist := t.dist[src*n : (src+1)*n]
		dist[src] = 0
		queue = append(queue[:0], NodeID(src))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for i, d := range dist {
			if d < 0 {
				return nil, fmt.Errorf("topology %s: node %d unreachable from %d", name, i, src)
			}
		}
	}
	return t, nil
}

// Ring returns a bidirectional ring of n nodes (n ≥ 2).
func Ring(n int) (Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: ring needs ≥ 2 nodes, got %d", n)
	}
	adj := make([][]NodeID, n)
	for i := 0; i < n; i++ {
		prev := NodeID((i - 1 + n) % n)
		next := NodeID((i + 1) % n)
		if prev == next { // n == 2
			adj[i] = []NodeID{prev}
		} else if prev < next {
			adj[i] = []NodeID{prev, next}
		} else {
			adj[i] = []NodeID{next, prev}
		}
	}
	return build(fmt.Sprintf("ring(%d)", n), adj)
}

// Mesh2D returns a rows×cols grid (no wraparound), row-major node ids.
func Mesh2D(rows, cols int) (Topology, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("topology: mesh needs ≥ 2 nodes, got %dx%d", rows, cols)
	}
	n := rows * cols
	adj := make([][]NodeID, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			var nb []NodeID
			if r > 0 {
				nb = append(nb, NodeID(id-cols))
			}
			if c > 0 {
				nb = append(nb, NodeID(id-1))
			}
			if c < cols-1 {
				nb = append(nb, NodeID(id+1))
			}
			if r < rows-1 {
				nb = append(nb, NodeID(id+cols))
			}
			adj[id] = nb
		}
	}
	return build(fmt.Sprintf("mesh(%dx%d)", rows, cols), adj)
}

// Hypercube returns a d-dimensional binary hypercube with 2^d nodes.
func Hypercube(dim int) (Topology, error) {
	if dim < 1 || dim > 16 {
		return nil, fmt.Errorf("topology: hypercube dimension %d out of range [1,16]", dim)
	}
	n := 1 << dim
	adj := make([][]NodeID, n)
	for i := 0; i < n; i++ {
		nb := make([]NodeID, dim)
		for b := 0; b < dim; b++ {
			nb[b] = NodeID(i ^ (1 << b))
		}
		sortNodeIDs(nb)
		adj[i] = nb
	}
	return build(fmt.Sprintf("hypercube(%d)", dim), adj)
}

// Complete returns a fully connected network of n nodes.
func Complete(n int) (Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: complete graph needs ≥ 2 nodes, got %d", n)
	}
	adj := make([][]NodeID, n)
	for i := 0; i < n; i++ {
		nb := make([]NodeID, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				nb = append(nb, NodeID(j))
			}
		}
		adj[i] = nb
	}
	return build(fmt.Sprintf("complete(%d)", n), adj)
}

// Star returns a star with node 0 at the center and n-1 leaves.
func Star(n int) (Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: star needs ≥ 2 nodes, got %d", n)
	}
	adj := make([][]NodeID, n)
	center := make([]NodeID, 0, n-1)
	for i := 1; i < n; i++ {
		center = append(center, NodeID(i))
		adj[i] = []NodeID{0}
	}
	adj[0] = center
	return build(fmt.Sprintf("star(%d)", n), adj)
}

// DefaultRegularSeed fixes the graph ByName("regular", n) samples, so every
// caller that names the kind gets the same (reproducible) irregular network.
// Callers that want a different sample use RandomRegular directly.
const DefaultRegularSeed = 1

// DefaultRegularDegree is the target degree for ByName("regular", n): 4,
// matching the torus/mesh interior degree so the kinds compare like for
// like, capped at n-1 on tiny networks.
func DefaultRegularDegree(n int) int {
	if n <= 4 {
		return n - 1
	}
	return 4
}

// Kinds lists the spec strings ByName accepts, in the order the topology
// sweep experiments report them.
func Kinds() []string {
	return []string{"mesh", "torus", "ring", "hypercube", "tree", "regular", "star", "complete"}
}

// byNameCache memoizes ByName: every named topology is deterministic in
// (kind, n) and a built table is immutable (all methods are reads; the
// Neighbors contract already forbids mutation), so sweeps that rebuild the
// same machine shape per cell share one BFS table instead of recomputing
// O(N²) routes per run.
var byNameCache sync.Map // byNameKey -> Topology

type byNameKey struct {
	kind string
	n    int
}

// ByName constructs a topology from a short spec string, used by CLIs and
// core.Config: "ring", "mesh", "torus", "hypercube", "tree" (complete binary
// tree), "regular" (seeded random 4-regular graph), "complete", "star".
// Mesh and torus pick the most square factorization of n; hypercube requires
// n to be a power of two; "regular" samples with DefaultRegularSeed and
// DefaultRegularDegree so the graph is reproducible across runs.
// Results are cached: callers share one immutable instance per (kind, n).
func ByName(kind string, n int) (Topology, error) {
	key := byNameKey{kind: kind, n: n}
	if v, ok := byNameCache.Load(key); ok {
		return v.(Topology), nil
	}
	t, err := byName(kind, n)
	if err != nil {
		return nil, err
	}
	byNameCache.Store(key, t)
	return t, nil
}

func byName(kind string, n int) (Topology, error) {
	switch kind {
	case "ring":
		return Ring(n)
	case "mesh":
		r, c := squarest(n)
		return Mesh2D(r, c)
	case "torus":
		r, c := squarest(n)
		return Torus(r, c)
	case "hypercube":
		if n <= 0 || n&(n-1) != 0 {
			return nil, fmt.Errorf("topology: hypercube size %d is not a power of two", n)
		}
		return Hypercube(bits.TrailingZeros(uint(n)))
	case "tree":
		return BinaryTree(n)
	case "regular":
		return RandomRegular(n, DefaultRegularDegree(n), DefaultRegularSeed)
	case "complete":
		return Complete(n)
	case "star":
		return Star(n)
	default:
		return nil, fmt.Errorf("topology: unknown kind %q", kind)
	}
}

// squarest factors n into rows×cols with rows ≤ cols and rows maximal.
func squarest(n int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return rows, n / rows
}

func sortNodeIDs(ids []NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}
