package topology

import (
	"reflect"
	"testing"
)

// generatedTopologies builds one instance of every generator-backed shape;
// the generic invariants (symmetry, shortest-path walks, self-distance) run
// over them via the checks below, mirroring topology_test.go's suite.
func generatedTopologies(t *testing.T) map[string]Topology {
	t.Helper()
	out := map[string]Topology{}
	var err error
	if out["torus3x4"], err = Torus(3, 4); err != nil {
		t.Fatal(err)
	}
	if out["torus2x2"], err = Torus(2, 2); err != nil {
		t.Fatal(err)
	}
	if out["torus1x6"], err = Torus(1, 6); err != nil {
		t.Fatal(err)
	}
	if out["torus8x8"], err = Torus(8, 8); err != nil {
		t.Fatal(err)
	}
	if out["btree15"], err = BinaryTree(15); err != nil {
		t.Fatal(err)
	}
	if out["btree64"], err = BinaryTree(64); err != nil {
		t.Fatal(err)
	}
	if out["regular12"], err = RandomRegular(12, 4, 7); err != nil {
		t.Fatal(err)
	}
	if out["regular64"], err = RandomRegular(64, 4, 1); err != nil {
		t.Fatal(err)
	}
	if out["cube6"], err = Hypercube(6); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGeneratorsRejectBadSizes(t *testing.T) {
	if _, err := Torus(1, 1); err == nil {
		t.Error("Torus(1,1) accepted")
	}
	if _, err := Torus(0, 5); err == nil {
		t.Error("Torus(0,5) accepted")
	}
	if _, err := BinaryTree(1); err == nil {
		t.Error("BinaryTree(1) accepted")
	}
	if _, err := RandomRegular(1, 1, 1); err == nil {
		t.Error("RandomRegular(1,1) accepted")
	}
	if _, err := RandomRegular(8, 0, 1); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := RandomRegular(8, 8, 1); err == nil {
		t.Error("degree n accepted")
	}
	if _, err := RandomRegular(5, 3, 1); err == nil {
		t.Error("odd n·degree accepted")
	}
	if _, err := RandomRegular(6, 1, 1); err == nil {
		t.Error("disconnected 1-regular graph accepted")
	}
}

// TestGeneratedInvariants runs the structural invariants every topology
// must satisfy: no self-edges, sorted symmetric neighbor lists, and Dist the
// shortest-path metric of those lists.
func TestGeneratedInvariants(t *testing.T) {
	for name, topo := range generatedTopologies(t) {
		n := topo.Size()
		for i := 0; i < n; i++ {
			id := NodeID(i)
			nb := topo.Neighbors(id)
			for k, v := range nb {
				if v == id {
					t.Errorf("%s: node %d lists itself", name, i)
				}
				if k > 0 && nb[k-1] >= v {
					t.Errorf("%s: node %d neighbors not strictly ascending: %v", name, i, nb)
				}
				found := false
				for _, back := range topo.Neighbors(v) {
					if back == id {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: edge %d->%d not symmetric", name, i, v)
				}
			}
		}
		checkDist(t, name, topo)
	}
}

func TestTorusStructure(t *testing.T) {
	// Interior degree is 4 everywhere on a ≥3×3 torus, and wraparound makes
	// opposite edges adjacent.
	torus, err := Torus(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < torus.Size(); i++ {
		if got := len(torus.Neighbors(NodeID(i))); got != 4 {
			t.Errorf("torus node %d degree = %d, want 4", i, got)
		}
	}
	if d := torus.Dist(0, 4); d != 1 { // (0,0) to (0,4): wrap left
		t.Errorf("torus Dist(0,4) = %d, want 1", d)
	}
	if d := torus.Dist(0, 15); d != 1 { // (0,0) to (3,0): wrap up
		t.Errorf("torus Dist(0,15) = %d, want 1", d)
	}
	// A 1×n torus degenerates to a ring.
	line, err := Torus(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if d := line.Dist(0, 5); d != 1 {
		t.Errorf("1x6 torus Dist(0,5) = %d, want 1 (ring wrap)", d)
	}
	// A 2-row torus must not duplicate the up/down edge.
	two, err := Torus(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(two.Neighbors(0)); got != 3 {
		t.Errorf("2x3 torus node 0 degree = %d, want 3 (deduped wrap)", got)
	}
}

// TestTorusDistIsWrappedManhattan checks the closed form: per-axis distance
// is min(|Δ|, extent-|Δ|).
func TestTorusDistIsWrappedManhattan(t *testing.T) {
	rows, cols := 5, 7
	torus, err := Torus(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	wrap := func(d, n int) int {
		if d < 0 {
			d = -d
		}
		if n-d < d {
			return n - d
		}
		return d
	}
	for a := 0; a < rows*cols; a++ {
		for b := 0; b < rows*cols; b++ {
			want := wrap(a/cols-b/cols, rows) + wrap(a%cols-b%cols, cols)
			if got := torus.Dist(NodeID(a), NodeID(b)); got != want {
				t.Fatalf("torus Dist(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestBinaryTreeStructure(t *testing.T) {
	bt, err := BinaryTree(15)
	if err != nil {
		t.Fatal(err)
	}
	// Root has two children; depth of node 14 is 3.
	if got := len(bt.Neighbors(0)); got != 2 {
		t.Errorf("btree root degree = %d, want 2", got)
	}
	if d := bt.Dist(0, 14); d != 3 {
		t.Errorf("btree Dist(0,14) = %d, want 3", d)
	}
	// Leaves in different subtrees route through the root: 7 is leftmost
	// leaf (depth 3), 14 rightmost; distance is 3+3.
	if d := bt.Dist(7, 14); d != 6 {
		t.Errorf("btree Dist(7,14) = %d, want 6", d)
	}
	// Every path between the two root subtrees crosses the root.
	if d := bt.Dist(1, 2); d != 2 {
		t.Errorf("btree Dist(1,2) = %d, want 2", d)
	}
}

func TestRandomRegularDegreeAndDeterminism(t *testing.T) {
	const n, degree = 24, 4
	a, err := RandomRegular(n, degree, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := len(a.Neighbors(NodeID(i))); got != degree {
			t.Errorf("node %d degree = %d, want %d", i, got, degree)
		}
	}
	// Same seed, same graph.
	b, err := RandomRegular(n, degree, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(a.Neighbors(NodeID(i)), b.Neighbors(NodeID(i))) {
			t.Fatalf("seed 42 not deterministic at node %d: %v vs %v",
				i, a.Neighbors(NodeID(i)), b.Neighbors(NodeID(i)))
		}
	}
	// Different seeds should (overwhelmingly) differ somewhere.
	c, err := RandomRegular(n, degree, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(a.Neighbors(NodeID(i)), c.Neighbors(NodeID(i))) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical graphs")
	}
}

// TestRandomRegularManySeeds exercises the rejection loop: every seed must
// yield a valid connected regular graph (build rejects disconnection).
func TestRandomRegularManySeeds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		topo, err := RandomRegular(16, 3, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < topo.Size(); i++ {
			if len(topo.Neighbors(NodeID(i))) != 3 {
				t.Fatalf("seed %d: node %d degree %d", seed, i, len(topo.Neighbors(NodeID(i))))
			}
		}
	}
}

// TestHypercube64 validates the dim-6 cube the stress scenarios run on.
func TestHypercube64(t *testing.T) {
	cube, err := Hypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	if cube.Size() != 64 {
		t.Fatalf("Size = %d, want 64", cube.Size())
	}
	for i := 0; i < 64; i++ {
		if got := len(cube.Neighbors(NodeID(i))); got != 6 {
			t.Errorf("node %d degree = %d, want 6", i, got)
		}
	}
	if d := cube.Dist(0, 63); d != 6 {
		t.Errorf("Dist(0,63) = %d, want 6", d)
	}
}

func TestByNameGeneratedKinds(t *testing.T) {
	cases := []struct {
		kind string
		n    int
		size int
	}{
		{"torus", 12, 12},
		{"torus", 64, 64},
		{"tree", 10, 10},
		{"regular", 12, 12},
		{"regular", 3, 3}, // degree capped at n-1
	}
	for _, tc := range cases {
		topo, err := ByName(tc.kind, tc.n)
		if err != nil {
			t.Errorf("ByName(%q,%d): %v", tc.kind, tc.n, err)
			continue
		}
		if topo.Size() != tc.size {
			t.Errorf("ByName(%q,%d) size = %d, want %d", tc.kind, tc.n, topo.Size(), tc.size)
		}
	}
	// ByName("regular", n) is reproducible: it pins seed and degree.
	a, err := ByName("regular", 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("regular", 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if !reflect.DeepEqual(a.Neighbors(NodeID(i)), b.Neighbors(NodeID(i))) {
			t.Fatal("ByName regular not reproducible")
		}
	}
}

// TestKindsAllConstructible checks every advertised kind builds at a
// power-of-two size (so hypercube is satisfiable too).
func TestKindsAllConstructible(t *testing.T) {
	for _, kind := range Kinds() {
		topo, err := ByName(kind, 16)
		if err != nil {
			t.Errorf("ByName(%q,16): %v", kind, err)
			continue
		}
		if topo.Size() != 16 {
			t.Errorf("%s size = %d", kind, topo.Size())
		}
	}
}
