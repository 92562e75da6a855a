package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func allTopologies(t *testing.T) map[string]Topology {
	t.Helper()
	out := map[string]Topology{}
	var err error
	if out["ring8"], err = Ring(8); err != nil {
		t.Fatal(err)
	}
	if out["ring2"], err = Ring(2); err != nil {
		t.Fatal(err)
	}
	if out["mesh3x4"], err = Mesh2D(3, 4); err != nil {
		t.Fatal(err)
	}
	if out["mesh1x5"], err = Mesh2D(1, 5); err != nil {
		t.Fatal(err)
	}
	if out["cube3"], err = Hypercube(3); err != nil {
		t.Fatal(err)
	}
	if out["complete6"], err = Complete(6); err != nil {
		t.Fatal(err)
	}
	if out["star7"], err = Star(7); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestConstructorsRejectBadSizes(t *testing.T) {
	if _, err := Ring(1); err == nil {
		t.Error("Ring(1) accepted")
	}
	if _, err := Mesh2D(1, 1); err == nil {
		t.Error("Mesh2D(1,1) accepted")
	}
	if _, err := Mesh2D(0, 5); err == nil {
		t.Error("Mesh2D(0,5) accepted")
	}
	if _, err := Hypercube(0); err == nil {
		t.Error("Hypercube(0) accepted")
	}
	if _, err := Hypercube(20); err == nil {
		t.Error("Hypercube(20) accepted")
	}
	if _, err := Complete(1); err == nil {
		t.Error("Complete(1) accepted")
	}
	if _, err := Star(1); err == nil {
		t.Error("Star(1) accepted")
	}
}

func TestSizes(t *testing.T) {
	want := map[string]int{
		"ring8": 8, "ring2": 2, "mesh3x4": 12, "mesh1x5": 5,
		"cube3": 8, "complete6": 6, "star7": 7,
	}
	for name, topo := range allTopologies(t) {
		if topo.Size() != want[name] {
			t.Errorf("%s Size = %d, want %d", name, topo.Size(), want[name])
		}
	}
}

func TestNeighborsSymmetricSortedNoSelf(t *testing.T) {
	for name, topo := range allTopologies(t) {
		n := topo.Size()
		for i := 0; i < n; i++ {
			id := NodeID(i)
			nb := topo.Neighbors(id)
			for k, v := range nb {
				if v == id {
					t.Errorf("%s: node %d lists itself as neighbor", name, i)
				}
				if k > 0 && nb[k-1] >= v {
					t.Errorf("%s: node %d neighbors not strictly ascending: %v", name, i, nb)
				}
				// Symmetry.
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
	}
}

func TestKnownDistances(t *testing.T) {
	ring8, _ := Ring(8)
	if d := ring8.Dist(0, 4); d != 4 {
		t.Errorf("ring8 Dist(0,4) = %d, want 4", d)
	}
	if d := ring8.Dist(0, 7); d != 1 {
		t.Errorf("ring8 Dist(0,7) = %d, want 1", d)
	}
	mesh, _ := Mesh2D(3, 4)
	if d := mesh.Dist(0, 11); d != 5 { // (0,0) to (2,3): 2+3
		t.Errorf("mesh Dist(0,11) = %d, want 5", d)
	}
	cube, _ := Hypercube(4)
	if d := cube.Dist(0b0000, 0b1111); d != 4 {
		t.Errorf("cube Dist(0,15) = %d, want 4", d)
	}
	if d := cube.Dist(0b0101, 0b0100); d != 1 {
		t.Errorf("cube Dist(5,4) = %d, want 1", d)
	}
	comp, _ := Complete(6)
	if d := comp.Dist(2, 5); d != 1 {
		t.Errorf("complete Dist = %d, want 1", d)
	}
	star, _ := Star(7)
	if d := star.Dist(1, 2); d != 2 {
		t.Errorf("star Dist(1,2) = %d, want 2", d)
	}
	if d := star.Dist(0, 3); d != 1 {
		t.Errorf("star Dist(0,3) = %d, want 1", d)
	}
}

// checkDist checks that Dist is the graph's shortest-path metric — zero on
// the diagonal, symmetric, and off it exactly one more than the nearest
// neighbor's, which only BFS distance satisfies — and that Dists is the
// same table.
func checkDist(t *testing.T, name string, topo Topology) {
	t.Helper()
	n := topo.Size()
	flat := Dists(topo)
	if len(flat) != n*n {
		t.Fatalf("%s: Dists has %d entries, want %d", name, len(flat), n*n)
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			src, dst := NodeID(s), NodeID(d)
			got := topo.Dist(src, dst)
			if int(flat[s*n+d]) != got {
				t.Fatalf("%s: Dists[%d,%d] = %d, Dist says %d", name, s, d, flat[s*n+d], got)
			}
			if got != topo.Dist(dst, src) {
				t.Fatalf("%s: Dist(%d,%d) asymmetric", name, s, d)
			}
			want := 0
			if s != d {
				want = n
				for _, nb := range topo.Neighbors(src) {
					want = min(want, topo.Dist(nb, dst)+1)
				}
			}
			if got != want {
				t.Fatalf("%s: Dist(%d,%d) = %d, nearest neighbor says %d", name, s, d, got, want)
			}
		}
	}
}

func TestDistIsShortestPath(t *testing.T) {
	for name, topo := range allTopologies(t) {
		checkDist(t, name, topo)
	}
}

func TestByName(t *testing.T) {
	cases := []struct {
		kind string
		n    int
		ok   bool
		size int
	}{
		{"ring", 6, true, 6},
		{"mesh", 12, true, 12},
		{"mesh", 7, true, 7}, // prime: 1x7 mesh
		{"hypercube", 8, true, 8},
		{"hypercube", 6, false, 0},
		{"complete", 5, true, 5},
		{"star", 5, true, 5},
		{"nosuch", 4, false, 0},
	}
	for _, tc := range cases {
		topo, err := ByName(tc.kind, tc.n)
		if tc.ok != (err == nil) {
			t.Errorf("ByName(%q,%d) err = %v, want ok=%v", tc.kind, tc.n, err, tc.ok)
			continue
		}
		if tc.ok && topo.Size() != tc.size {
			t.Errorf("ByName(%q,%d) size = %d", tc.kind, tc.n, topo.Size())
		}
	}
}

func TestQuickDistTriangleInequality(t *testing.T) {
	mesh, err := Mesh2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	f := func() bool {
		a := NodeID(r.Intn(16))
		b := NodeID(r.Intn(16))
		c := NodeID(r.Intn(16))
		return mesh.Dist(a, c) <= mesh.Dist(a, b)+mesh.Dist(b, c) &&
			mesh.Dist(a, b) == mesh.Dist(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMeshDistIsManhattan(t *testing.T) {
	rows, cols := 5, 7
	mesh, err := Mesh2D(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < rows*cols; a++ {
		for b := 0; b < rows*cols; b++ {
			ar, ac := a/cols, a%cols
			br, bc := b/cols, b%cols
			want := absInt(ar-br) + absInt(ac-bc)
			if got := mesh.Dist(NodeID(a), NodeID(b)); got != want {
				t.Fatalf("mesh Dist(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestHypercubeDistIsHamming(t *testing.T) {
	cube, err := Hypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 32; a++ {
		for b := 0; b < 32; b++ {
			want := popcount(a ^ b)
			if got := cube.Dist(NodeID(a), NodeID(b)); got != want {
				t.Fatalf("cube Dist(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
