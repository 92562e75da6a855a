package workload_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/workload"
)

func TestUniformShape(t *testing.T) {
	s := workload.Uniform(2, 3, 5)
	prog, root, err := workload.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect binary tree of depth 3: 8 leaves, each evaluating to 1.
	v, err := lang.RefEval(prog, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(expr.VInt(8)) {
		t.Fatalf("uniform(2,3) = %v, want 8", v)
	}
}

func TestSkewedShape(t *testing.T) {
	s := workload.Skewed(3, 4, 2)
	prog, root, err := workload.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := lang.RefEval(prog, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Spine: at each of 4 levels, child 0 recurses (width 3) and children
	// 1,2 are leaves; the deepest child 0 is a leaf. Leaves all evaluate
	// to 1, so the sum is the leaf count.
	vi, ok := v.(expr.VInt)
	if !ok || vi < 4 {
		t.Fatalf("skewed sum = %v", v)
	}
}

func TestRandomShapeDeterministic(t *testing.T) {
	a := workload.Random(99, 3, 4, 40)
	b := workload.Random(99, 3, 4, 40)
	pa, ra, err := workload.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, rb, err := workload.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	va, err := lang.RefEval(pa, ra, nil)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := lang.RefEval(pb, rb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !va.Equal(vb) {
		t.Fatalf("same seed, different trees: %v vs %v", va, vb)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, _, err := workload.Build(workload.Shape{Depth: 0}); err == nil {
		t.Error("zero depth accepted")
	}
}

func TestShapesRunOnMachineWithFaults(t *testing.T) {
	shapes := []workload.Shape{
		workload.Uniform(3, 4, 10),
		workload.Skewed(4, 6, 30),
		workload.Random(7, 3, 5, 50),
	}
	for _, s := range shapes {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			prog, root, err := workload.Build(s)
			if err != nil {
				t.Fatal(err)
			}
			w := core.Workload{Program: prog, Fn: root}
			for _, scheme := range []string{"rollback", "splice"} {
				cfg := core.Config{Procs: 8, Recovery: scheme, Seed: 13}
				base, err := cfg.Verify(w, nil)
				if err != nil {
					t.Fatalf("%s fault-free: %v", scheme, err)
				}
				at := int64(base.Makespan) / 2
				if _, err := cfg.Verify(w, core.CrashPlan(2, at, true)); err != nil {
					t.Fatalf("%s with fault: %v", scheme, err)
				}
			}
		})
	}
}
