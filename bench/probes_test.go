package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
)

// The sequential Flatten/Resume driver behind lang.*.ns_per_step must compute
// what the reference evaluator computes, in the same number of steps under
// either evaluator — otherwise ns/step divides by the wrong count.
func TestDriveMatchesRefEval(t *testing.T) {
	for _, spec := range append(append([]string{}, denseSpecs...), streamMix...) {
		w, err := core.StandardWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lang.RefEval(w.Program, w.Fn, w.Args)
		if err != nil {
			t.Fatal(err)
		}
		steps := map[string]int{}
		for _, name := range lang.Evaluators() {
			ev, err := lang.EvaluatorByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ep, err := ev.Compile(w.Program)
			if err != nil {
				t.Fatal(err)
			}
			got, n, err := drive(ep, w.Fn, w.Args)
			if err != nil {
				t.Fatalf("%s under %s: %v", spec, name, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s under %s: driver answered %v, RefEval %v", spec, name, got, want)
			}
			steps[name] = n
		}
		if steps["interp"] != steps["compiled"] || steps["interp"] == 0 {
			t.Errorf("%s: step counts %v differ between evaluators", spec, steps)
		}
	}
}
