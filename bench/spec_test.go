package main

import (
	"slices"
	"strings"
	"testing"
)

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecDeclaresTheWorkloadsInCode(t *testing.T) {
	spec := loadRepoSpec(t)
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Errorf("%s declares %v, the code runs %v", specFile, declared, workloadNames)
	}
	if _, err := newInstance("no-such-workload", 1); err == nil {
		t.Error("an unknown workload name was accepted")
	}
}

func TestCheck(t *testing.T) {
	spec := loadRepoSpec(t)
	good := func() *runFile {
		rf := &runFile{Workload: "sim-dense", result: result{Attempted: 8, Metrics: map[string]metricValue{}}}
		for _, d := range spec.EndToEnd {
			rf.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		return rf
	}
	if bad := spec.check(good()); len(bad) != 0 {
		t.Fatalf("a complete run was refused: %v", bad)
	}
	for want, spoil := range map[string]func(*runFile){
		"declared metric req_per_s is missing": func(r *runFile) { delete(r.Metrics, "req_per_s") },
		"metric extra is not declared":         func(r *runFile) { r.Metrics["extra"] = metricValue{} },
		"is malformed":                         func(r *runFile) { r.Metrics["bad name"] = metricValue{} },
		"has unit":                             func(r *runFile) { r.Metrics["setup_s"] = metricValue{Value: 1, Unit: "ms"} },
		"is not declared":                      func(r *runFile) { r.Workload = "sim-other" },
		"attempted 0":                          func(r *runFile) { r.Attempted = 0 },
		// A traced run reports the per-layer metrics, not these.
		"declared metric lang.share is missing": func(r *runFile) { r.Trace = 1 },
	} {
		r := good()
		spoil(r)
		if bad := spec.check(r); !strings.Contains(strings.Join(bad, "\n"), want) {
			t.Errorf("want a complaint containing %q, got %v", want, bad)
		}
	}
}
