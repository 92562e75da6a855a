package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// specFile is the one place metrics and workloads are declared; the
// benchmark reads names, units and directions from it and refuses to report
// a run that does not match it exactly.
const specFile = "BENCHMARK.json"

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// decls returns the metrics a run with the given trace setting reports.
func (s *benchSpec) decls(trace int) []metricDecl {
	if trace == 1 {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runFile is what a run writes under bench/out/: the result plus everything
// behind it — every per-pass value, every set-up time, and the notes of any
// guard that tripped.
type runFile struct {
	result
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     int                  `json:"trace"`
	SetupS    []float64            `json:"setup_s_each,omitempty"`
	SetupRawS []float64            `json:"setup_raw_s_each,omitempty"`
	Passes    []map[string]float64 `json:"passes,omitempty"`
	// UnitWallMS and UnitCPUMS hold, per pass, the host cost of each timed
	// unit (cell, stream or session) — the samples the time metrics are
	// estimated from.
	UnitWallMS [][]float64         `json:"unit_wall_ms,omitempty"`
	UnitCPUMS  [][]float64         `json:"unit_cpu_ms,omitempty"`
	Spans      map[string]spanStat `json:"spans,omitempty"`
	Notes      []string            `json:"notes,omitempty"`
}

// resultsFile is what the all-workloads mode writes: one runFile each.
type resultsFile struct {
	Runs []*runFile `json:"runs"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// check validates one run against the declaration: every declared metric
// present with the declared unit, every name well-formed, nothing
// undeclared, and a known workload.
func (s *benchSpec) check(r *runFile) []string {
	var bad []string
	known := false
	for _, w := range s.Workloads {
		known = known || w.Name == r.Workload
	}
	if !known {
		bad = append(bad, fmt.Sprintf("workload %q is not declared", r.Workload))
	}
	if r.Attempted < 1 {
		bad = append(bad, fmt.Sprintf("attempted %d < 1", r.Attempted))
	}
	declared := map[string]string{}
	for _, d := range s.decls(r.Trace) {
		declared[d.Name] = d.Unit
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("declared metric %s is missing", d.Name))
		case m.Unit != d.Unit:
			bad = append(bad, fmt.Sprintf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit))
		}
	}
	for name := range r.Metrics {
		if !metricName.MatchString(name) {
			bad = append(bad, fmt.Sprintf("metric name %q is malformed", name))
		}
		if _, ok := declared[name]; !ok {
			bad = append(bad, fmt.Sprintf("metric %s is not declared", name))
		}
	}
	sort.Strings(bad)
	return bad
}

// checkFile validates a results file (one run, or the all-workloads form).
func (s *benchSpec) checkFile(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all resultsFile
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if all.Runs == nil {
		var one runFile
		if err := json.Unmarshal(raw, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		all.Runs = []*runFile{&one}
	}
	var bad []string
	for _, r := range all.Runs {
		for _, b := range s.check(r) {
			bad = append(bad, fmt.Sprintf("%s (trace %d): %s", r.Workload, r.Trace, b))
		}
	}
	return bad, nil
}
