package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// canned reads testdata/<side>.jsonl: one bench result line per pair.
func canned(t *testing.T, side string) []map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + side + ".jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]float64
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		// A run's output ends with its result line, after the per-pass ones.
		r, err := parseResult(append([]byte("  per pass req_per_s 1100 1150\n"), line...))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, values(r))
	}
	return out
}

// TestSummarizeCannedResults: four canned pairs of result lines, read as
// net-stream and as sim-dense, summarize to a fixed table — quartiles,
// pairs won in each metric's better direction, the per-seed delta and the
// class, a simulator count compared for identity.
func TestSummarizeCannedResults(t *testing.T) {
	base, nw := canned(t, "base"), canned(t, "new")
	var pairs []pair
	for _, w := range []string{"net-stream", "sim-dense"} {
		for k := range base {
			pairs = append(pairs, pair{Workload: w, Seed: 1, Base: base[k], New: nw[k]})
		}
	}
	better, err := directions("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]summary{}
	for _, s := range summarize(pairs, better) {
		got[s.Workload+" "+s.Metric] = s
	}
	for _, c := range []struct {
		key   string
		won   int
		delta float64 // the seed's median relative delta, to 0.1 %
		class string
	}{
		{"net-stream bytes_per_req", 4, -0.220, "significant"},
		{"net-stream cpu_ms_per_req", 2, 0.003, "equivalent"},
		{"net-stream req_per_s", 3, 0.009, "equivalent"},
		{"net-stream msgs_per_req", 2, 0.000, "equivalent"},
		{"net-stream sim_span_ticks", 0, 0, "identical"},
		{"sim-dense msgs_per_req", 2, 0.000, "differs"},
		{"sim-dense bytes_per_req", 4, -0.220, "differs"},
		{"sim-dense sim_span_ticks", 0, 0, "identical"},
	} {
		s, ok := got[c.key]
		if !ok {
			t.Errorf("%s: not summarized", c.key)
			continue
		}
		if s.Won != c.won || s.Pairs != 4 || s.Class != c.class || abs(s.PerSeed[1]-c.delta) > 0.0005 {
			t.Errorf("%s: won %d/%d, delta %+.4f, %s; want %d/4, %+.3f, %s", c.key, s.Won, s.Pairs, s.PerSeed[1], s.Class, c.won, c.delta, c.class)
		}
	}
	if q := got["net-stream bytes_per_req"].Base; q != [3]float64{7891.25, 7897.5, 7902.5} {
		t.Errorf("base bytes_per_req quartiles %v, want [7891.25 7897.5 7902.5]", q)
	}
	if len(got) != 10 {
		t.Errorf("%d summaries, want 5 metrics × 2 workloads", len(got))
	}
	var b strings.Builder
	report(&b, summarize(pairs, better))
	if lines := strings.Count(b.String(), "\n"); lines != 11 {
		t.Errorf("report of %d lines, want a header and 10:\n%s", lines, b.String())
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
