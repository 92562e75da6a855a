package runner

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// fakeResults builds a small mixed result set without running the machine.
func fakeResults() []*Result {
	tb := &experiments.Table{
		ID: "T9", Title: "demo", Claim: "c", Columns: []string{"x"},
		Rows: [][]experiments.Cell{{experiments.Int(3)}},
	}
	return []*Result{
		{ID: "F1", Title: "a figure", Kind: KindFigure, Figure: "### F1 — a figure\n\nbody\n"},
		{ID: "T9", Title: "a table", Kind: KindTable, Seeds: []int64{1}, Tables: []*experiments.Table{tb}},
	}
}

func TestRenderDocumentStructure(t *testing.T) {
	doc := RenderDocument(fakeResults(), DocumentOptions{
		Command: "go run ./cmd/experiments -markdown -seeds 5 > EXPERIMENTS.md",
		Seeds:   []int64{1, 2, 3, 4, 5},
	})
	for _, want := range []string{
		"# EXPERIMENTS — Distributed Recovery in Applicative Systems",
		"Generated file, do not edit",
		"go run ./cmd/experiments -markdown -seeds 5 > EXPERIMENTS.md",
		"## Contents",
		"| F1 | figure | a figure |",
		"| T9 | table | a table |",
		"### F1 — a figure",
		"### T9 — demo",
		"swept across 5 seeds (1, 2, 3, 4, 5)",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q", want)
		}
	}
	// Determinism: same inputs, same bytes.
	if doc != RenderDocument(fakeResults(), DocumentOptions{
		Command: "go run ./cmd/experiments -markdown -seeds 5 > EXPERIMENTS.md",
		Seeds:   []int64{1, 2, 3, 4, 5},
	}) {
		t.Error("RenderDocument not deterministic")
	}
}

func TestRenderDocumentSingleSeedOmitsSweepNote(t *testing.T) {
	doc := RenderDocument(fakeResults(), DocumentOptions{Seeds: []int64{1}})
	if strings.Contains(doc, "swept across") {
		t.Error("single-seed document mentions a sweep")
	}
	if strings.Contains(doc, "Generated file") {
		t.Error("empty command still rendered a provenance comment")
	}
}

func TestDocumentCommand(t *testing.T) {
	cases := []struct {
		request string
		seed    int64
		seeds   int
		want    string
	}{
		{"all", 1, 5, "go run ./cmd/experiments -markdown -seeds 5 > EXPERIMENTS.md"},
		{"", 1, 1, "go run ./cmd/experiments -markdown > EXPERIMENTS.md"},
		// Partial runs must not tell readers to overwrite the committed
		// full document, so no redirect target is suggested.
		{"S1,S3", 7, 3, "go run ./cmd/experiments -markdown -exp S1,S3 -seed 7 -seeds 3"},
	}
	for _, tc := range cases {
		if got := DocumentCommand(tc.request, tc.seed, tc.seeds); got != tc.want {
			t.Errorf("DocumentCommand(%q,%d,%d) = %q, want %q", tc.request, tc.seed, tc.seeds, got, tc.want)
		}
	}
}
