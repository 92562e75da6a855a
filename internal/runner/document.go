package runner

import (
	"fmt"
	"strings"
)

// DocumentOptions parameterize RenderDocument's provenance header.
type DocumentOptions struct {
	// Command is the exact shell command that regenerates the document; it
	// is recorded in the header so readers (and CI) can reproduce the file.
	Command string
	// Seeds are the table seeds the run used.
	Seeds []int64
}

// RenderDocument renders a full artifact run as a self-contained
// EXPERIMENTS.md: a provenance header naming the regeneration command, a
// contents table, and every artifact's markdown in report order. The output
// is a pure function of the results (no timestamps, no environment), so CI
// can regenerate the document and fail on any byte of drift.
func RenderDocument(results []*Result, opt DocumentOptions) string {
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — Distributed Recovery in Applicative Systems\n\n")
	if opt.Command != "" {
		fmt.Fprintf(&b, "<!-- Generated file, do not edit. Regenerate with:\n  %s\nCI re-runs that command and fails on drift. -->\n\n", opt.Command)
	}
	b.WriteString("Reproduction artifacts for *Distributed Recovery in Applicative Systems*\n" +
		"(ICPP 1986), regenerated from the drivers in `internal/experiments` and\n" +
		"`internal/scenario` through the registry in `internal/runner` — the same\n" +
		"code paths the tests and benchmarks execute. Figures (F) replay the\n" +
		"paper's narrative scenarios; tables (T) measure its quantitative claims;\n" +
		"ablations (A) isolate individual mechanisms; stress scenarios (S) push\n" +
		"beyond the paper's grids into 64-processor irregular topologies,\n" +
		"cascading faults, and fault densities past the recovery breaking point.\n")
	if len(opt.Seeds) > 1 {
		fmt.Fprintf(&b, "\nTables are swept across %d seeds (%s); measurement cells render as\n"+
			"`mean [min–max]`, and effect lines classify each row against the table's\n"+
			"baseline row (significant: >20%% in the same direction in every seed;\n"+
			"equivalent: within 5%% in every seed).\n", len(opt.Seeds), seedList(opt.Seeds))
	}
	b.WriteString("\n## Contents\n\n")
	b.WriteString("| artifact | kind | title |\n|---|---|---|\n")
	for _, r := range results {
		title := r.Title
		if title == "" {
			title = r.ID
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", r.ID, r.Kind, title)
	}
	b.WriteString("\n")
	b.WriteString(RenderMarkdown(results))
	return b.String()
}

// DocumentCommand reconstructs the canonical regeneration command line from
// the run parameters, omitting flags at their defaults and the -parallel
// width (which never changes the output). cmd/experiments records it in the
// header; keeping the derivation here makes header and CLI agree by
// construction. Only a full ("all") run names EXPERIMENTS.md as the
// redirect target — a partial document must not instruct readers to
// overwrite the committed full report.
func DocumentCommand(request string, baseSeed int64, seeds int) string {
	parts := []string{"go run ./cmd/experiments -markdown"}
	full := request == "" || strings.EqualFold(strings.TrimSpace(request), "all")
	if !full {
		parts = append(parts, "-exp "+strings.TrimSpace(request))
	}
	if baseSeed != 1 {
		parts = append(parts, fmt.Sprintf("-seed %d", baseSeed))
	}
	if seeds > 1 {
		parts = append(parts, fmt.Sprintf("-seeds %d", seeds))
	}
	cmd := strings.Join(parts, " ")
	if full {
		cmd += " > EXPERIMENTS.md"
	}
	return cmd
}
