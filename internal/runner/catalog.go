// Package runner is the experiment engine: the catalog of reproduction
// artifacts (figures F1–F7, tables T1–T7, ablations A1–A4, stress scenarios
// S1–S6, the service stream L3), a worker pool that fans (experiment × seed)
// cells out across goroutines, and a stats aggregator that folds per-seed
// tables into mean/min/max summaries with effect-size classification. Every
// artifact runs on the simulator, in virtual time, so every byte it renders
// is a function of the seed; the wall-clock backends' share of the same
// claims is internal/node's conformance suite. cmd/experiments
// and the top-level benchmarks both resolve drivers here, so there is
// exactly one statement of what each artifact runs. RenderDocument
// turns a full run into the committed EXPERIMENTS.md (self-contained
// markdown with a provenance header and contents table); CI regenerates
// that file and fails on drift, so the docs cannot desynchronize from the
// drivers.
//
// Parallel scheduling is safe because every cell builds its own
// machine.Machine, and each machine owns a private sim.Kernel RNG seeded
// from the cell's seed — no shared mutable state crosses cells.
package runner

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// Kind distinguishes figure reproductions (seed-independent narratives with
// fixed fault scripts) from quantitative tables (seed-swept measurements).
type Kind int

const (
	// KindFigure artifacts render a fixed scenario; they run once per
	// request regardless of the seed list.
	KindFigure Kind = iota
	// KindTable artifacts measure; they run once per requested seed.
	KindTable
)

// String names the kind for reports and JSON.
func (k Kind) String() string {
	if k == KindFigure {
		return "figure"
	}
	return "table"
}

// MarshalJSON emits the kind name.
func (k Kind) MarshalJSON() ([]byte, error) { return []byte(`"` + k.String() + `"`), nil }

// Experiment is one artifact driver: exactly one of Figure and Table is set,
// and which one is the artifact's kind.
type Experiment struct {
	// ID is the artifact name, upper-case ("F1", "T3", "A2").
	ID string
	// Title is a short human label used in listings.
	Title string
	// Figure renders the scenario narrative as markdown.
	Figure func() (string, error)
	// Table runs the measurement at one seed.
	Table func(seed int64) (*experiments.Table, error)
}

// Kind is KindFigure when the Figure driver is set, KindTable otherwise.
func (e Experiment) Kind() Kind {
	if e.Figure != nil {
		return KindFigure
	}
	return KindTable
}

// Catalog is a list of artifacts in report order, so "run everything"
// reproduces the report in its indexed order.
type Catalog []Experiment

// IDs lists the catalog's artifact ids in order.
func (c Catalog) IDs() []string {
	out := make([]string, len(c))
	for i, e := range c {
		out[i] = e.ID
	}
	return out
}

// Resolve expands a request — "all", a single id, or a comma-separated list
// in any case — into the requested artifacts in report order.
func (c Catalog) Resolve(request string) (Catalog, error) {
	request = strings.TrimSpace(request)
	if request == "" || strings.EqualFold(request, "all") {
		return c, nil
	}
	ids := c.IDs()
	want := map[string]bool{}
	for _, part := range strings.Split(request, ",") {
		part = strings.ToUpper(strings.TrimSpace(part))
		if part == "" {
			continue
		}
		if !slices.Contains(ids, part) {
			return nil, fmt.Errorf("runner: unknown artifact %q (known: %s)", part, strings.Join(ids, ", "))
		}
		want[part] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("runner: empty artifact request")
	}
	var out Catalog
	for _, e := range c {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// Artifacts is every artifact EXPERIMENTS.md indexes — the figure scenarios
// F1–F7, tables T1–T7, ablations A1–A4, stress scenarios S1–S6 and the
// service stream L3 — with the canonical parameters the report uses.
var Artifacts = Catalog{
	{ID: "F1", Title: "Figure 1: rollback recovery on processors A–D", Figure: Fig1Markdown},
	{ID: "F2", Title: "Figures 2–3: grandparent pointers and twin inheritance", Figure: Fig23Markdown},
	{ID: "F5", Title: "Figure 5: the eight orderings of C's completion", Figure: Fig5Markdown},
	{ID: "F6", Title: "Figures 6–7: spawn states a–g and residue freedom", Figure: Fig67Markdown},
	{ID: "F7", Title: "§5.2: simultaneous ancestor failure vs depth K", Figure: MultiFaultMarkdown},
	{ID: "T1", Title: "Fault-free overhead",
		Table: func(seed int64) (*experiments.Table, error) { return experiments.T1Overhead("fib:13", 8, seed) }},
	{ID: "T2", Title: "Recovery cost vs fault time",
		Table: func(seed int64) (*experiments.Table, error) { return experiments.T2FaultSweep("tree:3,6", 9, seed) }},
	{ID: "T3", Title: "Scaling processors",
		Table: func(seed int64) (*experiments.Table, error) {
			return experiments.T3Scale("tree:3,6", []int{4, 9, 16, 36, 64}, seed)
		}},
	{ID: "T4", Title: "Multiple faults under splice", Table: experiments.T4MultiFault},
	{ID: "T5", Title: "Replicated critical sections vs corruption", Table: experiments.T5Replication},
	{ID: "T6", Title: "Allocation strategy and recovery", Table: experiments.T6Placement},
	{ID: "T7", Title: "TMR vs functional checkpointing", Table: experiments.T7TMR},
	{ID: "A1", Title: "Ablation: eager vs lazy orphan abortion", Table: experiments.A1EagerVsLazyAbort},
	{ID: "A2", Title: "Ablation: checkpoint storage by workload", Table: experiments.A2CheckpointStorage},
	{ID: "A3", Title: "Ablation: heartbeat period vs recovery", Table: experiments.A3DetectionLatency},
	{ID: "A4", Title: "Ablation: topmost suppression on/off", Table: experiments.A4TopmostSuppression},
	{ID: "S1", Title: "Stress: topology sweep at 64 processors",
		Table: func(seed int64) (*experiments.Table, error) { return experiments.S1TopologySweep("fib:13", seed) }},
	{ID: "S2", Title: "Stress: rollback vs splice under cascading faults", Table: experiments.S2CascadeRecovery},
	{ID: "S3", Title: "Stress: fault density to the breaking point", Table: experiments.S3FaultDensity},
	{ID: "S4", Title: "Stress: skewed/random shapes, mesh vs torus under region+burst faults",
		Table: experiments.S4ShapeDiversity},
	{ID: "S5", Title: "Stress: open-loop saturation sweep vs bounded admission",
		Table: experiments.S5Saturation},
	{ID: "S6", Title: "Stress: online incremental recovery vs rollback and splice",
		Table: experiments.S6IncrementalRecovery},
	{ID: "L3", Title: "Service mode: request-stream throughput with faults injected mid-stream",
		Table: func(seed int64) (*experiments.Table, error) { return experiments.L3StreamThroughput("sim", seed) }},
}
