package runner

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// twoBackendCatalog holds one sim-only and one live-only artifact.
func twoBackendCatalog() Catalog {
	tbl := func(id string) func(string, int64) (*experiments.Table, error) {
		return func(_ string, seed int64) (*experiments.Table, error) {
			return &experiments.Table{ID: id, Columns: []string{"m"},
				Rows: [][]experiments.Cell{{experiments.Int(seed)}}}, nil
		}
	}
	return Catalog{
		{ID: "SIMONLY", Table: tbl("SIMONLY")},
		{ID: "LIVEONLY", Table: tbl("LIVEONLY"), Backends: []string{"live"}},
	}
}

func TestExperimentSupports(t *testing.T) {
	e := Experiment{ID: "X"}
	if !e.Supports("") || !e.Supports("sim") || e.Supports("live") {
		t.Fatal("nil Backends must mean sim-only")
	}
	e.Backends = []string{"live", "sim"}
	if !e.Supports("live") || !e.Supports("sim") {
		t.Fatal("declared backends not honored")
	}
}

func TestEngineSkipsUnsupportedBackend(t *testing.T) {
	reg := twoBackendCatalog()
	// Default (sim) backend: the live-only artifact renders a skip note.
	results, err := reg.RunIDs("all", Options{Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Skipped != "" || len(results[0].Tables) != 1 {
		t.Fatalf("sim artifact should run: %+v", results[0])
	}
	if results[1].Skipped == "" || results[1].Tables != nil || results[1].Err != nil {
		t.Fatalf("live artifact should be skipped: %+v", results[1])
	}
	if md := results[1].Markdown(); !strings.Contains(md, "backend") || !strings.Contains(md, "LIVEONLY") {
		t.Fatalf("skip markdown = %q", md)
	}
	// Live backend: roles reverse.
	results, err = reg.RunIDs("all", Options{Seeds: []int64{1}, Backend: "live"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Skipped == "" {
		t.Fatalf("sim artifact should be skipped on live: %+v", results[0])
	}
	if results[1].Skipped != "" || len(results[1].Tables) != 1 {
		t.Fatalf("live artifact should run on live: %+v", results[1])
	}
	// Multi-seed runs must not try to aggregate skipped artifacts.
	results, err = reg.RunIDs("all", Options{Seeds: SeedRange(1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Summary != nil || results[1].Err != nil {
		t.Fatalf("skipped artifact aggregated: %+v", results[1])
	}
	if results[0].Summary == nil {
		t.Fatal("running artifact lost its aggregate")
	}
}

// pairTables builds per-seed tables shaped like a sweep (plan, scheme,
// metric) where comparing against row 0 misstates the A-vs-B question.
func pairTables(seeds []int64) []*experiments.Table {
	var out []*experiments.Table
	for range seeds {
		tb := &experiments.Table{
			ID: "P", Columns: []string{"plan", "scheme", "metric"},
			Rows: [][]experiments.Cell{
				{experiments.Str("plan-a"), experiments.Str("rollback"), experiments.Int(100)},
				{experiments.Str("plan-a"), experiments.Str("splice"), experiments.Int(50)},
				{experiments.Str("plan-b"), experiments.Str("rollback"), experiments.Int(1000)},
				{experiments.Str("plan-b"), experiments.Str("splice"), experiments.Int(400)},
			},
		}
		tb.Pair(0, 1).Pair(2, 3)
		out = append(out, tb)
	}
	return out
}

func TestPairedEffects(t *testing.T) {
	seeds := []int64{1, 2, 3}
	sum, err := Aggregate(seeds, pairTables(seeds))
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Paired {
		t.Fatal("summary not marked paired")
	}
	if len(sum.Effects) != 2 {
		t.Fatalf("effects = %d, want 2 (one per pair)", len(sum.Effects))
	}
	// Pair 1: splice 50 vs rollback 100 at plan-a → −50%, significant.
	e := sum.Effects[0]
	if e.Context != "plan-a" || e.Label != "splice" || e.Baseline != "rollback" {
		t.Fatalf("pair labels = %q/%q/%q", e.Context, e.Label, e.Baseline)
	}
	if e.Class != EffectSignificant || e.Mean > -0.49 || e.Mean < -0.51 {
		t.Fatalf("pair 1 effect = %+v", e)
	}
	// Pair 2: splice 400 vs rollback 1000 at plan-b → −60%. A row-0 baseline
	// would have called row 3 a +300% regression — the misstatement explicit
	// pairing exists to fix.
	if e2 := sum.Effects[1]; e2.Context != "plan-b" || e2.Mean > -0.59 || e2.Mean < -0.61 {
		t.Fatalf("pair 2 effect = %+v", e2)
	}
	md := sum.Markdown()
	if !strings.Contains(md, "Paired effects") || !strings.Contains(md, "plan-a: splice vs rollback") {
		t.Fatalf("paired markdown missing labels:\n%s", md)
	}
	// Bad pair indices must fail the aggregate, not panic.
	bad := pairTables(seeds)
	bad[0].Pairs = [][2]int{{0, 9}}
	if _, err := Aggregate(seeds, bad); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad pairing error = %v", err)
	}
}

// TestNoEffectsSuppressesClassification covers tables whose rows are
// independent measurements (L1's per-workload parity rows): no baseline
// exists, so no effect lines may be fabricated.
func TestNoEffectsSuppressesClassification(t *testing.T) {
	seeds := []int64{1, 2}
	tables := pairTables(seeds)
	for _, tb := range tables {
		tb.Pairs = nil
		tb.NoEffects = true
	}
	sum, err := Aggregate(seeds, tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Effects) != 0 || sum.Paired {
		t.Fatalf("NoEffects table still classified: %+v", sum.Effects)
	}
	if md := sum.Markdown(); strings.Contains(md, "Effects") {
		t.Fatalf("NoEffects markdown renders an effects block:\n%s", md)
	}
}

// TestUnpairedEffectsUnchanged pins the default row-0 baseline path: tables
// without explicit pairings classify exactly as before the pairing feature.
func TestUnpairedEffectsUnchanged(t *testing.T) {
	seeds := []int64{1, 2}
	tables := pairTables(seeds)
	for _, tb := range tables {
		tb.Pairs = nil
	}
	sum, err := Aggregate(seeds, tables)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Paired {
		t.Fatal("unpaired summary marked paired")
	}
	if len(sum.Effects) != 3 {
		t.Fatalf("effects = %d, want 3 (rows 1..3 vs row 0)", len(sum.Effects))
	}
	for i, e := range sum.Effects {
		if e.Baseline != "plan-a rollback" || e.Row != i+1 || e.Context != "" {
			t.Fatalf("effect %d = %+v, want row-0 baseline", i, e)
		}
	}
	if md := sum.Markdown(); strings.Contains(md, "Paired effects") {
		t.Fatal("unpaired markdown used the paired header")
	}
}
