package runner

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestClassifyThresholds(t *testing.T) {
	cases := []struct {
		name   string
		deltas []float64
		want   EffectClass
	}{
		{"all within 5%", []float64{0.04, -0.02, 0.05}, EffectEquivalent},
		{"exactly zero", []float64{0, 0, 0}, EffectEquivalent},
		{"big and consistent", []float64{0.35, 0.21, 0.9}, EffectSignificant},
		{"big negative", []float64{-0.35, -0.21, -0.9}, EffectSignificant},
		{"direction flip", []float64{0.4, -0.4, 0.4}, EffectInconclusive},
		{"one tiny seed", []float64{0.4, 0.05, 0.4}, EffectInconclusive},
		{"sub-10% seed", []float64{0.25, 0.09, 0.3}, EffectInconclusive},
		{"consistent but modest", []float64{0.15, 0.12, 0.18}, EffectSuggestive},
		{"mixed above/below 20%", []float64{0.25, 0.15, 0.3}, EffectSuggestive},
		{"empty", nil, EffectInconclusive},
	}
	for _, c := range cases {
		if got := Classify(c.deltas); got != c.want {
			t.Errorf("%s: Classify(%v) = %s, want %s", c.name, c.deltas, got, c.want)
		}
	}
}

// table builds a 2-row test table for one seed: a baseline row at `base`
// and a candidate row at `cand`, plus a label that may embed the seed.
func table(seedLabel bool, seed int64, base, cand int64) *experiments.Table {
	label := "interval"
	if seedLabel {
		label = "interval " + string(rune('0'+seed))
	}
	return &experiments.Table{
		ID: "TX", Title: "test", Claim: "claim", Finding: "finding",
		Columns: []string{"config", "metric"},
		Rows: [][]experiments.Cell{
			{experiments.Str("base"), experiments.Int(base)},
			{experiments.Str(label), experiments.Int(cand)},
		},
	}
}

func TestAggregateMeanMinMaxAndEffects(t *testing.T) {
	seeds := []int64{1, 2, 3}
	tables := []*experiments.Table{
		table(false, 1, 100, 150),
		table(false, 2, 110, 160),
		table(false, 3, 90, 140),
	}
	s, err := Aggregate(seeds, tables)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Rows[0][1]
	if !m.IsNum || m.Mean != 100 || m.Min != 90 || m.Max != 110 {
		t.Fatalf("baseline agg = %+v", m)
	}
	if len(m.PerSeed) != 3 || m.PerSeed[1] != 110 {
		t.Fatalf("per-seed values = %v", m.PerSeed)
	}
	if s.Rows[0][0].Text != "base" {
		t.Fatalf("label cell = %+v", s.Rows[0][0])
	}
	if len(s.Effects) != 1 {
		t.Fatalf("effects = %+v", s.Effects)
	}
	e := s.Effects[0]
	// Deltas: 50/100, 50/110, 50/90 — all >20% and positive.
	if e.Class != EffectSignificant || e.Column != "metric" {
		t.Fatalf("effect = %+v", e)
	}
	md := s.Markdown()
	for _, want := range []string{"3 seeds: 1, 2, 3", "100 [90–110]", "significant", "finding"} {
		if !strings.Contains(md, want) {
			t.Errorf("summary markdown missing %q:\n%s", want, md)
		}
	}
}

func TestAggregateVaryingLabels(t *testing.T) {
	seeds := []int64{1, 2}
	s, err := Aggregate(seeds, []*experiments.Table{
		table(true, 1, 100, 100),
		table(true, 2, 100, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Rows[1][0].Text; got != "interval 1 / interval 2" {
		t.Fatalf("varying label = %q", got)
	}
}

func TestAggregateShapeErrors(t *testing.T) {
	if _, err := Aggregate([]int64{1}, nil); err == nil {
		t.Fatal("empty input should fail")
	}
	a := table(false, 1, 100, 150)
	b := table(false, 2, 100, 150)
	b.Rows = b.Rows[:1]
	if _, err := Aggregate([]int64{1, 2}, []*experiments.Table{a, b}); err == nil {
		t.Fatal("row-count mismatch should fail")
	}
}

// A cell that is numeric at one seed and a Dash at another (divergent
// completion) degrades to its per-seed texts rather than failing the
// artifact.
func TestAggregateMixedNumericDashDegrades(t *testing.T) {
	a := table(false, 1, 100, 150)
	c := table(false, 2, 100, 150)
	c.Rows[0][1] = experiments.Dash()
	s, err := Aggregate([]int64{1, 2}, []*experiments.Table{a, c})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Rows[0][1]
	if got.IsNum || got.Text != "100 / —" {
		t.Fatalf("mixed cell = %+v", got)
	}
	// The candidate row's metric column is still fully numeric and must
	// aggregate normally.
	if m := s.Rows[1][1]; !m.IsNum || m.Mean != 150 {
		t.Fatalf("numeric cell = %+v", m)
	}
}

func TestCellConstructors(t *testing.T) {
	if c := experiments.Pct(0.123); c.Text != "+12.3%" || !c.IsNum || c.Num != 0.123 {
		t.Fatalf("Pct = %+v", c)
	}
	if c := experiments.Dash(); c.IsNum || c.Text != "—" {
		t.Fatalf("Dash = %+v", c)
	}
	if c := experiments.Float("%.2f", 1.005); c.Text != "1.00" && c.Text != "1.01" {
		t.Fatalf("Float = %+v", c)
	}
}

// Regression: aggregated cells must render in the source cells' unit — a
// percent column stays percents, a ratio column keeps its "x" suffix.
func TestAggregateKeepsCellUnits(t *testing.T) {
	mk := func(p, r float64) *experiments.Table {
		return &experiments.Table{
			ID: "TU", Columns: []string{"config", "overhead", "stretch"},
			Rows: [][]experiments.Cell{
				{experiments.Str("base"), experiments.Pct(p), experiments.Float("%.2fx", r)},
			},
		}
	}
	s, err := Aggregate([]int64{1, 2}, []*experiments.Table{mk(0.033, 1.20), mk(0.090, 1.33)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Rows[0][1].String(); got != "+6.2% [+3.3%–+9.0%]" {
		t.Errorf("percent aggregate = %q", got)
	}
	if got := s.Rows[0][2].String(); got != "1.27x [1.20x–1.33x]" {
		t.Errorf("ratio aggregate = %q", got)
	}
}

// Regression: a per-seed row that is shorter than the first seed's must
// return the shape error from both the numeric and the label branch, not
// panic with an index error.
func TestAggregateRaggedLabelRow(t *testing.T) {
	a := &experiments.Table{ID: "TR", Columns: []string{"a", "b"},
		Rows: [][]experiments.Cell{{experiments.Str("x"), experiments.Str("y")}}}
	b := &experiments.Table{ID: "TR", Columns: []string{"a", "b"},
		Rows: [][]experiments.Cell{{experiments.Str("x")}}}
	if _, err := Aggregate([]int64{1, 2}, []*experiments.Table{a, b}); err == nil {
		t.Fatal("ragged label row should fail, not panic")
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

// TestSweepRowsNamedByTheirInput pins the label of a row that starts with
// data, as a sweep's rows do: the first column's name and the row's value,
// and that column, the sweep's input, is not classified as an effect.
func TestSweepRowsNamedByTheirInput(t *testing.T) {
	seeds := []int64{1, 2}
	var tables []*experiments.Table
	for range seeds {
		tables = append(tables, &experiments.Table{
			ID: "TX", Title: "test", Claim: "claim",
			Columns: []string{"processors", "makespan"},
			Rows: [][]experiments.Cell{
				{experiments.Int(4), experiments.Int(400)},
				{experiments.Int(16), experiments.Int(100)},
			},
		})
	}
	s, err := Aggregate(seeds, tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Effects) != 1 {
		t.Fatalf("effects = %+v, want makespan's alone", s.Effects)
	}
	if e := s.Effects[0]; e.Column != "makespan" || e.Label != "processors 16" || e.Baseline != "processors 4" {
		t.Fatalf("effect = %+v, want processors 16 vs processors 4 on makespan", e)
	}
}
