package runner

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// EffectClass buckets a per-seed effect size per the experiment standards:
// confirmed only when the direction and magnitude hold in every seed.
type EffectClass string

const (
	// EffectSignificant: >20% in the same direction in every seed.
	EffectSignificant EffectClass = "significant"
	// EffectSuggestive: consistent direction, ≥10% everywhere, but not
	// clearing the 20% bar in every seed.
	EffectSuggestive EffectClass = "suggestive"
	// EffectInconclusive: <10% in some seed or direction flips.
	EffectInconclusive EffectClass = "inconclusive"
	// EffectEquivalent: within 5% in every seed.
	EffectEquivalent EffectClass = "equivalent"
)

// Classify applies the effect-size thresholds to per-seed relative deltas
// ((candidate−baseline)/baseline): within 5% everywhere is equivalent; >20%
// everywhere in one direction is significant; <10% in any seed or a
// direction flip is inconclusive; the rest is suggestive.
func Classify(deltas []float64) EffectClass {
	if len(deltas) == 0 {
		return EffectInconclusive
	}
	equivalent, significant, inconclusive := true, true, false
	pos, neg := false, false
	for _, d := range deltas {
		a := math.Abs(d)
		if a > 0.05 {
			equivalent = false
		}
		if a <= 0.20 {
			significant = false
		}
		if a < 0.10 {
			inconclusive = true
		}
		if d > 0 {
			pos = true
		}
		if d < 0 {
			neg = true
		}
	}
	switch {
	case equivalent:
		return EffectEquivalent
	case pos && neg, inconclusive:
		return EffectInconclusive
	case significant:
		return EffectSignificant
	default:
		return EffectSuggestive
	}
}

// AggCell summarizes one table cell across seeds: labels keep their text,
// measurements get mean/min/max plus the per-seed values for transparency.
type AggCell struct {
	Text    string
	IsNum   bool
	Mean    float64
	Min     float64
	Max     float64
	PerSeed []float64
	// Fmt is the source cells' format hint, so the aggregate renders in
	// the same unit as the per-seed tables (percents stay percents).
	Fmt string
}

// MarshalJSON emits the full statistics for measurements (zero means and
// minima included — omitting them would misreport all-zero columns) and
// just the text for labels.
func (c AggCell) MarshalJSON() ([]byte, error) {
	if c.IsNum {
		return json.Marshal(struct {
			IsNum   bool      `json:"is_num"`
			Mean    float64   `json:"mean"`
			Min     float64   `json:"min"`
			Max     float64   `json:"max"`
			PerSeed []float64 `json:"per_seed"`
			Fmt     string    `json:"fmt,omitempty"`
		}{true, c.Mean, c.Min, c.Max, c.PerSeed, c.Fmt})
	}
	return json.Marshal(struct {
		IsNum bool   `json:"is_num"`
		Text  string `json:"text"`
	}{false, c.Text})
}

// String renders a measurement as "mean [min–max]" (collapsing to the bare
// mean when all seeds agree) and a label as its text. Values render through
// the source cells' own format, so a "+6.1%" column aggregates as
// "+6.3% [+5.9%–+6.8%]", not as raw fractions.
func (c AggCell) String() string {
	if !c.IsNum {
		return c.Text
	}
	render := experiments.Cell{Fmt: c.Fmt}.RenderNum
	if c.Min == c.Max {
		return render(c.Mean)
	}
	return fmt.Sprintf("%s [%s–%s]", render(c.Mean), render(c.Min), render(c.Max))
}

// Effect is one baseline-relative comparison: the row's metric against the
// baseline row's, per seed, with its classification.
type Effect struct {
	Column   string `json:"column"`
	Row      int    `json:"row"`
	Label    string `json:"label"`    // the candidate row's label
	Baseline string `json:"baseline"` // the baseline row's label
	// Context, for paired effects, is the shared sweep point both rows
	// describe (e.g. the fault plan), so Label/Baseline can name just the
	// cells that differ (e.g. "splice" vs "rollback").
	Context string      `json:"context,omitempty"`
	Deltas  []float64   `json:"deltas"` // per seed, (row−baseline)/baseline
	Mean    float64     `json:"mean"`
	Class   EffectClass `json:"class"`
}

// Summary aggregates one experiment's tables across seeds.
type Summary struct {
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Claim   string      `json:"claim"`
	Seeds   []int64     `json:"seeds"`
	Columns []string    `json:"columns"`
	Rows    [][]AggCell `json:"rows"`
	Effects []Effect    `json:"effects,omitempty"`
	// Paired is true when the table declared explicit A-vs-B row pairings,
	// so Effects compare true counterparts instead of row 0.
	Paired  bool   `json:"paired,omitempty"`
	Finding string `json:"finding,omitempty"`
}

// Aggregate folds the per-seed tables of one experiment (tables[i] ran at
// seeds[i]) into a Summary. Tables must agree on shape; numeric cells must
// stay numeric in every seed. Label cells whose text varies by seed (e.g. a
// derived interval in a row name) render as a "/"-joined list.
func Aggregate(seeds []int64, tables []*experiments.Table) (*Summary, error) {
	if len(tables) == 0 || len(seeds) != len(tables) {
		return nil, fmt.Errorf("runner: aggregate needs one table per seed (%d tables, %d seeds)",
			len(tables), len(seeds))
	}
	first := tables[0]
	for i, tb := range tables {
		if tb.ID != first.ID || len(tb.Columns) != len(first.Columns) || len(tb.Rows) != len(first.Rows) {
			return nil, fmt.Errorf("runner: %s: seed %d table shape differs", first.ID, seeds[i])
		}
	}
	s := &Summary{
		ID: first.ID, Title: first.Title, Claim: first.Claim, Finding: first.Finding,
		Seeds:   append([]int64(nil), seeds...),
		Columns: append([]string(nil), first.Columns...),
	}
	for ri := range first.Rows {
		row := make([]AggCell, len(first.Rows[ri]))
		for ci := range first.Rows[ri] {
			agg, err := aggregateCell(seeds, tables, ri, ci)
			if err != nil {
				return nil, err
			}
			row[ci] = agg
		}
		s.Rows = append(s.Rows, row)
	}
	if len(first.Pairs) > 0 {
		for _, p := range first.Pairs {
			if p[0] < 0 || p[0] >= len(s.Rows) || p[1] < 0 || p[1] >= len(s.Rows) {
				return nil, fmt.Errorf("runner: %s: pairing %v out of range (rows %d)",
					first.ID, p, len(s.Rows))
			}
		}
		s.Paired = true
		s.Effects = pairedEffects(s, first.Pairs)
	} else {
		s.Effects = baselineEffects(s)
	}
	return s, nil
}

// aggregateCell folds position (ri, ci) across every seed's table. A cell
// numeric in every seed aggregates; anything else — labels, or a cell that
// is a measurement at one seed and a Dash at another (e.g. a slowdown
// column when completion varies by seed) — degrades to the distinct
// per-seed texts instead of failing the whole artifact.
func aggregateCell(seeds []int64, tables []*experiments.Table, ri, ci int) (AggCell, error) {
	first := tables[0]
	allNum := true
	for ti, tb := range tables {
		if len(tb.Rows[ri]) != len(first.Rows[ri]) {
			return AggCell{}, fmt.Errorf("runner: %s: ragged row %d at seed %d", first.ID, ri, seeds[ti])
		}
		if !tb.Rows[ri][ci].IsNum {
			allNum = false
		}
	}
	if allNum {
		agg := AggCell{IsNum: true, Fmt: first.Rows[ri][ci].Fmt, Min: math.Inf(1), Max: math.Inf(-1)}
		var sum float64
		for _, tb := range tables {
			c := tb.Rows[ri][ci]
			if c.Fmt != agg.Fmt { // mixed units fall back to bare numbers
				agg.Fmt = ""
			}
			agg.PerSeed = append(agg.PerSeed, c.Num)
			sum += c.Num
			agg.Min = math.Min(agg.Min, c.Num)
			agg.Max = math.Max(agg.Max, c.Num)
		}
		agg.Mean = sum / float64(len(tables))
		return agg, nil
	}
	// Label (or mixed) cell: collect the distinct texts in seed order.
	var texts []string
	seen := map[string]bool{}
	for _, tb := range tables {
		c := tb.Rows[ri][ci]
		if !seen[c.Text] {
			seen[c.Text] = true
			texts = append(texts, c.Text)
		}
	}
	return AggCell{Text: strings.Join(texts, " / ")}, nil
}

// baselineEffects classifies every numeric column of every non-first row
// against row 0 — the conventional baseline position in the report tables.
func baselineEffects(s *Summary) []Effect {
	if len(s.Rows) < 2 {
		return nil
	}
	var out []Effect
	for ri := 1; ri < len(s.Rows); ri++ {
		out = append(out, rowEffects(s, 0, ri)...)
	}
	return out
}

// pairedEffects classifies each declared candidate row against its declared
// baseline row — the A-vs-B comparison sweep tables encode (e.g. splice vs
// rollback at the same fault plan), which a fixed row-0 baseline misstates.
// Effect labels name the cells where the pair differs (the A and the B),
// with the shared sweep point as context.
func pairedEffects(s *Summary, pairs [][2]int) []Effect {
	var out []Effect
	for _, p := range pairs {
		context, baseLabel, candLabel := pairLabels(s.Rows[p[0]], s.Rows[p[1]])
		for _, e := range rowEffects(s, p[0], p[1]) {
			e.Context, e.Baseline, e.Label = context, baseLabel, candLabel
			out = append(out, e)
		}
	}
	return out
}

// pairLabels splits a pair of rows into the shared context (equal text cells
// before the first difference) and the per-side labels (the text cells that
// differ). Rows that differ in no text cell fall back to their positions.
func pairLabels(base, row []AggCell) (context, baseLabel, candLabel string) {
	var ctx, bl, cl []string
	for i := range row {
		if row[i].IsNum {
			continue
		}
		bt := ""
		if i < len(base) && !base[i].IsNum {
			bt = base[i].Text
		}
		if row[i].Text == bt {
			if len(cl) == 0 {
				ctx = append(ctx, row[i].Text)
			}
			continue
		}
		cl = append(cl, row[i].Text)
		if bt != "" {
			bl = append(bl, bt)
		}
	}
	context = strings.Join(ctx, " ")
	baseLabel, candLabel = strings.Join(bl, " "), strings.Join(cl, " ")
	if baseLabel == "" {
		baseLabel = rowLabel(base)
	}
	if candLabel == "" {
		candLabel = rowLabel(row)
	}
	return context, baseLabel, candLabel
}

// rowEffects classifies every numeric column of row candRI against row
// baseRI, per seed. Columns that are non-numeric in either row, or whose
// baseline hits zero in any seed, are skipped.
func rowEffects(s *Summary, baseRI, candRI int) []Effect {
	base, row := s.Rows[baseRI], s.Rows[candRI]
	var out []Effect
	for ci := range row {
		if ci >= len(base) || !row[ci].IsNum || !base[ci].IsNum {
			continue
		}
		deltas := make([]float64, 0, len(row[ci].PerSeed))
		ok := true
		for si := range row[ci].PerSeed {
			b := base[ci].PerSeed[si]
			if b == 0 {
				ok = false
				break
			}
			deltas = append(deltas, (row[ci].PerSeed[si]-b)/b)
		}
		if !ok {
			continue
		}
		var mean float64
		for _, d := range deltas {
			mean += d
		}
		mean /= float64(len(deltas))
		out = append(out, Effect{
			Column:   s.Columns[ci],
			Row:      candRI,
			Label:    rowLabel(row),
			Baseline: rowLabel(base),
			Deltas:   deltas,
			Mean:     mean,
			Class:    Classify(deltas),
		})
	}
	return out
}

// rowLabel is the text of the row's leading label cells, or its position
// when the row starts with data.
func rowLabel(row []AggCell) string {
	var parts []string
	for _, c := range row {
		if c.IsNum {
			break
		}
		parts = append(parts, c.Text)
	}
	if len(parts) == 0 {
		return "row"
	}
	return strings.Join(parts, " ")
}

// Markdown renders the aggregate table plus the confirmed effects.
func (s *Summary) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s (%d seeds: %s)\n\n", s.ID, s.Title, len(s.Seeds), seedList(s.Seeds))
	fmt.Fprintf(&b, "**Paper claim.** %s\n\n", s.Claim)
	b.WriteString("| " + strings.Join(s.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(s.Columns)) + "\n")
	for _, row := range s.Rows {
		texts := make([]string, len(row))
		for i, c := range row {
			texts[i] = c.String()
		}
		b.WriteString("| " + strings.Join(texts, " | ") + " |\n")
	}
	if decided := decidedEffects(s.Effects); len(decided) > 0 {
		if s.Paired {
			b.WriteString("\n**Paired effects** (each candidate vs its declared baseline row; significant >20% in every seed, equivalent within 5%):\n")
			for _, e := range decided {
				at := ""
				if e.Context != "" {
					at = e.Context + ": "
				}
				fmt.Fprintf(&b, "- %s%s vs %s, %s: %+.1f%% mean — %s\n", at, e.Label, e.Baseline, e.Column, e.Mean*100, e.Class)
			}
		} else {
			fmt.Fprintf(&b, "\n**Effects vs %q** (significant >20%% in every seed, equivalent within 5%%):\n", decided[0].Baseline)
			for _, e := range decided {
				fmt.Fprintf(&b, "- %s, %s: %+.1f%% mean — %s\n", e.Label, e.Column, e.Mean*100, e.Class)
			}
		}
	}
	if s.Finding != "" {
		fmt.Fprintf(&b, "\n**Measured.** %s\n", s.Finding)
	}
	return b.String()
}

// decidedEffects keeps the classifications worth reporting (significant or
// equivalent), in table order.
func decidedEffects(effects []Effect) []Effect {
	var out []Effect
	for _, e := range effects {
		if e.Class == EffectSignificant || e.Class == EffectEquivalent {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}

// seedList renders "1, 2, 3".
func seedList(seeds []int64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprintf("%d", s)
	}
	return strings.Join(parts, ", ")
}
