package runner

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// cliIDs is every artifact cmd/experiments accepts; the catalog must
// resolve each one, in either case.
var cliIDs = []string{
	"F1", "F2", "F5", "F6", "F7",
	"T1", "T2", "T3", "T4", "T5", "T6", "T7",
	"A1", "A2", "A3", "A4",
	"S1", "S2", "S3", "S4", "S5", "S6",
	"L3",
}

func TestDefaultRegistryResolvesEveryCLIID(t *testing.T) {
	for _, id := range cliIDs {
		for _, variant := range []string{id, strings.ToLower(id), " " + id + " "} {
			got, err := Artifacts.Resolve(variant)
			if err != nil || len(got) != 1 || got[0].ID != id {
				t.Fatalf("Resolve(%q) = %v, %v", variant, got.IDs(), err)
			}
		}
	}
	if got := Artifacts.IDs(); strings.Join(got, ",") != strings.Join(cliIDs, ",") {
		t.Fatalf("catalog lists %v, CLI documents %v", got, cliIDs)
	}
	all, err := Artifacts.Resolve("all")
	if err != nil || len(all) != len(cliIDs) {
		t.Fatalf("Resolve(all) = %d experiments, err %v", len(all), err)
	}
	subset, err := Artifacts.Resolve("t6, f1 ,A2,t6")
	if err != nil {
		t.Fatal(err)
	}
	// Report order, not request order, and each artifact once.
	if got := strings.Join(subset.IDs(), ","); got != "F1,T6,A2" {
		t.Fatalf("Resolve subset order = %v", got)
	}
	if _, err := Artifacts.Resolve("T1,T9"); err == nil || !strings.Contains(err.Error(), `"T9" (known: F1, `) {
		t.Fatalf("Resolve(T1,T9) = %v, want the unknown id and the known list", err)
	}
	if _, err := Artifacts.Resolve(" , "); err == nil {
		t.Fatal("Resolve of an empty list should fail")
	}
}

// TestArtifactsWellFormed holds the catalog literal to the rules a
// registration call used to enforce at run time.
func TestArtifactsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Artifacts {
		if e.ID == "" || e.ID != strings.ToUpper(strings.TrimSpace(e.ID)) {
			t.Errorf("id %q: want non-empty, upper-case, no surrounding space", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("%s: duplicate id", e.ID)
		}
		seen[e.ID] = true
		if (e.Figure == nil) == (e.Table == nil) {
			t.Errorf("%s: want exactly one of the Figure and Table drivers", e.ID)
		}
		if e.Title == "" {
			t.Errorf("%s: no title", e.ID)
		}
	}
	fig := Experiment{ID: "X", Figure: func() (string, error) { return "", nil }}
	if fig.Kind() != KindFigure || (Experiment{ID: "Y"}).Kind() != KindTable {
		t.Error("Kind must follow which driver is set")
	}
}

// syntheticCatalog builds table drivers whose output depends only on the
// seed but whose wall-clock duration varies, so a parallel schedule really
// interleaves completions out of order.
func syntheticCatalog(n int) Catalog {
	var reg Catalog
	for i := 0; i < n; i++ {
		reg = append(reg, Experiment{
			ID: fmt.Sprintf("S%d", i), Title: "synthetic",
			Table: func(seed int64) (*experiments.Table, error) {
				// Sleep 0–3ms depending on (exp, seed) to scramble the pool.
				time.Sleep(time.Duration((int64(i)*7+seed*13)%4) * time.Millisecond)
				return &experiments.Table{
					ID:      fmt.Sprintf("S%d", i),
					Title:   "synthetic",
					Columns: []string{"config", "metric"},
					Rows: [][]experiments.Cell{
						{experiments.Str("base"), experiments.Int(100 + seed)},
						{experiments.Str("cand"), experiments.Int((100 + seed) * 2)},
					},
				}, nil
			},
		})
	}
	return reg
}

// TestParallelOutputIsByteIdentical is the engine's core guarantee: a
// -parallel 8 run renders byte-for-byte the same markdown and JSON as the
// sequential schedule for the same seed list.
func TestParallelOutputIsByteIdentical(t *testing.T) {
	reg := syntheticCatalog(6)
	opt := func(par int) Options { return Options{Seeds: SeedRange(1, 8), Parallel: par} }
	seqRes, err := reg.RunIDs("all", opt(1))
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := reg.RunIDs("all", opt(8))
	if err != nil {
		t.Fatal(err)
	}
	seqMD, parMD := RenderMarkdown(seqRes), RenderMarkdown(parRes)
	if seqMD != parMD {
		t.Fatalf("markdown differs between sequential and parallel runs:\n--- seq ---\n%s\n--- par ---\n%s", seqMD, parMD)
	}
	seqJSON, err := RenderJSON(seqRes)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := RenderJSON(parRes)
	if err != nil {
		t.Fatal(err)
	}
	if seqJSON != parJSON {
		t.Fatal("JSON differs between sequential and parallel runs")
	}
}

// TestRealArtifactsDeterministicUnderParallelism runs a real figure and a
// real table through both schedules.
func TestRealArtifactsDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	reg := Artifacts
	opt := func(par int) Options { return Options{Seeds: SeedRange(1, 3), Parallel: par} }
	seq, err := reg.RunIDs("F1,T7", opt(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := reg.RunIDs("F1,T7", opt(8))
	if err != nil {
		t.Fatal(err)
	}
	if RenderMarkdown(seq) != RenderMarkdown(par) {
		t.Fatal("real artifacts render differently under parallel schedule")
	}
	if par[1].Summary == nil {
		t.Fatal("multi-seed table missing aggregate summary")
	}
	if got := len(par[1].Tables); got != 3 {
		t.Fatalf("per-seed tables = %d, want 3", got)
	}
}

func TestEngineErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	reg := Catalog{
		{ID: "OK", Table: func(seed int64) (*experiments.Table, error) {
			return &experiments.Table{ID: "OK", Columns: []string{"m"},
				Rows: [][]experiments.Cell{{experiments.Int(seed)}}}, nil
		}},
		{ID: "BAD", Table: func(seed int64) (*experiments.Table, error) {
			if seed == 2 {
				return nil, boom
			}
			return &experiments.Table{ID: "BAD", Columns: []string{"m"},
				Rows: [][]experiments.Cell{{experiments.Int(seed)}}}, nil
		}},
	}
	results, err := reg.RunIDs("all", Options{Seeds: SeedRange(1, 3), Parallel: 4})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("engine error = %v, want boom", err)
	}
	if results[0].Err != nil || results[0].Summary == nil {
		t.Fatalf("healthy experiment should still aggregate: err=%v summary=%v",
			results[0].Err, results[0].Summary)
	}
	if results[1].Err == nil {
		t.Fatal("failing experiment should carry its error")
	}
	if md := results[1].Markdown(); !strings.Contains(md, "failed") {
		t.Fatalf("failed artifact markdown = %q", md)
	}
}
