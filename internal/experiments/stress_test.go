package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
)

func TestS1TopologySweepShape(t *testing.T) {
	tb, err := S1TopologySweep("fib:13", 1)
	if err != nil {
		t.Fatal(err)
	}
	kinds := topology.Kinds()
	if len(tb.Rows) != len(kinds) {
		t.Fatalf("rows = %d, want one per kind (%d)", len(tb.Rows), len(kinds))
	}
	for i, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(tb.Columns))
		}
		// Each row's label names the topology it ran on.
		if !strings.Contains(row[0].Text, strings.TrimSuffix(kinds[i], "ular")) &&
			kinds[i] != "tree" { // tree renders as "btree(64)"
			t.Errorf("row %d label %q does not match kind %q", i, row[0].Text, kinds[i])
		}
		// Makespan and message counts are positive measurements.
		if !row[2].IsNum || row[2].Num <= 0 {
			t.Errorf("row %d (%s): makespan cell %+v", i, row[0].Text, row[2])
		}
		if !row[3].IsNum || row[3].Num <= 0 {
			t.Errorf("row %d (%s): messages cell %+v", i, row[0].Text, row[3])
		}
	}
	// The sweep must actually include the generator-backed shapes.
	labels := make([]string, len(tb.Rows))
	for i, row := range tb.Rows {
		labels[i] = row[0].Text
	}
	joined := strings.Join(labels, " ")
	for _, want := range []string{"torus", "btree", "regular", "hypercube"} {
		if !strings.Contains(joined, want) {
			t.Errorf("sweep missing %q: %v", want, labels)
		}
	}
}

func TestS2CascadeRecoveryShape(t *testing.T) {
	tb, err := S2CascadeRecovery(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(s2Cascades); len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d (plans × schemes)", len(tb.Rows), want)
	}
	// Crash counts must grow with the wave count for the full-spread plans
	// (rows come in scheme pairs per plan).
	single := tb.Rows[0][1].Num
	wave1 := tb.Rows[2][1].Num
	wave2 := tb.Rows[4][1].Num
	if !(single == 1 && wave1 > single && wave2 > wave1) {
		t.Errorf("crash counts not increasing: %v, %v, %v", single, wave1, wave2)
	}
	for i, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("row %d ragged", i)
		}
	}
}

func TestS3FaultDensityShape(t *testing.T) {
	tb, err := S3FaultDensity(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 2*len(s3Densities); len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), want)
	}
	// Row 0 is the fault-free baseline and must have completed.
	if tb.Rows[0][2].Text != "true" {
		t.Fatalf("baseline row did not complete: %v", tb.Rows[0])
	}
	// The sweep must actually reach the breaking point: at least one
	// incomplete run at the high densities.
	broke := false
	for _, row := range tb.Rows {
		if row[2].Text == "false" {
			broke = true
		}
	}
	if !broke {
		t.Error("density sweep never broke recovery; raise the top density")
	}
	// Low density (k=1) must still complete under both schemes.
	for _, row := range tb.Rows[1:3] {
		if row[2].Text != "true" {
			t.Errorf("k=1 row incomplete: %v", row)
		}
	}
}

// TestS3SpliceSurvivesTwelveOfSixteen pins S3's 12/16 splice cell at seed
// 1: processors 0–5, 7, 10–13 and 15 crash at once, leaving 6, 8, 9 and 14.
// Processor 6, the lowest survivor, has no live neighbour, so news that
// floods from neighbour to neighbour never reaches it: the host hears of
// the deaths only because whoever detects one tells the host directly. The
// run must answer lang.RefEval's value within S3's 20-fold deadline.
func TestS3SpliceSurvivesTwelveOfSixteen(t *testing.T) {
	const procs = 16
	w := mustWorkload("fib:13")
	m0 := mustComplete(core.Config{Procs: procs, Seed: 1, Recovery: "rollback"}, w).Makespan
	plan := faults.Burst(procs, 12, m0*2/5, faults.CrashAnnounced, 1)
	cfg := core.Config{Procs: procs, Seed: 1, Recovery: "splice", Deadline: m0 * 20}
	if _, err := cfg.Verify(w, plan); err != nil {
		t.Fatalf("splice, fault %v: %v", plan, err)
	}
}

// TestStressTablesDeterministicPerSeed reruns each driver at the same seed
// and requires identical markdown — the property that makes the runner's
// parallel schedule byte-identical to the sequential one.
func TestStressTablesDeterministicPerSeed(t *testing.T) {
	type driver struct {
		name string
		run  func(seed int64) (*Table, error)
	}
	drivers := []driver{
		{"S1", func(s int64) (*Table, error) { return S1TopologySweep("fib:13", s) }},
		{"S2", S2CascadeRecovery},
		{"S3", S3FaultDensity},
	}
	for _, d := range drivers {
		a, err := d.run(2)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		b, err := d.run(2)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if a.Markdown() != b.Markdown() {
			t.Errorf("%s not deterministic at seed 2", d.name)
		}
	}
}
