package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// fakeReport builds a synthetic completed report with a linear state ramp.
func fakeReport(makespan int64, procs int) *machine.Report {
	rep := &machine.Report{Completed: true, Makespan: sim.Time(makespan), Procs: procs}
	for t := int64(100); t < makespan; t += 100 {
		rep.StateSamples = append(rep.StateSamples, machine.StateSample{
			Time: sim.Time(t), Tasks: int(t / 10), Bytes: t * 8,
		})
	}
	return rep
}

func TestModelValidation(t *testing.T) {
	rep := fakeReport(10_000, 8)
	if _, err := Model(PGCParams{Interval: 0}, rep); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := Model(DefaultPGCParams(1000), &machine.Report{}); err == nil {
		t.Error("incomplete run accepted")
	}
	noSamples := &machine.Report{Completed: true, Makespan: 1000, Procs: 4}
	if _, err := Model(DefaultPGCParams(100), noSamples); err == nil {
		t.Error("run without samples accepted")
	}
}

func TestModelCheckpointCount(t *testing.T) {
	rep := fakeReport(10_000, 8)
	out, err := Model(DefaultPGCParams(1000), rep)
	if err != nil {
		t.Fatal(err)
	}
	if out.Checkpoints != 9 { // at 1000, 2000, ... 9000
		t.Fatalf("checkpoints = %d, want 9", out.Checkpoints)
	}
	if out.PauseTotal <= 0 || out.SnapshotBytes <= 0 {
		t.Fatalf("pause=%d bytes=%d", out.PauseTotal, out.SnapshotBytes)
	}
	if out.Makespan != out.BaseMakespan+out.PauseTotal {
		t.Fatalf("makespan accounting wrong: %d vs %d+%d", out.Makespan, out.BaseMakespan, out.PauseTotal)
	}
	if out.ControlMessages != int64(9*3*8) {
		t.Fatalf("control messages = %d", out.ControlMessages)
	}
}

func TestModelIntervalTradeoff(t *testing.T) {
	// Short intervals mean more pause overhead.
	rep := fakeReport(50_000, 16)
	short, err := Model(DefaultPGCParams(1_000), rep)
	if err != nil {
		t.Fatal(err)
	}
	long, err := Model(DefaultPGCParams(10_000), rep)
	if err != nil {
		t.Fatal(err)
	}
	if short.PauseTotal <= long.PauseTotal {
		t.Errorf("short-interval pause %d should exceed long-interval pause %d",
			short.PauseTotal, long.PauseTotal)
	}
}

func TestModelOnRealRun(t *testing.T) {
	// End-to-end: run the real machine with state probes, model PGC on it.
	w, err := core.StandardWorkload("fib:12")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Procs: 8, Recovery: "none", Seed: 3,
		StateProbeEvery: 50,
	}
	rep, err := cfg.Verify(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sim.StateSamples) == 0 {
		t.Fatal("no state samples collected")
	}
	out, err := Model(DefaultPGCParams(int64(rep.Makespan)/10), rep.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if out.Checkpoints < 5 || out.Checkpoints > 15 {
		t.Errorf("checkpoints = %d, want ~9", out.Checkpoints)
	}
	if out.Makespan <= out.BaseMakespan {
		t.Error("PGC pauses did not extend the makespan")
	}
}

func TestReplicateAll(t *testing.T) {
	m := ReplicateAll([]string{"f", "g"}, 3)
	if len(m) != 2 || m["f"] != 3 || m["g"] != 3 {
		t.Fatalf("ReplicateAll = %v", m)
	}
}
