package core

import (
	"strings"
	"testing"
)

func TestBackendRegistry(t *testing.T) {
	b, err := ByName("sim")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "sim" {
		t.Fatalf("sim backend name = %q", b.Name())
	}
	if _, err := ByName("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend error = %v", err)
	}
	names := Backends()
	if len(names) == 0 || names[0] != "sim" {
		t.Fatalf("Backends() = %v, want sim first", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate backend registration accepted")
		}
	}()
	MustRegisterBackend(simBackend{})
}

func TestSimBackendNeutralReport(t *testing.T) {
	w, err := StandardWorkload("fib:10")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Procs: 8, Seed: 3, Recovery: "rollback"}
	rep, err := cfg.RunOn("sim", w, CrashPlan(1, 300, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "sim" || rep.Unit != Ticks {
		t.Fatalf("backend/unit = %q/%q", rep.Backend, rep.Unit)
	}
	if rep.Sim == nil {
		t.Fatal("sim detail missing")
	}
	if rep.Makespan != int64(rep.Sim.Makespan) {
		t.Fatalf("makespan %d != sim %d", rep.Makespan, rep.Sim.Makespan)
	}
	m := &rep.Sim.Metrics
	if rep.Messages != m.TotalMessages() || rep.Spawned != m.TasksSpawned ||
		rep.Reissued != m.Reissues || rep.Recoveries != m.Reissues+m.Twins ||
		rep.Drained != m.DupResults+m.LateResults {
		t.Fatalf("neutral counters diverge from metrics: %+v", rep)
	}
	if rep.Reissued == 0 {
		t.Fatal("crash under rollback reissued nothing")
	}
	// Config.Run is the sim backend by definition.
	rep2, err := cfg.Run(w, CrashPlan(1, 300, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Makespan != rep.Makespan || rep2.Messages != rep.Messages {
		t.Fatalf("Config.Run diverged from RunOn(sim): %d/%d vs %d/%d",
			rep2.Makespan, rep2.Messages, rep.Makespan, rep.Messages)
	}
}

func TestVerifyOn(t *testing.T) {
	w, err := StandardWorkload("fib:10")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyOn("sim", Config{Seed: 2}, w, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyOn("nosuch", Config{}, w, nil); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestShapeWorkloads(t *testing.T) {
	for _, spec := range []string{
		"shape:uniform:3,3,4",
		"shape:skew:2,5,3",
		"shape:random:7,3,4,5",
	} {
		w, err := StandardWorkload(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if w.Program == nil || w.Fn == "" {
			t.Fatalf("%s: empty workload", spec)
		}
		// Shapes must run (and verify) like any bundled program.
		if _, err := (Config{Procs: 4, Seed: 1, Recovery: "rollback"}).Verify(w, nil); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
	for _, bad := range []string{
		"shape:uniform:3,3",     // too few args
		"shape:uniform:3,3,4,9", // trailing input must not parse as the 3-arg form
		"shape:nosuch:1,2,3",
		"shape:",
	} {
		if _, err := StandardWorkload(bad); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}
