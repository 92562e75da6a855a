package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
)

// incrementalStreamRender is the incremental-scheme service stream for the
// shard sweep and the concurrent-submission race: a 16-processor mesh
// serving the determinism specs with a three-crash burst landing
// mid-stream, so every paced drain tick, demand classification, and
// dependent abort is exercised while requests keep flowing. The rendered
// report pins admissions, per-request outcomes, and the recovery-window
// counters.
func incrementalStreamRender(t *testing.T, shards int, parallel bool) string {
	t.Helper()
	cl, err := OpenOn("sim", Config{Procs: 16, Seed: 7, Recovery: "incremental",
		Arrival: "arrive:uniform:150", Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if parallel {
		var wg sync.WaitGroup
		for _, spec := range determinismSpecs {
			wg.Add(1)
			go func(spec string) {
				defer wg.Done()
				if _, err := cl.SubmitSpec(spec); err != nil {
					t.Error(err)
				}
			}(spec)
		}
		wg.Wait()
	} else {
		for _, spec := range determinismSpecs {
			if _, err := cl.SubmitSpec(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Inject(faults.Burst(16, 3, 400, faults.CrashAnnounced, 7)); err != nil {
		t.Fatal(err)
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed == 0 {
		t.Fatalf("shards=%d incremental stream completed nothing:\n%s", shards, sr.Render())
	}
	if sr.Totals == nil || sr.Totals.Sim == nil || sr.Totals.Sim.Metrics.PacedReissues == 0 {
		t.Fatalf("shards=%d stream exercised no paced reissues — the burst missed the stream:\n%s",
			shards, sr.Render())
	}
	return sr.Render()
}

// TestIncrementalStreamShardSweep: the incremental-scheme service stream
// renders byte-identically at every shard count. The paced drain runs on
// per-proc Defer timers scheduled on the owning shard's kernel, so the
// demand classification, reissue order, and dependent aborts must all be
// shard-count-invariant.
func TestIncrementalStreamShardSweep(t *testing.T) {
	ref := incrementalStreamRender(t, 1, false)
	for _, shards := range []int{2, 4, 8} {
		if got := incrementalStreamRender(t, shards, false); got != ref {
			t.Fatalf("shards=%d incremental stream diverged:\n--- 1 shard ---\n%s--- %d shards ---\n%s",
				shards, ref, shards, got)
		}
	}
}

// TestIncrementalConcurrentSubmit is the -race stress for the incremental
// scheme: requests raced in from several goroutines against a 4-shard
// kernel must produce the byte-identical report of the sequential
// single-shard stream, paced recovery and all.
func TestIncrementalConcurrentSubmit(t *testing.T) {
	ref := incrementalStreamRender(t, 1, false)
	for run := 0; run < 3; run++ {
		if got := incrementalStreamRender(t, 4, true); got != ref {
			t.Fatalf("concurrent incremental stream diverged (run %d):\n--- sequential/1 ---\n%s--- parallel/4 ---\n%s",
				run, ref, got)
		}
	}
}

// TestSchemeRegistryMatchesConfigError: machine-level config validation
// speaks the recovery registry's exact vocabulary — every registered scheme
// (incremental included) round-trips through Config.Run, and the unknown-
// scheme error text lists the registered names verbatim.
func TestSchemeRegistryMatchesConfigError(t *testing.T) {
	w, err := StandardWorkload("fib:8")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"incremental", "none", "rollback",
		"rollback-lazy", "rollback-nosuppress", "splice"} {
		rep, err := (Config{Procs: 4, Recovery: name}).Run(w, nil)
		if err != nil || rep.Err != nil {
			t.Fatalf("registered scheme %q rejected: %v / %v", name, err, rep)
		}
	}
	_, err = (Config{Procs: 4, Recovery: "nosuch"}).Run(w, nil)
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	want := "incremental, none, rollback, rollback-lazy, rollback-nosuppress, splice"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("unknown-scheme error does not list the registry:\n got: %v\nwant substring: %s", err, want)
	}
}
