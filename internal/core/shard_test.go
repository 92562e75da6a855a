package core

import (
	"sync"
	"testing"
)

// shardStreamRender opens a sim cluster with the given shard count on a
// 32-processor torus, submits the determinism specs (from eight goroutines
// when parallel), injects a mid-stream crash, and returns the rendered
// service report.
func shardStreamRender(t *testing.T, shards int, parallel bool) string {
	t.Helper()
	cl, err := OpenOn("sim", Config{Procs: 32, Topology: "torus", Seed: 11,
		Recovery: "rollback", Arrival: "arrive:uniform:120", Shards: shards})
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
	if err := cl.Inject(CrashPlan(3, 900, true)); err != nil {
		t.Fatal(err)
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != len(determinismSpecs) {
		t.Fatalf("shards=%d stream incomplete:\n%s", shards, sr.Render())
	}
	return sr.Render()
}

// TestShardedClusterDeterminism is the cross-shard stress cell: a 4-shard
// torus stream with requests raced in from eight goroutines must render the
// byte-identical service report of the single-shard sequential stream. Under
// `go test -race` this doubles as the data-race probe for the sharded
// kernel's window barriers, per-pair event queues, and pooled message
// recycling, with concurrent Submit hammering the admission path while shard
// workers run.
func TestShardedClusterDeterminism(t *testing.T) {
	ref := shardStreamRender(t, 1, false)
	for run := 0; run < 3; run++ {
		if got := shardStreamRender(t, 4, true); got != ref {
			t.Fatalf("4-shard parallel stream diverged (run %d):\n--- 1 shard ---\n%s--- 4 shards ---\n%s",
				run, ref, got)
		}
	}
}
