package core

import (
	"testing"

	"repro/internal/faults"
)

// BenchmarkSimWorkloads is a -cpuprofile entry point for the shapes of the
// benchmark's simulator workloads (bench/workloads.go, its own module, which
// nothing here can profile): dense is sim-dense's eight one-shot cells,
// sparse is sim-sparse's three 64-request uniform streams, and recovery is
// sim-recovery's burst: 24 poisson requests on torus-64 and hypercube-64,
// at most 8 in flight, under rollback, splice and incremental, with 12
// processors crashing silently at t = 3000 — the fault path, where a
// checkpoint is found by walking one destination's list or a parent's
// holes. All run the bytecode evaluator on one shard. The machine and fault
// seeds are fixed rather than drawn from a run seed, and every burst leaves
// the survivors connected. It is not a gate: speed claims are made and
// checked with `bash bench/run.sh`.
//
//	go test -run '^$' -bench 'SimWorkloads/sparse' -benchtime 5x -cpuprofile /tmp/sparse.prof ./internal/core
func BenchmarkSimWorkloads(b *testing.B) {
	dense := []string{"fib:18", "binom:16,8", "sumrange:20000", "tak:12,6,2"}
	mix := []string{"fib:11", "fib:12", "tree:2,4", "tak:8,4,2"}
	ws := map[string]Workload{}
	for _, spec := range append(dense, mix...) {
		w, err := StandardWorkload(spec)
		if err != nil {
			b.Fatal(err)
		}
		ws[spec] = w
	}
	cfg := func(topo string, seed int64) Config {
		return Config{Procs: 64, Topology: topo, Recovery: "rollback", Seed: seed,
			Eval: "compiled", Shards: 1, Deadline: 10_000_000}
	}
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for i, topo := range []string{"mesh", "hypercube"} {
				for j, spec := range dense {
					if _, err := cfg(topo, int64(1+i*len(dense)+j)).Verify(ws[spec], nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for i, topo := range []string{"torus", "hypercube", "regular"} {
				c := cfg(topo, int64(1+i))
				c.Arrival = "arrive:uniform:4000"
				cl, err := OpenOn("sim", c)
				if err != nil {
					b.Fatal(err)
				}
				for r := range 64 {
					cl.Submit(ws[mix[r%len(mix)]])
				}
				sr, err := cl.Close()
				if err != nil {
					b.Fatal(err)
				}
				if sr.Completed != 64 {
					b.Fatalf("%s stream: %d of 64 requests completed", topo, sr.Completed)
				}
			}
		}
	})
	b.Run("recovery", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for i, topo := range []string{"torus", "hypercube"} {
				for _, scheme := range []string{"rollback", "splice", "incremental"} {
					c := cfg(topo, int64(1+i))
					c.Recovery, c.Arrival, c.MaxInFlight, c.Admission = scheme, "arrive:poisson:0.004", 8, "queue"
					cl, err := OpenOn("sim", c)
					if err != nil {
						b.Fatal(err)
					}
					for r := range 24 {
						cl.Submit(ws[mix[r%len(mix)]])
					}
					if err := cl.Inject(faults.Burst(64, 12, 3000, faults.CrashSilent, int64(1+i))); err != nil {
						b.Fatal(err)
					}
					sr, err := cl.Close()
					if err != nil {
						b.Fatal(err)
					}
					if sr.Completed != 24 || sr.Totals.Sim.Metrics.Reissues+sr.Totals.Sim.Metrics.Twins == 0 {
						b.Fatalf("%s %s stream: %d of 24 requests completed, %d reissues, %d twins", topo, scheme,
							sr.Completed, sr.Totals.Sim.Metrics.Reissues, sr.Totals.Sim.Metrics.Twins)
					}
				}
			}
		}
	})
}
