// Live runtime through the backend-neutral API: the same core.Config,
// core.Workload and fault plan that drive the discrete-event simulator,
// handed to core.ByName("live") — one goroutine per node, a buffered
// channel per inbox, actual asynchrony. A Burst plan kills two nodes
// mid-run on the wall clock; every parent reissues the retained task
// packets it had placed there (§3), and determinacy (§2.1) delivers the
// reference answer regardless of the nondeterministic interleaving.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/faults"
	_ "repro/internal/livenet" // register the "live" backend
)

func main() {
	w, err := core.StandardWorkload("fib:18")
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{Procs: 6, Seed: 7, Recovery: "rollback"}

	fmt.Printf("backends registered: %v\n", core.Backends())

	// Run the same workload on both substrates through one interface.
	for _, backend := range []string{"sim", "live"} {
		// Kill node 2 early and node 4 later; the live backend maps the
		// virtual ticks onto the wall clock (2µs per tick).
		plan := core.CrashPlan(2, 2000, true).
			Add(faults.Fault{At: 6000, Proc: 4, Kind: faults.CrashAnnounced})
		rep, err := core.VerifyOn(backend, cfg, w, plan)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s backend (%d processors):\n", backend, rep.Procs)
		fmt.Printf("  answer   : %v (verified against the sequential reference)\n", rep.Answer)
		fmt.Printf("  makespan : %d %s\n", rep.Makespan, rep.Unit)
		fmt.Printf("  traffic  : %d messages, %d tasks spawned\n", rep.Messages, rep.Metrics.TasksSpawned)
		fmt.Printf("  recovery : %d reissues, %d drained dead letters\n", rep.Reissued, rep.Drained)
		if rep.ReissuesByNode != nil {
			fmt.Printf("  per node : reissues %v\n", rep.ReissuesByNode)
		}
	}
	fmt.Println("\nSame API, same answer, two substrates: the paper's recovery needs")
	fmt.Println("nothing from the simulator — only retained task packets (§2) and")
	fmt.Println("determinacy (§2.1).")
}
