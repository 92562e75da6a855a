// Command experiments regenerates every reproduction artifact indexed in
// EXPERIMENTS.md: the figure scenarios F1–F7, the quantitative tables
// T1–T7, ablations A1–A4, stress scenarios S1–S6 and the service stream L3,
// all on the simulator in virtual time. Its markdown output is the body of
// EXPERIMENTS.md.
//
// Artifacts resolve through internal/runner's catalog, so this command,
// the benchmarks and the tests all run the same drivers. Tables can be
// swept across several seeds and scheduled on a worker pool; multi-seed
// runs report mean/min/max per metric plus effect-size classification.
//
//	experiments                          # everything, one seed
//	experiments -exp f1                  # one artifact (ids are case-insensitive)
//	experiments -exp T3,T6               # a comma-separated subset
//	experiments -seed 7                  # different base seed
//	experiments -exp T3 -seeds 3         # seeds 1,2,3 with mean/min/max aggregates
//	experiments -seeds 3 -parallel 8     # fan the (experiment × seed) grid out
//	experiments -exp T3 -seeds 3 -json   # machine-readable per-seed + aggregate output
//	experiments -markdown -seeds 5       # self-contained EXPERIMENTS.md document
//	experiments -list                    # show the artifact ids
//
// The wall-clock backends are not artifacts: `apsim -backend live|net`
// runs them, `bash bench/run.sh` measures them, and internal/node's
// conformance suite asserts what the paper's claims owe on them.
//
// The bare (flagless) output is the concatenated artifact markdown;
// -markdown wraps it in the committed EXPERIMENTS.md document — provenance
// header, contents table, then the artifacts — whose bytes are a pure
// function of the flags, so CI regenerates the file and fails on drift.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/runner"
)

func main() {
	// Batch harness, not a resident service: the simulator's hot loop is
	// allocation-heavy and on one core every collection steals mutator
	// time, so trade heap headroom for wall time. Every virtual-time
	// artifact is GC-invariant.
	debug.SetGCPercent(400)
	var (
		exp      = flag.String("exp", "all", "artifacts: all, one id (F1/F2/F5/F6/F7, T1..T7, A1..A4, S1..S6, L3, any case; see -list), or a comma-separated list")
		seed     = flag.Int64("seed", 1, "base random seed for the quantitative tables")
		seeds    = flag.Int("seeds", 1, "number of consecutive seeds to sweep (seed, seed+1, ...)")
		parallel = flag.Int("parallel", 0, "worker goroutines for the (experiment × seed) grid (0 = GOMAXPROCS; the output is identical at every width)")
		asJSON   = flag.Bool("json", false, "emit JSON (per-seed tables plus aggregates) instead of markdown")
		asDoc    = flag.Bool("markdown", false, "emit the self-contained EXPERIMENTS.md document (header + contents + artifacts)")
		list     = flag.Bool("list", false, "list the artifacts and exit")
		shards   = flag.Int("shards", 1, "simulation kernel shards per cell (0 = GOMAXPROCS); every artifact is byte-identical at every shard count, so this only trades wall-clock time")
		eval     = flag.String("eval", "", "evaluator for task reduction passes: "+strings.Join(lang.Evaluators(), "|")+" (default interp); every artifact is byte-identical under either, so this only trades wall-clock time")
	)
	flag.Parse()
	if *shards <= 0 {
		core.DefaultShards = runtime.GOMAXPROCS(0)
	} else {
		core.DefaultShards = *shards
	}
	if *eval != "" {
		if _, err := lang.EvaluatorByName(*eval); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		core.DefaultEval = *eval
	}
	if *asJSON && *asDoc {
		fmt.Fprintln(os.Stderr, "experiments: -json and -markdown are mutually exclusive")
		os.Exit(2)
	}

	if *list {
		for _, e := range runner.Artifacts {
			fmt.Printf("%-4s %-7s %s\n", e.ID, e.Kind(), e.Title)
		}
		return
	}

	results, runErr := runner.Artifacts.RunIDs(*exp, runner.Options{
		Seeds:    runner.SeedRange(*seed, *seeds),
		Parallel: *parallel,
	})
	if runErr != nil && results == nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", runErr)
		os.Exit(2) // bad request (e.g. unknown artifact id)
	}
	// A per-artifact failure still renders everything that succeeded (the
	// failed artifacts carry their error inline) before exiting non-zero.
	switch {
	case *asJSON:
		out, err := runner.RenderJSON(results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
	case *asDoc:
		fmt.Print(runner.RenderDocument(results, runner.DocumentOptions{
			Command: runner.DocumentCommand(*exp, *seed, *seeds),
			Seeds:   runner.SeedRange(*seed, *seeds),
		}))
	default:
		fmt.Print(runner.RenderMarkdown(results))
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", runErr)
		os.Exit(1)
	}
}
