// Command apsim runs one program on the applicative multiprocessor and
// prints what happened: the answer, the makespan, the metric counters, and
// (optionally) the full event trace.
//
// With -requests N it switches to service mode: one long-lived cluster
// (core.OpenOn) serves a stream of N copies of the workload, faults from
// -fault land on the *stream's* clock — mid-traffic, between and inside
// requests — and the report is the stream's throughput, latency
// percentiles, and per-request outcomes, every answer checked against the
// sequential reference evaluator.
//
// Examples:
//
//	apsim -workload fib:16 -procs 16 -topology mesh -placement gradient
//	apsim -workload nqueens:6 -recovery splice -fault 2@3000 -trace
//	apsim -workload tree:4,6 -recovery incremental -fault 1@2000,5@6000s
//	apsim -workload fib:12 -requests 32 -arrive uniform:100 -fault 2@4000,5@6000
//	apsim -workload fib:12 -requests 32 -arrive poisson:0.02 -max-inflight 16 -admission queue:8
//	apsim -workload fib:12 -requests 32 -backend live -fault 2@4000
//	apsim -workload fib:13 -procs 64 -recovery rollback -cpuprofile cpu.out -memprofile mem.out
//
// Fault specs are PROC@TIME (announced crash), PROC@TIMEs (silent crash) or
// PROC@TIMEc (value corruption from TIME on), comma-separated.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	_ "repro/internal/livenet" // register the "live" backend
	"repro/internal/netnode"   // register the "net" backend
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/topology"
)

func main() {
	// A re-exec'd node process enters here and never returns; must run
	// before flag parsing (the node marker argv is not a flag).
	netnode.ChildMain()
	var (
		workload  = flag.String("workload", "fib:14", "workload spec: fib:N tak:X,Y,Z nqueens:N sumrange:N msort:N tree:F,D binom:N,K")
		program   = flag.String("program", "", "path to a program file (overrides -workload; see internal/lang.Parse for the syntax)")
		entry     = flag.String("entry", "main", "entry function for -program")
		argSpec   = flag.String("args", "", "comma-separated integer arguments for -program's entry function")
		procs     = flag.Int("procs", 8, "number of processors")
		topo      = flag.String("topology", "mesh", strings.Join(topology.Kinds(), "|"))
		placement = flag.String("placement", "random", "random|gradient|static|local")
		recov     = flag.String("recovery", "", "recovery scheme: "+strings.Join(recovery.Names(), "|")+" (default none on sim, rollback on live and net, which implement rollback and none)")
		eval      = flag.String("eval", "", "evaluator for task reduction passes: "+strings.Join(lang.Evaluators(), "|")+" (default interp; traces are byte-identical either way)")
		ancestors = flag.Int("ancestors", 2, "ancestor-pointer depth K (§5.2)")
		replicate = flag.Int("replicate", 1, "replica count for every function (§5.3; requires -recovery none)")
		seed      = flag.Int64("seed", 1, "random seed")
		backend   = flag.String("backend", "sim", "execution backend: sim (virtual time), live (goroutine cluster, wall time) or net (process-per-node over sockets, crash = SIGKILL)")
		faultSpec = flag.String("fault", "", "fault plan, e.g. 2@3000 or 1@2000s,3@4000c; in service mode times are stream-clock ticks")
		showTrace = flag.Bool("trace", false, "print the event trace")
		deadline  = flag.Int64("deadline", 0, "virtual-time budget (0 = default); per-request in service mode")
		shards    = flag.Int("shards", 1, "simulation kernel shards (sim backend; 0 or negative = GOMAXPROCS); results are byte-identical at every count")
		requests  = flag.Int("requests", 0, "service mode: serve N copies of the workload through one open cluster (0 = one-shot)")
		arrive    = flag.String("arrive", "", `service mode: seeded arrival process on the sim stream clock — poisson:RATE, uniform:GAP or burst:SIZE:GAP (the "arrive:" prefix is optional; default: all requests offered at once)`)
		inflight  = flag.Int("max-inflight", 0, "service mode: bound on concurrently admitted requests (0 = unbounded)")
		admission = flag.String("admission", "", "service mode: what to do with requests over the -max-inflight bound — queue (default), queue:N (FIFO bounded at depth N) or shed")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (profile with `go tool pprof`)")
		memProf   = flag.String("memprofile", "", "write an allocation profile of the run to this file")
	)
	flag.Parse()

	// A flag that cannot take effect is a mistake, not a no-op: the stream
	// flags only mean something in service mode, and a stream report carries
	// no event trace.
	if *requests <= 0 {
		var stray []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "arrive", "max-inflight", "admission":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			misuse(strings.Join(stray, ", ") + ": service-stream flags need -requests N")
		}
	} else if *showTrace {
		misuse("-trace prints the event trace of a one-shot run: drop it or -requests")
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuProfFile = f
	}
	memProfPath = *memProf
	// fatal() also runs this, so profiles of failing runs — the ones most
	// worth profiling — are still written out intact.
	defer finishProfiles()

	var w core.Workload
	var err error
	if *program != "" {
		src, rerr := os.ReadFile(*program)
		if rerr != nil {
			fatal(rerr)
		}
		prog, perr := lang.Parse(string(src))
		if perr != nil {
			fatal(perr)
		}
		args, aerr := parseArgs(*argSpec)
		if aerr != nil {
			fatal(aerr)
		}
		w = core.Workload{Program: prog, Fn: *entry, Args: args}
	} else if w, err = core.StandardWorkload(*workload); err != nil {
		fatal(err)
	}
	plan, err := parseFaults(*faultSpec)
	if err != nil {
		fatal(err)
	}
	if *shards == 0 {
		*shards = -1 // 0 on the CLI means "derive from GOMAXPROCS"
	}
	cfg := core.Config{
		Procs:         *procs,
		Topology:      *topo,
		Placement:     *placement,
		Recovery:      *recov,
		Eval:          *eval,
		AncestorDepth: *ancestors,
		Seed:          *seed,
		Shards:        *shards,
		Trace:         *showTrace,
		Deadline:      *deadline,
	}
	if *replicate > 1 {
		cfg.Replication = map[string]int{}
		for _, fn := range w.Program.Names() {
			cfg.Replication[fn] = *replicate
		}
	}
	if *requests > 0 {
		if *arrive != "" {
			cfg.Arrival = "arrive:" + strings.TrimPrefix(*arrive, "arrive:")
		}
		cfg.MaxInFlight = *inflight
		cfg.Admission = *admission
		serve(*backend, cfg, w, plan, *requests)
		return
	}
	rep, err := cfg.RunOn(*backend, w, plan)
	if err != nil {
		fatal(err)
	}
	if rep.Err != nil {
		fatal(rep.Err)
	}
	if *showTrace && rep.Sim != nil && rep.Sim.Log != nil {
		fmt.Print(rep.Sim.Log.String())
		fmt.Println()
	}
	label := *workload
	if *program != "" {
		label = fmt.Sprintf("%s:%s(%s)", *program, *entry, *argSpec)
	}
	fmt.Printf("workload   : %s\n", label)
	if rep.Sim != nil {
		fmt.Printf("machine    : %d processors, %s, placement=%s, recovery=%s, seed=%d\n",
			rep.Procs, *topo, rep.Placement, rep.Scheme, *seed)
	} else {
		kind := "live goroutine nodes"
		if rep.Backend == "net" {
			kind = "node processes"
		}
		fmt.Printf("machine    : %d %s (backend=%s), placement=%s, recovery=%s, seed=%d\n",
			rep.Procs, kind, rep.Backend, rep.Placement, rep.Scheme, *seed)
	}
	if len(plan.Faults) > 0 {
		fmt.Printf("faults     : %v\n", plan.Faults)
	}
	var wrong error // a wrong or missing answer: exit status 1, after the full report
	if rep.Completed {
		fmt.Printf("answer     : %s\n", rep.Answer)
		// Cross-check against the sequential reference evaluator.
		want, err := lang.RefEval(w.Program, w.Fn, w.Args)
		if err == nil {
			if rep.Answer.Equal(want) {
				fmt.Printf("reference  : %s (match)\n", want)
			} else {
				fmt.Printf("reference  : %s (MISMATCH)\n", want)
				wrong = fmt.Errorf("answer %s differs from the sequential reference %s", rep.Answer, want)
			}
		}
	} else {
		fmt.Printf("answer     : NONE — run did not complete by t=%d\n", rep.Makespan)
		wrong = fmt.Errorf("run did not complete by t=%d", rep.Makespan)
	}
	if rep.Sim != nil {
		fmt.Printf("makespan   : %d virtual ticks (%d events)\n", rep.Makespan, rep.Sim.Events)
		fmt.Println("metrics    :")
		for _, row := range rep.Sim.Metrics.Rows() {
			fmt.Printf("  %s\n", row)
		}
	} else {
		fmt.Printf("makespan   : %d µs wall clock\n", rep.Makespan)
		fmt.Printf("counters   : %d messages (%d bytes), %s, %d reissued, %d drained\n",
			rep.Messages, rep.MsgBytes, rep.SpawnedLabel(), rep.Reissued, rep.Drained)
		fmt.Printf("reissues   : per node %v\n", rep.ReissuesByNode)
	}
	if wrong != nil {
		fatal(wrong)
	}
}

// serve runs service mode: open one cluster, stream n copies of the
// workload through it with the fault plan landing on the stream clock, and
// print the stream report with every answer checked against the reference.
func serve(backend string, cfg core.Config, w core.Workload, plan *faults.Plan, n int) {
	cl, err := core.OpenOn(backend, cfg)
	if err != nil {
		fatal(err)
	}
	for i := 0; i < n; i++ {
		cl.Submit(w)
	}
	if len(plan.Faults) > 0 {
		if err := cl.Inject(plan); err != nil {
			fatal(err)
		}
	}
	verified, timeouts, shed, err := cl.VerifyAll(false)
	if err != nil {
		fatal(err)
	}
	sr, err := cl.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Print(sr.Render())
	fmt.Printf("reference  : %d/%d answers match the sequential reference evaluator", verified, n)
	if timeouts > 0 {
		fmt.Printf(" (%d timed out)", timeouts)
	}
	if shed > 0 {
		fmt.Printf(" (%d shed by admission control)", shed)
	}
	fmt.Println()
}

// parseFaults parses "2@3000,1@4000s,5@100c".
func parseFaults(spec string) (*faults.Plan, error) {
	plan := faults.None()
	if spec == "" {
		return plan, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kind := faults.CrashAnnounced
		switch {
		case strings.HasSuffix(part, "s"):
			kind = faults.CrashSilent
			part = strings.TrimSuffix(part, "s")
		case strings.HasSuffix(part, "c"):
			kind = faults.Corrupt
			part = strings.TrimSuffix(part, "c")
		}
		bits := strings.SplitN(part, "@", 2)
		if len(bits) != 2 {
			return nil, fmt.Errorf("bad fault %q (want PROC@TIME[s|c])", part)
		}
		p, err := strconv.Atoi(bits[0])
		if err != nil {
			return nil, fmt.Errorf("bad fault processor %q: %v", bits[0], err)
		}
		at, err := strconv.ParseInt(bits[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad fault time %q: %v", bits[1], err)
		}
		plan.Add(faults.Fault{At: at, Proc: proto.ProcID(p), Kind: kind})
	}
	return plan, nil
}

// parseArgs parses "3,5" into integer values.
func parseArgs(spec string) ([]expr.Value, error) {
	if spec == "" {
		return nil, nil
	}
	var out []expr.Value
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad argument %q: %v", part, err)
		}
		out = append(out, expr.VInt(v))
	}
	return out, nil
}

// Profile state shared with fatal(): os.Exit skips defers, so error exits
// flush the profiles explicitly.
var (
	cpuProfFile *os.File
	memProfPath string
)

// finishProfiles stops the CPU profile and writes the allocation profile.
// Idempotent: both the normal defer and fatal() call it.
func finishProfiles() {
	if cpuProfFile != nil {
		pprof.StopCPUProfile()
		cpuProfFile.Close()
		cpuProfFile = nil
	}
	if memProfPath != "" {
		path := memProfPath
		memProfPath = ""
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apsim:", err)
			return
		}
		runtime.GC() // settle live heap so the profile reflects retained state
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "apsim:", err)
		}
		f.Close()
	}
}

// misuse reports a flag combination that cannot mean what was asked, the
// way the flag package reports a bad flag: exit status 2.
func misuse(msg string) {
	fmt.Fprintln(os.Stderr, "apsim:", msg)
	os.Exit(2)
}

func fatal(err error) {
	finishProfiles()
	fmt.Fprintln(os.Stderr, "apsim:", err)
	os.Exit(1)
}
