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
// Every report ends with the line that reproduces the run (`run :`), and
// every failure after the flags parse repeats it on stderr (`apsim: rerun:`).
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
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	_ "repro/internal/livenet" // register the "live" backend
	"repro/internal/netnode"   // register the "net" backend
)

// run is what one apsim command line sets, each flag bound to its field.
type run struct {
	cfg                                     core.Config
	plan                                    faults.Plan
	workload, program, entry, args, backend string
	cpuProf, memProf                        string
	replicate, requests                     int
	cpuFile                                 *os.File // the CPU profile being written
}

// bind defines apsim's flags on fs.
func (r *run) bind(fs *flag.FlagSet) {
	r.cfg.BindFlags(fs)
	fs.StringVar(&r.workload, "workload", "fib:14", "workload spec: fib:N tak:X,Y,Z nqueens:N sumrange:N msort:N tree:F,D binom:N,K")
	fs.StringVar(&r.program, "program", "", "path to a program file (overrides -workload; see internal/lang.Parse for the syntax)")
	fs.StringVar(&r.entry, "entry", "main", "entry function for -program")
	fs.StringVar(&r.args, "args", "", "comma-separated integer arguments for -program's entry function")
	fs.IntVar(&r.replicate, "replicate", 1, "replica count for every function (§5.3; requires -recovery none)")
	fs.StringVar(&r.backend, "backend", "sim", "execution backend: sim (virtual time), live (goroutine cluster, wall time) or net (process-per-node over sockets, crash = SIGKILL)")
	fs.Var(&r.plan, "fault", "fault `plan`, e.g. 2@3000 or 1@2000s,3@4000c; in service mode times are stream-clock ticks")
	fs.IntVar(&r.requests, "requests", 0, "service mode: serve N copies of the workload through one open cluster (0 = one-shot)")
	fs.StringVar(&r.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file (profile with `go tool pprof`)")
	fs.StringVar(&r.memProf, "memprofile", "", "write an allocation profile of the run to this file")
}

// runLine is the command line that reproduces a run: every flag of fs whose
// value differs from its default, in name order, quoted for a POSIX shell.
func runLine(fs *flag.FlagSet) string {
	line := "apsim"
	fs.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != f.DefValue {
			if strings.ContainsFunc(v, func(c rune) bool { return !strings.ContainsRune(shellSafe, c) }) {
				v = "'" + strings.ReplaceAll(v, "'", `'\''`) + "'"
			}
			line += " -" + f.Name + "=" + v
		}
	})
	return line
}

// shellSafe is every character a shell word may hold unquoted.
const shellSafe = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789@%+=:,./_-"

func main() {
	// A re-exec'd node process enters here and never returns; must run
	// before flag parsing (the node marker argv is not a flag).
	netnode.ChildMain()
	var r run
	r.bind(flag.CommandLine)
	flag.Parse()

	// A flag that cannot take effect is a mistake, not a no-op: the stream
	// flags only mean something in service mode, and a stream report carries
	// no event trace.
	if r.requests <= 0 {
		var stray []string
		flag.Visit(func(f *flag.Flag) {
			if slices.Contains([]string{"arrive", "max-inflight", "admission"}, f.Name) {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			r.fail(2, strings.Join(stray, ", ")+": service-stream flags need -requests N")
		}
	} else if r.cfg.Trace {
		r.fail(2, "-trace prints the event trace of a one-shot run: drop it or -requests")
	}

	if r.cpuProf != "" {
		f, err := os.Create(r.cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			r.fail(1, err)
		}
		r.cpuFile = f
	}
	// fail also runs this, so profiles of failing runs — the ones most worth
	// profiling — are still written out intact.
	defer r.finishProfiles()

	w, err := r.load()
	if err != nil {
		r.fail(1, err)
	}
	if r.replicate > 1 {
		r.cfg.Replication = map[string]int{}
		for _, fn := range w.Program.Names() {
			r.cfg.Replication[fn] = r.replicate
		}
	}
	if r.requests > 0 {
		r.serve(w)
		return
	}
	rep, err := r.cfg.RunOn(r.backend, w, &r.plan)
	if err != nil {
		r.fail(1, err)
	}
	if r.cfg.Trace && rep.Sim != nil && rep.Sim.Log != nil {
		fmt.Print(rep.Sim.Log.String())
		fmt.Println()
	}
	label := r.workload
	if r.program != "" {
		label = fmt.Sprintf("%s:%s(%s)", r.program, r.entry, r.args)
	}
	fmt.Printf("workload   : %s\n", label)
	if rep.Sim != nil {
		fmt.Printf("machine    : %d processors, %s, placement=%s, recovery=%s, seed=%d\n",
			rep.Procs, r.cfg.Topology, rep.Placement, rep.Scheme, r.cfg.Seed)
	} else {
		kind := "live goroutine nodes"
		if rep.Backend == "net" {
			kind = "node processes"
		}
		fmt.Printf("machine    : %d %s (backend=%s), placement=%s, recovery=%s, seed=%d\n",
			rep.Procs, kind, rep.Backend, rep.Placement, rep.Scheme, r.cfg.Seed)
	}
	if len(r.plan.Faults) > 0 {
		fmt.Printf("faults     : %v\n", r.plan.Faults)
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
	} else {
		fmt.Printf("makespan   : %d µs wall clock\n", rep.Makespan)
	}
	fmt.Println("metrics    :")
	for _, row := range rep.Metrics.Rows() {
		fmt.Printf("  %s\n", row)
	}
	if rep.Sim == nil {
		fmt.Printf("reissues   : per node %v\n", rep.ReissuesByNode)
	}
	fmt.Println("run        :", runLine(flag.CommandLine))
	if wrong != nil {
		r.fail(1, wrong)
	}
}

// serve runs service mode: open one cluster, stream copies of the workload
// through it with the fault plan landing on the stream clock, and print the
// stream report with every answer checked against the reference. An
// admitted request left unanswered exits with status 1 after the full
// report; a shed one is admission data.
func (r *run) serve(w core.Workload) {
	cl, err := core.OpenOn(r.backend, r.cfg)
	if err != nil {
		r.fail(1, err)
	}
	for i := 0; i < r.requests; i++ {
		cl.Submit(w)
	}
	if len(r.plan.Faults) > 0 {
		if err := cl.Inject(&r.plan); err != nil {
			r.fail(1, err)
		}
	}
	verified, timeouts, shed, err := cl.VerifyAll(false)
	if err != nil {
		r.fail(1, err)
	}
	sr, err := cl.Close()
	if err != nil {
		r.fail(1, err)
	}
	fmt.Print(sr.Render())
	fmt.Printf("reference  : %d/%d answers match the sequential reference evaluator", verified, r.requests)
	if timeouts > 0 {
		fmt.Printf(" (%d timed out)", timeouts)
	}
	if shed > 0 {
		fmt.Printf(" (%d shed by admission control)", shed)
	}
	fmt.Println()
	fmt.Println("run        :", runLine(flag.CommandLine))
	if timeouts > 0 {
		r.fail(1, fmt.Errorf("%d of %d requests timed out", timeouts, r.requests))
	}
}

// load is the workload the run evaluates: a -workload spec, or the -program
// file's -entry function applied to the comma-separated integers of -args.
func (r *run) load() (core.Workload, error) {
	if r.program == "" {
		return core.StandardWorkload(r.workload)
	}
	src, err := os.ReadFile(r.program)
	if err != nil {
		return core.Workload{}, err
	}
	w := core.Workload{Fn: r.entry}
	if w.Program, err = lang.Parse(string(src)); err != nil || r.args == "" {
		return w, err
	}
	for part := range strings.SplitSeq(r.args, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return w, fmt.Errorf("bad argument %q: %v", part, err)
		}
		w.Args = append(w.Args, expr.VInt(v))
	}
	return w, nil
}

// finishProfiles stops the CPU profile and writes the allocation profile.
// It runs once: on return from main, or from fail, since os.Exit skips
// deferred calls.
func (r *run) finishProfiles() {
	if r.cpuFile != nil {
		pprof.StopCPUProfile()
		r.cpuFile.Close()
	}
	if r.memProf == "" {
		return
	}
	f, err := os.Create(r.memProf)
	if err == nil {
		runtime.GC() // settle live heap so the profile reflects retained state
		err = errors.Join(pprof.Lookup("allocs").WriteTo(f, 0), f.Close())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "apsim:", err)
	}
}

// fail says why the run failed and which command line reproduces it, then
// exits with the given status: 2 for flags that cannot mean what was asked,
// as the flag package reports a bad flag, and 1 for a run that failed.
func (r *run) fail(status int, why any) {
	r.finishProfiles()
	fmt.Fprintln(os.Stderr, "apsim:", why)
	fmt.Fprintln(os.Stderr, "apsim: rerun:", runLine(flag.CommandLine))
	os.Exit(status)
}
