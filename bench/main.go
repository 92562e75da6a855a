// Command bench is the repository's benchmark: five named workloads over the
// sim, live and net backends, driven only through the public API of
// internal/core and the layer packages, every answer verified against
// lang.RefEval. See README.md in this directory; BENCHMARK.json at the
// repository root declares the workloads and metrics.
//
//	bash bench/run.sh                          every workload, passes interleaved
//	bash bench/run.sh -trace 1                 the traced run: per-layer metrics
//	bash bench/run.sh -workload sim-dense -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -quick                   two passes per workload, a smoke test
//	bash bench/run.sh -check bench/out/results.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	_ "repro/internal/livenet" // registers the "live" backend
	"repro/internal/netnode"   // registers the "net" backend
)

// defaultSeed is the seed a run uses when none is given. BENCHMARK.json has
// a fixed key set with no room for it.
const defaultSeed = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	serve    bool
}

func main() {
	// A re-exec'd net node process enters here and never returns.
	netnode.ChildMain()
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all, passes interleaved)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per workload (default: run_seconds of "+specFile+")")
	fs.IntVar(&o.trace, "trace", 0, "1 = the traced run, reporting the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.quick, "quick", false, "two passes and one set-up per workload")
	fs.BoolVar(&o.serve, "serve", false, "internal: run passes on request from the all-workloads parent")
	check := fs.String("check", "", "validate a results file against "+specFile+" and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return fmt.Errorf("%w (run from the repository root, or use bench/run.sh)", err)
	}
	if *check != "" {
		bad, err := spec.checkFile(*check)
		if err != nil {
			return err
		}
		for _, b := range bad {
			fmt.Println(b)
		}
		if len(bad) > 0 {
			return fmt.Errorf("%s does not match %s", *check, specFile)
		}
		fmt.Printf("%s matches %s\n", *check, specFile)
		return nil
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.workload == "" {
		return runAll(spec, o)
	}
	s := &session{workload: o.workload, seed: o.seed}
	reps := setupReps
	if o.quick {
		reps = 1
	}
	if err := s.setUp(reps); err != nil {
		return fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	if o.serve {
		if err := servePasses(s); err != nil {
			return err
		}
	} else if o.trace == 0 {
		for start := time.Now(); len(s.passes) < 2 || (!o.quick && time.Since(start).Seconds() < o.seconds); {
			if err := s.timedPass(); err != nil {
				return fmt.Errorf("%s: pass %d: %w", o.workload, len(s.passes), err)
			}
		}
	}
	rf, err := s.finish(spec, o.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.serve {
		return json.NewEncoder(os.Stdout).Encode(rf)
	}
	name := "result-" + o.workload
	if o.trace == 1 {
		name += "-trace"
	}
	if err := writeJSON(filepath.Join(outDir, name+".json"), rf); err != nil {
		return err
	}
	render(os.Stdout, spec, rf)
	return json.NewEncoder(os.Stdout).Encode(rf.result)
}

// servePasses is the child side of the all-workloads mode: announce that
// set-up is done, run one pass per "pass" line, stop at end of input.
func servePasses(s *session) error {
	fmt.Println("ready")
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() != "pass" {
			return fmt.Errorf("serve: unexpected command %q", in.Text())
		}
		if err := s.timedPass(); err != nil {
			return fmt.Errorf("%s: pass %d: %w", s.workload, len(s.passes), err)
		}
		fmt.Println("ok")
	}
	return in.Err()
}

// finish turns the session into its run file: metrics by declared name,
// failure accounting, the guards' verdict.
func (s *session) finish(spec *benchSpec, trace int) (*runFile, error) {
	rf := &runFile{Workload: s.workload, Seed: s.seed, Trace: trace, SetupS: s.setups, SetupRawS: s.setupsRaw}
	var values map[string]float64
	passes := s.passes
	if trace == 1 {
		var err error
		if values, rf.Spans, passes, err = s.traced(spec.PerLayer); err != nil {
			return nil, err
		}
	} else {
		if len(passes) == 0 {
			return nil, errors.New("no pass was run")
		}
		var err error
		if values, err = s.endToEnd(); err != nil {
			return nil, err
		}
	}
	rf.Correct = s.guard(passes)
	rf.Metrics = map[string]metricValue{}
	units := map[string]string{}
	for _, d := range spec.decls(trace) {
		units[d.Name] = d.Unit
	}
	for name, v := range values {
		rf.Metrics[name] = metricValue{Value: v, Unit: units[name]}
	}
	for _, p := range passes {
		rf.Attempted += p.Attempted
		rf.Failed += p.Failed
		rf.Passes = append(rf.Passes, passValues(p))
		var wall, cpu []float64
		for _, u := range p.Units {
			wall = append(wall, float64(u.Wall.Nanoseconds())/1e6)
			cpu = append(cpu, float64(u.CPU.Nanoseconds())/1e6)
		}
		rf.UnitWallMS, rf.UnitCPUMS = append(rf.UnitWallMS, wall), append(rf.UnitCPUMS, cpu)
	}
	rf.Notes = s.notes
	if bad := spec.check(rf); len(bad) > 0 {
		return nil, fmt.Errorf("the run does not match %s:\n  %s", specFile, strings.Join(bad, "\n  "))
	}
	return rf, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// render prints one run for a reader: every metric by name with its unit,
// the per-pass spread behind the time metrics, the budget rows and the span
// table of a traced run, and any guard's note.
func render(w io.Writer, spec *benchSpec, rf *runFile) {
	verdict := "every answer verified"
	if !rf.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "\n%s  seed %d  trace %d  %d passes  %d attempted, %d failed  %s\n",
		rf.Workload, rf.Seed, rf.Trace, len(rf.Passes), rf.Attempted, rf.Failed, verdict)
	for _, d := range spec.decls(rf.Trace) {
		m := rf.Metrics[d.Name]
		if rf.Trace == 1 && m.Value == 0 {
			continue // does not apply to this workload
		}
		fmt.Fprintf(w, "  %-42s %16.6g %s\n", d.Name, m.Value, d.Unit)
	}
	if rf.Trace == 0 {
		for _, col := range []string{"req_per_s", "cpu_ms_per_req", "lat_p50_ms"} {
			fmt.Fprintf(w, "  per pass %-15s", col)
			for _, p := range rf.Passes {
				fmt.Fprintf(w, " %.4g", p[col])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  set-ups (s) %.3f\n", rf.SetupS)
	} else {
		if share := rf.Metrics["lang.share"].Value; share != 0 {
			fmt.Fprintf(w, "  budget: lang %.3f + sim %.3f + machine %.3f = 1 of the pass's wall time\n",
				share, rf.Metrics["sim.share"].Value, rf.Metrics["machine.share"].Value)
		}
		names := make([]string, 0, len(rf.Spans))
		for n := range rf.Spans {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  %-20s %8s %14s %14s\n", "span", "count", "total ms", "self ms")
		for _, n := range names {
			st := rf.Spans[n]
			fmt.Fprintf(w, "  %-20s %8d %14.3f %14.3f\n", n, st.Count, float64(st.Total)/1e6, float64(st.Own)/1e6)
		}
	}
	for _, n := range rf.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// child is one workload's process in the all-workloads mode.
type child struct {
	name string
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
}

// expect reads the child's next line and requires it to be want.
func (c *child) expect(want string) error {
	line, err := c.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("%s: child ended early: %w", c.name, err)
	}
	if strings.TrimSpace(line) != want {
		return fmt.Errorf("%s: child said %q, expected %q", c.name, strings.TrimSpace(line), want)
	}
	return nil
}

// runAll runs every workload, each in its own child process so that peak
// memory and CPU are per workload. Children set up one after another, then
// the parent asks them for one pass at a time, round-robin over the whole
// run, so a noisy minute is shared by all workloads instead of owned by one.
func runAll(spec *benchSpec, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var children []*child
	defer func() {
		for _, c := range children { // only reached with live children on an error path
			c.in.Close()
			_ = c.cmd.Process.Kill()
			_ = c.cmd.Wait()
		}
	}()
	for _, name := range workloadNames {
		args := []string{"-serve", "-workload", name, "-seed", fmt.Sprint(o.seed), "-trace", fmt.Sprint(o.trace)}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		c := &child{name: name, cmd: cmd, in: in, out: bufio.NewReader(out)}
		children = append(children, c)
		if err := c.expect("ready"); err != nil {
			return err
		}
	}
	if o.trace == 0 {
		budget := o.seconds * float64(len(children))
		for start, round := time.Now(), 0; round < 2 || (!o.quick && time.Since(start).Seconds() < budget); round++ {
			for _, c := range children {
				if _, err := io.WriteString(c.in, "pass\n"); err != nil {
					return fmt.Errorf("%s: %w", c.name, err)
				}
				if err := c.expect("ok"); err != nil {
					return err
				}
			}
		}
	}
	var all resultsFile
	correct := true
	for len(children) > 0 {
		c := children[0]
		c.in.Close()
		rf := &runFile{}
		decodeErr := json.NewDecoder(c.out).Decode(rf)
		waitErr := c.cmd.Wait()
		children = children[1:]
		if err := errors.Join(decodeErr, waitErr); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		render(os.Stdout, spec, rf)
		all.Runs = append(all.Runs, rf)
		correct = correct && rf.Correct
	}
	name := "results.json"
	if o.trace == 1 {
		name = "results-trace.json"
	}
	if err := writeJSON(filepath.Join(outDir, name), &all); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", filepath.Join(outDir, name))
	if !correct {
		return errors.New("a workload's outputs were incorrect")
	}
	return nil
}
