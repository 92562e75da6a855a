package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
)

// TestMain re-executes the test binary as apsim itself when the marker is
// set, so the table below drives the real main — flag parsing, exit codes
// and all — without a `go build`.
func TestMain(m *testing.M) {
	if os.Getenv("APSIM_TEST_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// apsim runs the test binary as apsim with the given arguments and a time
// budget, and returns its exit status and what it printed.
func apsim(t *testing.T, budget time.Duration, args ...string) (exit int, stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "APSIM_TEST_AS_MAIN=1")
	var out, errs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errs
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatalf("apsim %s: still running after %v\n%s%s", strings.Join(args, " "), budget, &out, &errs)
	case errors.As(err, &ee):
		exit = ee.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return exit, out.String(), errs.String()
}

// commandLines are TestCommandLine's rows: per command line, the exit
// status and the first line printed (stdout on success, stderr on failure),
// plus one other line, on either stream, where the first does not show what
// the run did.
var commandLines = []struct {
	name  string
	args  string
	exit  int
	first string
	also  string
}{
	{"one-shot", "-workload fib:10", 0,
		"workload   : fib:10", "reference  : 55 (match)"},
	{"service stream", "-workload fib:10 -requests 4 -arrive poisson:0.02", 0,
		"service stream on sim: 8 procs, none/random", "reference  : 4/4 answers match"},
	{"splice through a crash", "-workload nqueens:6 -recovery splice -fault 2@3000", 0,
		"workload   : nqueens:6", "recover.twins            2"},
	{"live says how much stayed home", "-workload fib:12 -procs 4 -backend live", 0,
		"workload   : fib:12", "in place), 0 reissued, 0 drained"},
	// Past one heartbeat period of processors, and past the 74 hops a
	// constant reply timer covers, nobody alive is declared dead.
	{"hypercube-512", "-procs 512 -topology hypercube -workload fib:14 -recovery rollback -eval compiled", 0,
		"workload   : fib:14", "reference  : 377 (match)"},
	{"ring-600", "-procs 600 -topology ring -workload fib:14 -recovery rollback -eval compiled", 0,
		"workload   : fib:14", "reference  : 377 (match)"},
	{"wrong answer", "-workload fib:10 -procs 4 -fault 0@0c,1@0c,2@0c,3@0c", 1,
		"apsim: answer 232 differs from the sequential reference 55", ""},
	// No answer is exit status 1 too, after the same report.
	{"no answer", "-workload fib:12 -fault 2@500 -deadline 5000", 1,
		"apsim: run did not complete by t=5000", "answer     : NONE — run did not complete by t=5000"},
	// -recovery left alone is each backend's own default (the service
	// stream above says none on sim), so a kill on the wall clock is
	// recovered from, not waited out.
	{"live recovers by default", "-workload fib:14 -procs 6 -backend live -fault 2@500", 0,
		"workload   : fib:14", "recovery=rollback"},
	// A validated program that fails at run time fails the request, with
	// the evaluator's own words, wherever it runs.
	{"division by zero", "-program testdata/div.ap -args 2", 1,
		"apsim: task 0.2 on processor 4: lang: eval: division by zero", ""},
	{"division by zero on live", "-program testdata/div.ap -args 2 -backend live", 1,
		"apsim: task 0.2 on node 7: lang: eval: division by zero", ""},
	{"division by zero on net", "-program testdata/div.ap -args 2 -backend net -recovery rollback", 1,
		"apsim: task 0.2 on node 7: lang: eval: division by zero", ""},
	{"division by zero in a stream", "-program testdata/div.ap -args 2 -requests 3 -backend live", 1,
		"apsim: request 0: task 0.2 on node 7: lang: eval: division by zero", ""},
	{"stream flags without -requests", "-workload fib:10 -arrive uniform:100 -max-inflight 2 -admission shed", 2,
		"apsim: -admission, -arrive, -max-inflight: service-stream flags need -requests N", ""},
	{"-trace on a stream", "-workload fib:10 -requests 4 -trace", 2,
		"apsim: -trace prints the event trace of a one-shot run: drop it or -requests", ""},
	{"unknown scheme", "-recovery nosuch", 1,
		`apsim: recovery: unknown scheme "nosuch" (known: incremental, none, rollback, rollback-lazy, rollback-nosuppress, splice)`, ""},
	{"unknown scheme on live", "-recovery nosuch -backend live", 1,
		`apsim: live: recovery "nosuch" not supported (rollback per-parent reissue, or none)`, ""},
	{"unknown evaluator", "-eval nosuch", 1,
		`apsim: machine: unknown evaluator "nosuch" (known: compiled, interp)`, ""},
	{"unknown evaluator on net", "-eval nosuch -backend net", 1,
		`apsim: lang: unknown evaluator "nosuch" (known: compiled, interp)`, ""},
	// Workload specs that used to panic, die mid-run or unroll 10⁸
	// definitions are refused where the spec is read.
	{"msort of negative length", "-workload msort:-1", 1,
		"apsim: core: msort:-1: N must be in 0..100000", ""},
	{"tree of negative fanout", "-workload tree:-1,3", 1,
		"apsim: core: tree:-1,3: FANOUT must be in 1..64", ""},
	{"tree of no fanout", "-workload tree:0,3", 1,
		"apsim: core: tree:0,3: FANOUT must be in 1..64", ""},
	{"random shape of no fanout", "-workload shape:random:1,0,3,4", 1,
		"apsim: core: shape:random:1,0,3,4: MAXFANOUT must be in 1..8", ""},
	{"random shape of no leaf cost", "-workload shape:random:1,3,3,0", 1,
		"apsim: core: shape:random:1,3,3,0: MAXLEAFCOST must be in 1..10000", ""},
	{"shape wider than its index encoding", "-workload shape:uniform:9,2,1", 1,
		"apsim: core: shape:uniform:9,2,1: FANOUT must be in 1..8", ""},
	{"shape past the node cap", "-workload shape:uniform:8,9,1", 1,
		"apsim: core: shape:uniform:8,9,1: workload: shape uniform(f=8,d=9) unrolls to more than 100000 nodes", ""},
	// A stream that leaves an admitted request unanswered fails like a
	// one-shot run that does not complete: exit status 1 after the report.
	{"stream with a timeout", "-workload fib:10 -requests 3 -fault 2@100 -deadline 3000", 1,
		"apsim: 2 of 3 requests timed out", "reference  : 1/3 answers match the sequential reference evaluator (2 timed out)"},
	// A malformed plan is a malformed flag value.
	{"fault without @", "-fault 2-3000", 2,
		`invalid value "2-3000" for flag -fault: bad fault "2-3000" (want PROC@TIME[s|c])`, ""},
	{"fault on no processor", "-fault x@3000", 2,
		`invalid value "x@3000" for flag -fault: bad fault processor "x": strconv.Atoi: parsing "x": invalid syntax`, ""},
	{"fault at no time", "-fault 2@30o0s", 2,
		`invalid value "2@30o0s" for flag -fault: bad fault time "30o0": strconv.ParseInt: parsing "30o0": invalid syntax`, ""},
	// A two-wave cascade on torus-16 that cuts nobody off. A row named
	// after a file under testdata/runs runs that file's line, whose -fault
	// runDraws pins.
	{"torus16-cascade.line", runsLine("torus16-cascade.line"), 0,
		"service stream on sim: 16 procs, rollback/random", "reference  : 24/24 answers match"},
	{"torus16-cascade.line under incremental", runsLine("torus16-cascade.line") + " -recovery incremental", 0,
		"service stream on sim: 16 procs, incremental/random", "reference  : 24/24 answers match"},
}

// runsLine is the run line in testdata/runs/file.
func runsLine(file string) string {
	line, err := os.ReadFile(filepath.Join("testdata", "runs", file))
	if err != nil {
		panic(err)
	}
	return strings.TrimSpace(string(line))
}

// TestCommandLine runs commandLines. Each report ends with the run line, and
// each failure after the flags parse names it on its second stderr line.
func TestCommandLine(t *testing.T) {
	draws := runDraws(t)
	for _, tc := range commandLines {
		t.Run(tc.name, func(t *testing.T) {
			if d, ok := draws[strings.Fields(tc.name)[0]]; ok {
				d.check(t, strings.Fields(tc.args))
			}
			exit, stdout, stderr := apsim(t, time.Minute, strings.Fields(tc.args)...)
			out := stdout
			if tc.exit != 0 {
				out = stderr
			}
			first, _, _ := strings.Cut(out, "\n")
			if exit != tc.exit || first != tc.first {
				t.Fatalf("apsim %s\nexit %d, first line %q\nwant %d, %q\nstderr: %s",
					tc.args, exit, first, tc.exit, tc.first, stderr)
			}
			if !strings.Contains(stdout+stderr, tc.also) {
				t.Errorf("apsim %s: output lacks %q:\n%s%s", tc.args, tc.also, stdout, stderr)
			}
			if !strings.Contains(tc.args, "-fault") && strings.Contains(stdout, "fault.") {
				t.Errorf("apsim %s: a fault-free run reports a fault. row:\n%s", tc.args, stdout)
			}
			if tc.exit == 0 && !strings.HasPrefix(runLineOf(stdout), "apsim") {
				t.Errorf("apsim %s: the report does not end with its run line:\n%s", tc.args, stdout)
			}
			if _, rest, _ := strings.Cut(stderr, "\n"); tc.exit != 0 && strings.HasPrefix(first, "apsim: ") && !strings.HasPrefix(rest, "apsim: rerun: apsim") {
				t.Errorf("apsim %s: the failure does not name its run line:\n%s", tc.args, stderr)
			}
		})
	}
}

// runLineOf is the command line a report ends with, "" if it ends otherwise.
func runLineOf(stdout string) string {
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if line, ok := strings.CutPrefix(lines[len(lines)-1], "run        : "); ok {
		return line
	}
	return ""
}

// TestRunLineReproduces: the run line of every successful simulator row
// reruns it to byte-identical stdout. The wall-clock rows are left out:
// their timings differ from run to run.
func TestRunLineReproduces(t *testing.T) {
	for _, tc := range commandLines {
		if tc.exit != 0 || strings.Contains(tc.args, "-backend") {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			_, stdout, _ := apsim(t, time.Minute, strings.Fields(tc.args)...)
			line, ok := strings.CutPrefix(runLineOf(stdout), "apsim")
			if !ok {
				t.Fatalf("apsim %s prints no run line:\n%s", tc.args, stdout)
			}
			exit, again, stderr := apsim(t, time.Minute, shellFields(line)...)
			if exit != 0 || again != stdout {
				t.Fatalf("apsim %s (from apsim %s): exit %d\n%s%s\nwant\n%s", line, tc.args, exit, again, stderr, stdout)
			}
		})
	}
}

// draw is where a run line's -fault comes from: its generator's plan on the
// line's topology, and the live processors that plan leaves with no live
// neighbour.
type draw struct {
	topo     topology.Topology
	plan     *faults.Plan
	isolated []topology.NodeID
}

// runDraws is the draw of each run line under testdata/runs, by file name.
func runDraws(t *testing.T) map[string]draw {
	torus, err := topology.ByName("torus", 16)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topology.ByName("mesh", 64)
	if err != nil {
		t.Fatal(err)
	}
	draws := map[string]draw{
		"torus16-cascade.line": {torus, faults.Cascade(torus, 10, 2000, 1000, 2, 0.5, faults.CrashSilent, 141), nil},
		"mesh64-isolated.line": {mesh, faults.Burst(64, 12, 3000, faults.CrashSilent, 33), []topology.NodeID{7}},
	}
	if files, _ := filepath.Glob("testdata/runs/*.line"); len(files) != len(draws) {
		t.Fatalf("testdata/runs holds %d rows, runDraws knows %d", len(files), len(draws))
	}
	return draws
}

// check fails t unless args' -fault is d's plan byte for byte and that plan
// cuts off exactly d.isolated.
func (d draw) check(t *testing.T, args []string) {
	t.Helper()
	if i := slices.Index(args, "-fault"); i < 0 || i+1 == len(args) || args[i+1] != d.plan.String() {
		t.Fatalf("the row's -fault is not its generator's %s", d.plan)
	}
	if got := isolated(d.topo, d.plan); !slices.Equal(got, d.isolated) {
		t.Fatalf("the plan cuts off %v, want %v", got, d.isolated)
	}
}

// TestKnownDefectRows runs the run line of each open defect, under
// testdata/runs, and asserts that it still fails as recorded: one admitted
// request times out and apsim exits 1. A fix flips its row, which then moves
// to commandLines as a passing one.
func TestKnownDefectRows(t *testing.T) {
	draws := runDraws(t)
	rows := []struct {
		file    string
		timeout string // the request left unanswered
	}{
		{"mesh64-isolated.line", "req 8 "},
	}
	for _, tc := range rows {
		t.Run(tc.file, func(t *testing.T) {
			line := runsLine(tc.file)
			args := strings.Fields(line)
			draws[tc.file].check(t, args)
			exit, stdout, stderr := apsim(t, time.Minute, args...)
			if exit != 1 || !strings.Contains(stdout, "\nreference  : 23/24 answers match the sequential reference evaluator (1 timed out)\n") ||
				!regexp.MustCompile(`(?m)^  `+tc.timeout+`.* timeout$`).MatchString(stdout) {
				t.Fatalf("apsim %s\nno longer fails as recorded (exit %d):\n%s%s", line, exit, stdout, stderr)
			}
		})
	}
}

// isolated lists the processors plan leaves alive with no live neighbour.
func isolated(topo topology.Topology, plan *faults.Plan) []topology.NodeID {
	dead := map[topology.NodeID]bool{}
	for _, p := range plan.Procs() {
		dead[topology.NodeID(p)] = true
	}
	var out []topology.NodeID
	for v := range topology.NodeID(topo.Size()) {
		if !dead[v] && !slices.ContainsFunc(topo.Neighbors(v), func(u topology.NodeID) bool { return !dead[u] }) {
			out = append(out, v)
		}
	}
	return out
}

// TestRecoveryCompletesUnlessIsolated pins the class torus16-cascade.line
// was drawn from, not the one draw: a two-wave cascade that leaves every
// survivor a live neighbour is recovered from, every request answered
// correctly, under each recovering scheme on torus-16 and mesh-16. A seed
// whose plan isolates a survivor draws the other defect
// (mesh64-isolated.line), not this class: mesh-16's seeds 2 and 30 do, so
// mesh-16 runs 8 and 9 in their place.
func TestRecoveryCompletesUnlessIsolated(t *testing.T) {
	w, err := core.StandardWorkload("fib:12")
	if err != nil {
		t.Fatal(err)
	}
	for _, topos := range []struct {
		kind  string
		seeds []int64
	}{
		{"torus", []int64{1, 2, 3, 4, 5, 6, 30}},
		{"mesh", []int64{1, 3, 4, 5, 6, 8, 9}},
	} {
		topo, err := topology.ByName(topos.kind, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []string{"rollback", "incremental", "splice"} {
			t.Run(topos.kind+"-16/"+scheme, func(t *testing.T) {
				t.Parallel()
				for _, seed := range topos.seeds {
					plan := faults.Cascade(topo, 10, 2000, 1000, 2, 0.5, faults.CrashSilent, seed)
					if cut := isolated(topo, plan); cut != nil {
						t.Fatalf("seed %d: the plan cuts off %v: pick another seed", seed, cut)
					}
					cl, err := core.OpenOn("sim", core.Config{Procs: 16, Topology: topos.kind, Recovery: scheme,
						Arrival: "poisson:0.002", MaxInFlight: 8, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					for range 24 {
						cl.Submit(w)
					}
					if err := cl.Inject(plan); err != nil {
						t.Fatal(err)
					}
					if verified, _, _, err := cl.VerifyAll(true); err != nil || verified != 24 {
						t.Errorf("seed %d (-fault %s): verified %d of 24: %v", seed, plan, verified, err)
					}
					if _, err := cl.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// FuzzRunLine: whatever a command line sets — every bound Config field, the
// workload, -requests, -backend and the fault plan — its run line parses
// back, on a fresh flag set, into the same values, and prints itself.
func FuzzRunLine(f *testing.F) {
	rows, _ := filepath.Glob("testdata/runs/*.line")
	for _, row := range rows {
		line, err := os.ReadFile(row)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(line))
	}
	for _, tc := range commandLines {
		f.Add(tc.args)
	}
	f.Add(`-program 'my dir/it'\''s.ap' -args 3,4 -shards 0 -trace -backend live -arrive burst:4:800 -admission=`)
	f.Fuzz(func(t *testing.T, line string) {
		r, fs, err := parseRun(shellFields(line))
		if err != nil {
			return
		}
		printed := runLine(fs)
		args, _ := strings.CutPrefix(printed, "apsim")
		again, fs2, err := parseRun(shellFields(args))
		if err != nil || !reflect.DeepEqual(again, r) || runLine(fs2) != printed {
			t.Fatalf("%s\nprints %s\nwhich parses to %+v, %v\nnot %+v", line, printed, again, err, r)
		}
	})
}

// parseRun parses args onto a fresh flag set, as main does.
func parseRun(args []string) (*run, *flag.FlagSet, error) {
	var r run
	fs := flag.NewFlagSet("apsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	r.bind(fs)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if fs.NArg() > 0 {
		return nil, nil, fmt.Errorf("arguments after the flags: %q", fs.Args())
	}
	return &r, fs, nil
}

// shellFields splits a line into words as a POSIX shell does for what
// runLine prints: blanks separate, single quotes quote, a backslash escapes.
func shellFields(line string) []string {
	var words []string
	var word strings.Builder
	inWord, quoted := false, false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quoted && c == '\'':
			quoted = false
		case quoted:
			word.WriteByte(c)
		case c == '\'':
			quoted, inWord = true, true
		case c == '\\' && i+1 < len(line):
			i++
			word.WriteByte(line[i])
			inWord = true
		case c == ' ' || c == '\t' || c == '\n':
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}

// TestReadmeCommands runs every `go run ./cmd/apsim …` line inside README.md's
// fenced blocks: each must finish inside 20 s with exit status 0 and a
// reference line that reports a match.
func TestReadmeCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every README command line, the live and net ones included")
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "go run ./cmd/apsim "
	fenced, ran := false, 0
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if !fenced || !strings.HasPrefix(line, prefix) {
			continue
		}
		args, _, _ := strings.Cut(strings.TrimPrefix(line, prefix), "#")
		ran++
		t.Run(strings.TrimSpace(args), func(t *testing.T) {
			exit, stdout, stderr := apsim(t, 20*time.Second, strings.Fields(args)...)
			if exit != 0 || !readmeMatch.MatchString(stdout) {
				t.Fatalf("exit %d, want 0 and a reference line reporting a match\n%s%s", exit, stdout, stderr)
			}
		})
	}
	if ran == 0 {
		t.Fatal("README.md has no fenced `go run ./cmd/apsim` line: the test reads nothing")
	}
}

// readmeMatch is the reference line of a run whose answers all matched: one
// answer, or every answer of a stream but those admission control shed.
var readmeMatch = regexp.MustCompile(`(?m)^reference  : (\S+ \(match\)|[1-9]\d*/\d+ answers match the sequential reference evaluator( \(\d+ shed by admission control\))?)$`)
