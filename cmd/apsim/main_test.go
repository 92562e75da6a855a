package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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

// TestCommandLine pins, per command line, the exit status and the first
// line printed (stdout on success, stderr on failure), plus one later line
// where the first does not show what the run did.
func TestCommandLine(t *testing.T) {
	for _, tc := range []struct {
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
		{"wrong answer", "-workload fib:10 -procs 4 -fault 0@0c,1@0c,2@0c,3@0c", 1,
			"apsim: answer 232 differs from the sequential reference 55", ""},
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], strings.Fields(tc.args)...)
			cmd.Env = append(os.Environ(), "APSIM_TEST_AS_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			out := stdout.String()
			if tc.exit != 0 {
				out = stderr.String()
			}
			first, _, _ := strings.Cut(out, "\n")
			if exit != tc.exit || first != tc.first {
				t.Fatalf("apsim %s\nexit %d, first line %q\nwant %d, %q\nstderr: %s",
					tc.args, exit, first, tc.exit, tc.first, stderr.String())
			}
			if !strings.Contains(out, tc.also) {
				t.Errorf("apsim %s: output lacks %q:\n%s", tc.args, tc.also, out)
			}
		})
	}
}
