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
		{"wrong answer", "-workload fib:10 -procs 4 -fault 0@0c,1@0c,2@0c,3@0c", 1,
			"apsim: answer 232 differs from the sequential reference 55", ""},
		{"stream flags without -requests", "-workload fib:10 -every 100 -max-inflight 2 -admission shed", 2,
			"apsim: -admission, -every, -max-inflight: service-stream flags need -requests N", ""},
		{"-trace on a stream", "-workload fib:10 -requests 4 -trace", 2,
			"apsim: -trace prints the event trace of a one-shot run: drop it or -requests", ""},
		{"unknown scheme", "-recovery nosuch", 1,
			`apsim: recovery: unknown scheme "nosuch" (known: incremental, none, rollback, rollback-lazy, rollback-nosuppress, splice)`, ""},
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
