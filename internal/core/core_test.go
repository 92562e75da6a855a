package core

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/lang"
)

func TestStandardWorkloads(t *testing.T) {
	cases := []struct {
		spec string
		fn   string
	}{
		{"fib:10", "fib"},
		{"tak:6,3,1", "tak"},
		{"nqueens:4", "nqueens"},
		{"sumrange:64", "sumrange"},
		{"msort:8", "msort"},
		{"tree:2,4", "tree"},
		{"binom:8,3", "binom"},
	}
	for _, tc := range cases {
		w, err := StandardWorkload(tc.spec)
		if err != nil {
			t.Errorf("%s: %v", tc.spec, err)
			continue
		}
		if w.Fn != tc.fn {
			t.Errorf("%s: fn = %q", tc.spec, w.Fn)
		}
		if w.Program == nil {
			t.Errorf("%s: nil program", tc.spec)
		}
	}
	// Every spec the doc comment shows parses.
	for _, spec := range []string{"shape:uniform:3,4,5", "shape:skew:4,7,10", "shape:random:7,4,7,12"} {
		if w, err := StandardWorkload(spec); err != nil || w.Program == nil || w.Spec != spec {
			t.Errorf("%s: %+v, %v", spec, w, err)
		}
	}
	// A spec is matched whole: unknown names, malformed numbers and trailing
	// input (which bare Sscanf ignores) are all the same error.
	for _, spec := range []string{"nosuch:1", "fib:x", "bogus",
		"fib:12abc", "tak:1,2,3,4", "tree:3,4,5", "fib:12:13", "nqueens:6 ", "binom:5,2x"} {
		if w, err := StandardWorkload(spec); err == nil || !strings.Contains(err.Error(), "core: unknown workload spec") {
			t.Errorf("StandardWorkload(%q) = %s%v, %v; want the unknown-spec error", spec, w.Fn, w.Args, err)
		}
	}
}

// TestSpecStreamSharesPrograms: the same spec is the same *Program, so a
// stream that names its workloads by spec hands the machine (and every cache
// keyed on program identity) one program per distinct spec, not one per
// request.
func TestSpecStreamSharesPrograms(t *testing.T) {
	a, _ := StandardWorkload("fib:9")
	b, _ := StandardWorkload("fib:9")
	if a.Program != b.Program {
		t.Fatal("StandardWorkload built two programs for one spec")
	}
	a.Args[0] = expr.VInt(1)
	if c, _ := StandardWorkload("fib:9"); !c.Args[0].Equal(expr.VInt(9)) {
		t.Fatalf("a caller's write to Args reached the memo: %v", c.Args)
	}

	refs := func() (n int) {
		refAnswers.Range(func(_, _ any) bool { n++; return true })
		return n
	}
	before := refs()
	cl, err := OpenOn("sim", Config{Procs: 16, Recovery: "rollback"})
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"fib:11", "fib:12", "tree:2,4", "tak:8,4,2"}
	progs := map[*lang.Program]bool{}
	for i := 0; i < 32; i++ {
		tk, err := cl.SubmitSpec(specs[i%len(specs)])
		if err != nil {
			t.Fatal(err)
		}
		progs[tk.w.Program] = true
	}
	if verified, _, _, err := cl.VerifyAll(true); err != nil || verified != 32 {
		t.Fatalf("verified %d of 32: %v", verified, err)
	}
	if _, err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if len(progs) > len(specs) {
		t.Errorf("32 requests of %d specs interned %d programs", len(specs), len(progs))
	}
	if added := refs() - before; added > len(specs) {
		t.Errorf("32 requests of %d specs added %d reference answers", len(specs), added)
	}
}

func TestDefaultsRunFaultFree(t *testing.T) {
	w, err := StandardWorkload("fib:10")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Config{}.Verify(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Procs != 8 || rep.Scheme != "none" || rep.Placement != "random" {
		t.Fatalf("defaults wrong: procs=%d scheme=%s placement=%s", rep.Procs, rep.Scheme, rep.Placement)
	}
}

func TestConfigVariants(t *testing.T) {
	w, err := StandardWorkload("tree:3,3")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Procs: 4, Topology: "ring", Placement: "gradient", Recovery: "rollback"},
		{Procs: 16, Topology: "hypercube", Placement: "static", Recovery: "splice"},
		{Procs: 6, Topology: "star", Placement: "local", Recovery: "rollback-lazy"},
	} {
		if _, err := cfg.Verify(w, nil); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

func TestConfigErrors(t *testing.T) {
	w, _ := StandardWorkload("fib:5")
	if _, err := (Config{Topology: "nosuch"}).Run(w, nil); err == nil {
		t.Error("bad topology accepted")
	}
	if _, err := (Config{Placement: "nosuch"}).Run(w, nil); err == nil {
		t.Error("bad placement accepted")
	}
	if _, err := (Config{Recovery: "nosuch"}).Run(w, nil); err == nil {
		t.Error("bad recovery accepted")
	}
	if _, err := (Config{}).Build(nil); err == nil {
		t.Error("nil program accepted")
	}
	// With several things wrong at once a one-shot run reports them in a
	// fixed order: machine build, then entry function, then fault plan.
	badFn := w
	badFn.Fn = "nosuch"
	badPlan := CrashPlan(99, 10, true)
	for _, c := range []struct {
		cfg  Config
		w    Workload
		want string
	}{
		{Config{Topology: "nosuch"}, badFn, "topology: unknown kind"},
		{Config{}, badFn, `entry function "nosuch" not in program`},
		{Config{}, w, "processor 99 out of range"},
	} {
		if _, err := c.cfg.Run(c.w, badPlan); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run error = %v, want %q", err, c.want)
		}
	}
}

// TestOpenRejectsBadMachine: the simulator boots at Open like the wall-clock
// backends, so a bad topology, placement, scheme or evaluator fails the Open
// — not the first Wait of a stream that was never going to run.
func TestOpenRejectsBadMachine(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Topology: "nosuch"}, "topology: unknown kind"},
		{Config{Placement: "nosuch"}, "nosuch"},
		{Config{Recovery: "nosuch"}, "nosuch"},
		{Config{Eval: "nosuch"}, "unknown evaluator"},
		{Config{Procs: 1}, "needs ≥ 2 nodes"},
	} {
		if cl, err := OpenOn("sim", c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Open(%+v) = %v, %v; want an error containing %q", c.cfg, cl, err, c.want)
		}
	}
	// An empty stream is a stream: Close reports the machine that served it.
	cl, err := OpenOn("sim", Config{Procs: 4, Recovery: "splice"})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := cl.Close()
	if err != nil || sr.Procs != 4 || sr.Scheme != "splice" || sr.Requests != 0 {
		t.Fatalf("empty stream: %v %+v", err, sr)
	}
}

func TestVerifyDetectsFailure(t *testing.T) {
	w, _ := StandardWorkload("fib:10")
	// A crash with no recovery: Verify must report non-completion.
	cfg := Config{Recovery: "none", Deadline: 50_000, Seed: 2}
	_, err := cfg.Verify(w, CrashPlan(1, 400, true))
	if err == nil || !strings.Contains(err.Error(), "did not complete") {
		t.Fatalf("Verify error = %v, want non-completion", err)
	}
}

func TestVerifyWithRecovery(t *testing.T) {
	w, _ := StandardWorkload("fib:11")
	for _, scheme := range []string{"rollback", "splice"} {
		cfg := Config{Recovery: scheme, Seed: 4, Trace: true}
		rep, err := cfg.Verify(w, CrashPlan(2, 700, false))
		if err != nil {
			t.Errorf("%s: %v", scheme, err)
			continue
		}
		if rep.Sim.Log == nil {
			t.Errorf("%s: trace requested but nil", scheme)
		}
	}
}

// TestStateProbeEvery: the plain field reaches the machine.
func TestStateProbeEvery(t *testing.T) {
	w, _ := StandardWorkload("fib:8")
	rep, err := Config{StateProbeEvery: 25}.Verify(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sim.StateSamples) == 0 {
		t.Fatal("StateProbeEvery did not take effect")
	}
}
