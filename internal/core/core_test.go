package core

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/workload"
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

// TestWorkloadSpecRanges: a spec whose numbers cannot be built is refused
// where it is read, with one line naming the spec and the accepted range —
// each of these panicked, died mid-run or unrolled 10⁸ definitions before it
// was checked. The boundary specs beside them still build.
func TestWorkloadSpecRanges(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"msort:-1", "core: msort:-1: N must be in 0..100000"},
		{"msort:100001", "core: msort:100001: N must be in 0..100000"},
		{"tree:-1,3", "core: tree:-1,3: FANOUT must be in 1..64"},
		{"tree:0,3", "core: tree:0,3: FANOUT must be in 1..64"},
		{"tree:65,1", "core: tree:65,1: FANOUT must be in 1..64"},
		{"shape:random:1,0,3,4", "core: shape:random:1,0,3,4: MAXFANOUT must be in 1..8"},
		{"shape:random:1,3,3,0", "core: shape:random:1,3,3,0: MAXLEAFCOST must be in 1..10000"},
		{"shape:uniform:9,2,1", "core: shape:uniform:9,2,1: FANOUT must be in 1..8"},
		{"shape:uniform:3,0,4", "core: shape:uniform:3,0,4: workload: depth 0 outside 1..20"},
		{"shape:skew:2,21,1", "core: shape:skew:2,21,1: workload: depth 21 outside 1..20"},
		{"shape:uniform:2,2,-1", "core: shape:uniform:2,2,-1: LEAFCOST must be in 0..10000"},
		{"shape:uniform:1,1,1000000", "core: shape:uniform:1,1,1000000: LEAFCOST must be in 0..10000"},
		{"shape:skew:0,3,1", "core: shape:skew:0,3,1: WIDTH must be in 1..8"},
		{"shape:uniform:8,9,1", "core: shape:uniform:8,9,1: workload: shape uniform(f=8,d=9) unrolls to more than 100000 nodes"},
		{"shape:uniform:8,5,1000", "core: shape:uniform:8,5,1000: workload: shape uniform(f=8,d=5) unrolls to more than 1000000 leaf-chain links"},
	} {
		if w, err := StandardWorkload(tc.spec); err == nil || err.Error() != tc.want {
			t.Errorf("StandardWorkload(%q) = %s, %v; want %s", tc.spec, w.Fn, err, tc.want)
		}
	}
	for _, spec := range []string{"msort:0", "tree:1,3", "tree:64,0", "tree:2,-1", "shape:uniform:8,2,0",
		"shape:random:-3,1,2,1", "shape:skew:8,9,10000", "shape:skew:1,20,1", "shape:uniform:4,5,200"} {
		w, err := StandardWorkload(spec)
		if err != nil {
			t.Errorf("StandardWorkload(%q): %v", spec, err)
		} else if _, err := lang.RefEval(w.Program, w.Fn, w.Args); err != nil {
			t.Errorf("%s does not evaluate: %v", spec, err)
		}
	}
}

// FuzzStandardWorkload: any spec string is an error or a validated program
// of at most workload.MaxNodes definitions — never a panic, never an
// unbounded build. Construction only: nothing is evaluated.
func FuzzStandardWorkload(f *testing.F) {
	for _, spec := range []string{"fib:12", "tree:3,4", "msort:24", "shape:skew:4,7,10", "shape:random:7,4,7,12",
		"msort:-1", "tree:-1,3", "tree:0,3", "shape:random:1,0,3,4", "shape:random:1,3,3,0",
		"shape:uniform:9,2,1", "shape:uniform:8,9,1", "msort:9223372036854775807", "shape:uniform:2,2,9223372036854775807"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		w, err := standardWorkload(spec) // not the memo: a fuzz run must not retain every program
		if err != nil {
			return
		}
		if err := w.Program.CheckEntry(w.Fn); err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if n := len(w.Program.Names()); n > workload.MaxNodes {
			t.Fatalf("%q built %d definitions", spec, n)
		}
	})
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
