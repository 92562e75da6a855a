package machine

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/recovery"
	"repro/internal/topology"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_traces.txt from the current kernel")

// goldenCells are seeded runs whose full event traces are pinned: the S1
// mesh cell at 64 processors (the profile target) fault-free and under a
// mid-run burst, plus a splice cell so twin/relay/prefill events are
// covered. Every hot-path optimisation must leave these traces — event for
// event, note for note — byte-identical. The hash, events, makespan and
// completed columns are still the pre-optimisation kernel's. Two columns were
// regenerated once, when load gossip stopped being armed for policies that
// never gossip: kernel_events dropped by exactly the no-op gossip ticks, and
// the fault-free cell's messages went 5022 → 5031, because a run stops at
// the end of the lockstep window that saw the completion, window starts
// follow pending event times, and with the gossip ticks gone that last
// window takes in nine more messages. Both moved again when a message became
// what send puts on the wire (messages only) and when heartbeats went one-way:
// the acks, and the kernel events that delivered them, are gone. kernel_events
// alone moved when the simulated detector began reading beats off their
// schedule: a beat is still sent and counted, but no event delivers it. It
// moved once more when a processor's heartbeat ticks began only once a
// stream into it stopped: the fault-free cell's ticks are gone, the burst
// cells keep the ticks of the victims' neighbours.
var goldenCells = []struct {
	name   string
	scheme string
	crash  int // processors killed at 2/5 of the fault-free makespan (0 = none)
}{
	{"s1-mesh64-rollback-faultfree", "rollback", 0},
	{"s1-mesh64-rollback-burst3", "rollback", 3},
	{"s1-mesh64-splice-burst3", "splice", 3},
	{"s1-mesh64-incremental-burst3", "incremental", 3},
}

// goldenRun executes one golden cell with tracing under the named evaluator
// and returns its fingerprint line: FNV-64a over every event string, plus
// the headline counters that would move first if determinism broke.
func goldenRun(t *testing.T, scheme string, crash int, eval string) string {
	t.Helper()
	topo, err := topology.ByName("mesh", 64)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := recovery.ByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	prog, fn, args := lang.Fib(), "fib", []expr.Value{expr.VInt(13)}
	run := func(plan *faults.Plan, tl *trace.Log) *Report {
		m, err := New(Config{Topo: topo, Scheme: sch, Seed: 1, Trace: tl, Eval: eval}, prog)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run(fn, args, plan)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plan := faults.None()
	if crash > 0 {
		base := run(nil, nil)
		if !base.Completed {
			t.Fatal("golden base run incomplete")
		}
		plan = faults.Burst(64, crash, int64(base.Makespan)*2/5, faults.CrashAnnounced, 1)
	}
	tl := trace.NewLog()
	rep := run(plan, tl)
	h := fnv.New64a()
	for _, ev := range tl.Events {
		fmt.Fprintln(h, ev.String())
	}
	return fmt.Sprintf("hash=%016x events=%d kernel_events=%d makespan=%d messages=%d completed=%v",
		h.Sum64(), len(tl.Events), rep.Events, rep.Makespan,
		rep.Metrics.TotalMessages(), rep.Completed)
}

// TestGoldenEventTraces pins the optimised kernel's event sequence to the
// pre-optimisation kernel's, byte for byte: any reordering of kernel
// events, renumbering of sequence tie-breaks, or drift in a counter shows
// up as a fingerprint mismatch. Regenerate deliberately with
// `go test ./internal/machine -run Golden -update` and justify the diff.
func TestGoldenEventTraces(t *testing.T) {
	path := filepath.Join("testdata", "golden_traces.txt")
	var got strings.Builder
	for _, c := range goldenCells {
		fmt.Fprintf(&got, "%s %s\n", c.name, goldenRun(t, c.scheme, c.crash, "interp"))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("golden trace fingerprints diverged from the pre-optimisation kernel:\n got:\n%s want:\n%s", got.String(), want)
	}
}

// TestGoldenEventTracesCompiled runs the same golden cells under the
// bytecode VM and requires the SAME committed fingerprints: the compiled
// evaluator must reproduce the tree-walker's event traces byte for byte,
// which is the machine-level face of the lang-level step-parity contract.
func TestGoldenEventTracesCompiled(t *testing.T) {
	if *updateGolden {
		t.Skip("golden file is rewritten from the interp run; the compiled run only verifies")
	}
	path := filepath.Join("testdata", "golden_traces.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run TestGoldenEventTraces with -update to create): %v", err)
	}
	var got strings.Builder
	for _, c := range goldenCells {
		fmt.Fprintf(&got, "%s %s\n", c.name, goldenRun(t, c.scheme, c.crash, "compiled"))
	}
	if got.String() != string(want) {
		t.Errorf("compiled evaluator diverged from the committed golden fingerprints:\n got:\n%s want:\n%s", got.String(), want)
	}
}
