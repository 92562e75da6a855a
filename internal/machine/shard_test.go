package machine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/recovery"
	"repro/internal/topology"
	"repro/internal/trace"
)

// shardSweep is the shard counts every sharded-determinism test runs at.
// 1 is the single-shard reference kernel; the rest exercise 2-, 4- and
// 8-way conservative synchronization on the same cells.
var shardSweep = []int{1, 2, 4, 8}

// traceDump renders a full event log to one comparable string.
func traceDump(tl *trace.Log) string {
	var b strings.Builder
	for _, ev := range tl.Events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// reportLine fingerprints the report fields that would move first if the
// sharded kernel diverged from the reference.
func reportLine(rep *Report) string {
	return fmt.Sprintf("answer=%v completed=%v makespan=%d events=%d metrics=%+v steps=%v",
		rep.Answer, rep.Completed, rep.Makespan, rep.Events, rep.Metrics, rep.StepsByProc)
}

// TestShardSweepByteIdentical is the tentpole guarantee: the golden cells
// (S1 mesh-64, fault-free and under a 3-crash burst, rollback and splice)
// produce byte-identical event traces and identical reports at every shard
// count. Any divergence in event order, sequence tie-breaking, window
// placement, or metrics accounting fails here before it can corrupt an
// experiment artifact.
func TestShardSweepByteIdentical(t *testing.T) {
	for _, c := range goldenCells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			// The single-shard interp run is the one reference; every other
			// (shards × evaluator) combination must match it byte for byte,
			// so the sweep pins the cross-evaluator contract at every shard
			// count in the same breath as the sharded-determinism one.
			var refTrace, refReport string
			for _, eval := range []string{"interp", "compiled"} {
				for _, shards := range shardSweep {
					tl := trace.NewLog()
					rep := goldenRunSharded(t, c.scheme, c.crash, shards, eval, tl)
					gotTrace, gotReport := traceDump(tl), reportLine(rep)
					if eval == "interp" && shards == 1 {
						refTrace, refReport = gotTrace, gotReport
						continue
					}
					if gotReport != refReport {
						t.Fatalf("eval=%s shards=%d report diverged:\n got  %s\n want %s", eval, shards, gotReport, refReport)
					}
					if gotTrace != refTrace {
						t.Fatalf("eval=%s shards=%d event trace diverged from single-shard reference (%s)",
							eval, shards, firstTraceDiff(refTrace, gotTrace))
					}
				}
			}
		})
	}
}

// goldenRunSharded mirrors goldenRun with an explicit shard count,
// evaluator, and trace sink, reusing the same cells so the sweep pins
// against the same behavior the committed golden fingerprints capture.
func goldenRunSharded(t *testing.T, scheme string, crash, shards int, eval string, tl *trace.Log) *Report {
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
		m, err := New(Config{Topo: topo, Scheme: sch, Seed: 1, Trace: tl, Shards: shards, Eval: eval}, prog)
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
	return run(plan, tl)
}

// expectStampValues fails t if the run traced in tl fills a (stamp, hole)
// the fault-free oracle does not, or with another value.
func expectStampValues(t *testing.T, oracle map[string]string, tl *trace.Log, run string) {
	t.Helper()
	if len(oracle) == 0 {
		t.Fatal("the fault-free oracle run filled no hole")
	}
	for pair, v := range stampValues(t, tl) {
		if want, ok := oracle[pair]; !ok || want != v {
			t.Errorf("%s: %s := %s; the fault-free run fills it with %q", run, pair, v, want)
		}
	}
}

// firstTraceDiff locates the first diverging line of two trace dumps.
func firstTraceDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("first diff at line %d: reference %q vs sharded %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: reference %d vs sharded %d", len(al), len(bl))
}

// TestShardSweepServiceStream runs the L3-style service stream — several
// requests admitted on a spaced stream clock with faults landing mid-stream
// — at every shard count and requires byte-identical traces and identical
// per-request completion stamps. This covers the cross-shard admission path
// (Submit lands on the host's shard via a driver event) that one-shot runs
// never exercise. Every run fills each (stamp, hole) with the fault-free
// single-shard run's value (the stamp oracle), whichever shard hands a
// packet or a result back to its free list.
func TestShardSweepServiceStream(t *testing.T) {
	var oracle map[string]string
	run := func(shards int, eval string) (string, string) {
		topo, err := topology.ByName("mesh", 16)
		if err != nil {
			t.Fatal(err)
		}
		tl := trace.NewLog()
		m, err := New(Config{Topo: topo, Scheme: recovery.Rollback(), Seed: 3, Trace: tl, Shards: shards, Eval: eval}, lang.Fib())
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Serve(ServeConfig{NextArrival: every(150)})
		if err != nil {
			t.Fatal(err)
		}
		if oracle != nil {
			if _, err := s.Inject(faults.Crash(5, 300, true)); err != nil {
				t.Fatal(err)
			}
		}
		var reqs []*Req
		for i := 0; i < 3; i++ {
			r, err := s.Submit("", lang.Fib(), "fib", []expr.Value{expr.VInt(10 + int64(i))})
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, r)
		}
		var lines []string
		for _, r := range reqs {
			s.Wait(r)
			lines = append(lines, fmt.Sprintf("req=%d done=%v at=%d answer=%v", r.ID(), r.Done(), r.DoneAt(), r.Answer()))
		}
		rep := s.Finish()
		lines = append(lines, reportLine(rep))
		if oracle == nil {
			oracle = stampValues(t, tl)
		} else {
			expectStampValues(t, oracle, tl, fmt.Sprintf("eval=%s shards=%d", eval, shards))
		}
		return strings.Join(lines, "\n"), traceDump(tl)
	}
	run(1, "interp") // fault-free: the oracle
	refLines, refTrace := run(1, "interp")
	for _, eval := range []string{"interp", "compiled"} {
		for _, shards := range shardSweep {
			if eval == "interp" && shards == 1 {
				continue // the reference itself
			}
			gotLines, gotTrace := run(shards, eval)
			if gotLines != refLines {
				t.Fatalf("eval=%s shards=%d stream outcome diverged:\n got:\n%s\n want:\n%s", eval, shards, gotLines, refLines)
			}
			if gotTrace != refTrace {
				t.Fatalf("eval=%s shards=%d stream trace diverged (%s)", eval, shards, firstTraceDiff(refTrace, gotTrace))
			}
		}
	}
}

// TestShardSweepS3FaultDensity covers the S3-style regime: escalating
// multi-crash bursts on a torus under splice, where recovery traffic (twins,
// relays, escalations) dominates. Identical reports at every shard count,
// and every (stamp, hole) filled with the fault-free single-shard value.
func TestShardSweepS3FaultDensity(t *testing.T) {
	var oracle map[string]string
	run := func(shards, kills int) string {
		topo, err := topology.ByName("torus", 36)
		if err != nil {
			t.Fatal(err)
		}
		tl := trace.NewLog()
		m, err := New(Config{Topo: topo, Scheme: recovery.Splice(), Seed: 7, Shards: shards, Trace: tl}, lang.TreeSum(3))
		if err != nil {
			t.Fatal(err)
		}
		plan := faults.Burst(36, kills, 250, faults.CrashAnnounced, 3)
		rep, err := m.Run("tree", []expr.Value{expr.VInt(6)}, plan)
		if err != nil {
			t.Fatal(err)
		}
		if kills == 0 {
			oracle = stampValues(t, tl)
		} else {
			expectStampValues(t, oracle, tl, fmt.Sprintf("kills=%d shards=%d", kills, shards))
		}
		return reportLine(rep)
	}
	run(1, 0) // fault-free: the oracle
	for _, kills := range []int{2, 5} {
		ref := run(1, kills)
		for _, shards := range shardSweep[1:] {
			if got := run(shards, kills); got != ref {
				t.Fatalf("kills=%d shards=%d report diverged:\n got  %s\n want %s", kills, shards, got, ref)
			}
		}
	}
}
