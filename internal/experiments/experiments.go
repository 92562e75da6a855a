// Package experiments drives the quantitative reproductions T1–T7, the
// ablations A1–A4 indexed in EXPERIMENTS.md, the stress scenarios S1–S6
// that push past the paper's grids (a topology sweep across every
// interconnect kind at 64 processors, rollback-vs-splice under cascading
// faults, a fault-density sweep to the recovery breaking point, shape
// diversity, open-loop saturation, incremental recovery) and the service
// stream L3. Every driver runs the simulated machine (plus the modeled PGC
// baseline where the paper's comparator is a modeled scheme) in virtual
// time and returns a Table whose rows regenerate the corresponding section
// of EXPERIMENTS.md. What the wall-clock backends owe the same claims is
// asserted by internal/node's conformance suite, not tabulated here.
// cmd/experiments and the top-level benchmarks call the same drivers, so
// the documentation, the CLI, and `go test -bench` all report the same
// numbers.
//
// Driver conventions: row 0 of every table is the baseline configuration
// (internal/runner classifies the other rows' effects against it), and all
// randomness — including fault-plan draws — flows from the driver's seed
// argument, so a multi-seed sweep probes different instances while each
// seed stays exactly reproducible.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/lang"
)

// Table is one experiment's output. Rows hold typed cells: labels stay
// strings, measurements carry their numeric value for seed aggregation.
type Table struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Claim   string   `json:"claim"` // the paper statement under test
	Columns []string `json:"columns"`
	Rows    [][]Cell `json:"rows"`
	Finding string   `json:"finding,omitempty"` // what the measurements show
	// Pairs declares explicit {baseline-row, candidate-row} comparisons for
	// multi-seed effect classification. Sweep tables that interleave two
	// configurations (T2/S2/S3's rollback-vs-splice at equal fault plans)
	// set it so each candidate is judged against its true counterpart; when
	// empty, every row is classified against row 0, the conventional
	// baseline position.
	Pairs [][2]int `json:"pairs,omitempty"`
}

// Pair records an explicit A-vs-B effect comparison: the candidate row is
// classified against the baseline row instead of row 0.
func (t *Table) Pair(baseline, candidate int) *Table {
	t.Pairs = append(t.Pairs, [2]int{baseline, candidate})
	return t
}

// PairAdjacent pairs rows (from, from+1), (from+2, from+3), …: sweeps that
// interleave a rollback row and a splice row per fault plan classify splice
// against its rollback counterpart at the equal plan, not against row 0.
func (t *Table) PairAdjacent(from int) {
	for ri := from; ri+1 < len(t.Rows); ri += 2 {
		t.Pair(ri, ri+1)
	}
}

// Markdown renders the table for EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "**Paper claim.** %s\n\n", t.Claim)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, r := range t.Rows {
		texts := make([]string, len(r))
		for i, c := range r {
			texts[i] = c.Text
		}
		b.WriteString("| " + strings.Join(texts, " | ") + " |\n")
	}
	if t.Finding != "" {
		fmt.Fprintf(&b, "\n**Measured.** %s\n", t.Finding)
	}
	return b.String()
}

func i64(v int64) Cell   { return Int(v) }
func pct(v float64) Cell { return Pct(v) }

// ratio renders a slowdown/stretch factor like "1.27x".
func ratio(v float64) Cell { return Float("%.2fx", v) }

// imbalance is max/mean of the per-processor load, 0 when empty.
func imbalance(steps []int64) float64 {
	if len(steps) == 0 {
		return 0
	}
	var sum, max int64
	for _, v := range steps {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(steps))
	return float64(max) / mean
}

// mustWorkload builds a bundled workload, panicking on a bad spec (drivers
// are called with vetted inputs; a failure is a harness bug).
func mustWorkload(spec string) core.Workload {
	w, err := core.StandardWorkload(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return w
}

// mustRun executes one configuration, panicking on setup errors like
// mustWorkload.
func mustRun(cfg core.Config, w core.Workload, plan *faults.Plan) *core.Report {
	rep, err := cfg.Run(w, plan)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return rep
}

// mustComplete is the fault-free run a driver measures everything else
// against; one that does not finish is a harness bug too.
func mustComplete(cfg core.Config, w core.Workload) *core.Report {
	rep := mustRun(cfg, w, nil)
	if !rep.Completed {
		panic(fmt.Sprintf("experiments: fault-free %s run incomplete", w.Spec))
	}
	return rep
}

// slowdown is the run's makespan over the fault-free makespan m0, dashed
// when the run never completed.
func slowdown(rep *core.Report, m0 int64) Cell {
	if !rep.Completed {
		return Dash()
	}
	return ratio(float64(rep.Makespan) / float64(m0))
}

// T1Overhead measures fault-free overhead: no fault tolerance at all,
// functional checkpointing (under both recovery schemes — identical
// fault-free behaviour expected), and the periodic-global-checkpointing
// model at two intervals.
func T1Overhead(spec string, procs int, seed int64) (*Table, error) {
	w := mustWorkload(spec)
	base := mustComplete(core.Config{Procs: procs, Seed: seed, DisableCheckpoints: true,
		StateProbeEvery: 64}, w)
	t := &Table{
		ID:    "T1",
		Title: fmt.Sprintf("Fault-free overhead (%s, %d processors)", spec, procs),
		Claim: "§2/§6: functional checkpointing is concise, distributed and asynchronous " +
			"with little fault-free overhead; periodic global checkpointing needs global " +
			"synchronization, which is potentially inefficient.",
		Columns: []string{"scheme", "makespan", "Δ makespan", "messages", "wire bytes",
			"ckpt storage (peak B)", "stop-the-world"},
	}
	addRow := func(name string, rep *core.Report, pause int64) {
		delta := float64(int64(rep.Makespan)+pause-int64(base.Makespan)) / float64(base.Makespan)
		t.Rows = append(t.Rows, []Cell{
			Str(name),
			i64(int64(rep.Makespan) + pause),
			pct(delta),
			i64(rep.Sim.Metrics.TotalMessages()),
			i64(rep.Sim.Metrics.BytesOnWire),
			i64(rep.Sim.Metrics.CheckpointBytes),
			i64(pause),
		})
	}
	addRow("no fault tolerance", base, 0)
	for _, scheme := range []string{"rollback", "splice"} {
		rep := mustRun(core.Config{Procs: procs, Seed: seed, Recovery: scheme}, w, nil)
		addRow("functional ckpt ("+scheme+")", rep, 0)
	}
	for _, div := range []int64{20, 5} {
		interval := int64(base.Makespan) / div
		out, err := baseline.Model(baseline.DefaultPGCParams(interval), base.Sim)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []Cell{
			Strf("periodic global (T=%d)", interval),
			i64(out.Makespan),
			pct(float64(out.Makespan-out.BaseMakespan) / float64(out.BaseMakespan)),
			i64(base.Sim.Metrics.TotalMessages() + out.ControlMessages),
			i64(base.Sim.Metrics.BytesOnWire + out.SnapshotBytes),
			i64(out.SnapshotBytes),
			i64(out.PauseTotal),
		})
	}
	t.Finding = "Functional checkpointing adds about a tenth to the makespan " +
		"(packet retention is local and asynchronous), while periodic global " +
		"checkpointing pays a stop-the-world pause per interval that grows with " +
		"machine state. Rollback sends as many messages as no fault tolerance, a " +
		"packet and a result per task; splice keeps its acks and sends about twice as many."
	return t, nil
}

// T2FaultSweep measures recovery cost as a function of when the fault
// strikes: rollback discards everything below the reissue points (cost grows
// with fault time), splice salvages partial results (flatter).
func T2FaultSweep(spec string, procs int, seed int64) (*Table, error) {
	w := mustWorkload(spec)
	base := mustComplete(core.Config{Procs: procs, Seed: seed, Recovery: "rollback"}, w)
	m0 := base.Makespan
	steps0 := base.Sim.Metrics.StepsExecuted
	t := &Table{
		ID:    "T2",
		Title: fmt.Sprintf("Recovery cost vs fault time (%s, %d processors, crash of processor 1)", spec, procs),
		Claim: "§6: \"if a fault happens at a later stage of the evaluation, the rollback " +
			"recovery may be costly\"; splice \"tries to salvage as much intermediate " +
			"partial results as possible\".",
		Columns: []string{"fault at", "scheme", "completion", "slowdown", "extra steps", "twins/reissues"},
	}
	for _, frac := range []int64{10, 30, 50, 70, 90} {
		at := m0 * frac / 100
		for _, scheme := range []string{"rollback", "splice"} {
			rep := mustRun(core.Config{Procs: procs, Seed: seed, Recovery: scheme},
				w, faults.Crash(1, at, true))
			extra := Dash()
			if rep.Completed {
				extra = i64(rep.Sim.Metrics.StepsExecuted - steps0)
			}
			t.Rows = append(t.Rows, []Cell{
				Strf("%d%%", frac), Str(scheme),
				i64(rep.Makespan), slowdown(rep, m0), extra,
				i64(rep.Sim.Metrics.Twins + rep.Sim.Metrics.Reissues),
			})
		}
	}
	t.PairAdjacent(0)
	t.Finding = "Rollback's extra re-executed work grows with the fault time while " +
		"splice's salvage keeps the late-fault penalty flatter; both always finish " +
		"with the correct answer."
	return t, nil
}

// T3Scale sweeps the processor count: fault-free overhead of functional
// checkpointing stays under one message per task, while the PGC model's
// synchronization grows with the machine.
func T3Scale(spec string, sizes []int, seed int64) (*Table, error) {
	w := mustWorkload(spec)
	t := &Table{
		ID:    "T3",
		Title: fmt.Sprintf("Scaling processors (%s)", spec),
		Claim: "§2: \"periodic global synchronization among a large number of processors " +
			"is potentially inefficient\".",
		Columns: []string{"processors", "makespan (ckpt)", "ckpt msgs/task", "PGC pause total",
			"PGC pause share"},
	}
	for _, n := range sizes {
		rep := mustComplete(core.Config{Procs: n, Seed: seed, Recovery: "rollback",
			StateProbeEvery: 64}, w)
		out, err := baseline.Model(baseline.DefaultPGCParams(int64(rep.Makespan)/10), rep.Sim)
		if err != nil {
			return nil, err
		}
		perTask := float64(rep.Sim.Metrics.MsgTask+rep.Sim.Metrics.MsgTaskAck) / float64(rep.Sim.Metrics.TasksSpawned)
		t.Rows = append(t.Rows, []Cell{
			i64(int64(n)),
			i64(int64(rep.Makespan)),
			Float("%.2f", perTask),
			i64(out.PauseTotal),
			pct(float64(out.PauseTotal) / float64(out.BaseMakespan)),
		})
	}
	t.Finding = "Functional checkpointing's per-task message cost is bounded by 1 (the " +
		"packet; rollback sends no placement ack, the detector reports a lost destination) " +
		"at every machine size and approaches it as 1 − 1/P: the 1/P of random placements " +
		"that stay home put nothing on the wire. The modeled global checkpoint pause grows " +
		"with processor count and state."
	return t, nil
}

// T4MultiFault exercises §5.2: multiple faults on separate branches recover
// in parallel under splice; killing a task's parent and grandparent
// processors strands orphans unless the ancestor-pointer depth K grows.
func T4MultiFault(seed int64) (*Table, error) {
	w := mustWorkload("tree:4,5")
	t := &Table{
		ID:    "T4",
		Title: "Multiple faults under splice (tree:4,5, 9-processor mesh)",
		Claim: "§5.2: separate-branch failures recover in parallel; \"if both the parent " +
			"and grandparent processors of a task fail simultaneously, the orphan task " +
			"would be stranded\" unless pointers extend to great-grandparents.",
		Columns: []string{"fault plan", "ancestor depth K", "completed", "twins", "stranded", "slowdown"},
	}
	base := mustRun(core.Config{Procs: 9, Seed: seed, Recovery: "splice"}, w, nil)
	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"two faults, separate branches", faults.None().
			Add(faults.Fault{At: 800, Proc: 1, Kind: faults.CrashAnnounced}).
			Add(faults.Fault{At: 2000, Proc: 5, Kind: faults.CrashAnnounced})},
		{"simultaneous neighbour faults", faults.None().
			Add(faults.Fault{At: 1200, Proc: 2, Kind: faults.CrashAnnounced}).
			Add(faults.Fault{At: 1200, Proc: 3, Kind: faults.CrashAnnounced})},
	}
	for _, pl := range plans {
		for _, k := range []int{2, 3, 4} {
			rep := mustRun(core.Config{Procs: 9, Seed: seed, Recovery: "splice", AncestorDepth: k},
				w, pl.plan)
			t.Rows = append(t.Rows, []Cell{
				Str(pl.name), i64(int64(k)),
				Strf("%v", rep.Completed),
				i64(rep.Sim.Metrics.Twins),
				i64(rep.Sim.Metrics.Stranded),
				slowdown(rep, base.Makespan),
			})
		}
	}
	t.Finding = "Splice handles separate-branch and simultaneous faults at every K; " +
		"deeper ancestor chains reduce stranded orphan results (K=2 strands results " +
		"whose parent and grandparent both died; K≥3 escalates past them)."
	return t, nil
}

// T5Replication exercises §5.3: replicated critical-section task packets
// with asynchronous majority voting mask value-corrupting processors; a
// plain run does not.
func T5Replication(seed int64) (*Table, error) {
	prog := lang.CriticalSections(12, 400)
	w := core.Workload{Program: prog, Fn: "main"}
	want, err := lang.RefEval(prog, "main", nil)
	if err != nil {
		return nil, err
	}
	plan := &faults.Plan{Faults: []faults.Fault{{At: 0, Proc: 3, Kind: faults.Corrupt}}}
	t := &Table{
		ID:    "T5",
		Title: "Replicated critical sections vs a value-corrupting processor (12 work calls, 8 processors)",
		Claim: "§5.3: \"Replicating tasks provides a means of emulating hardware redundancy\"; " +
			"a node \"does not have to wait for the slowest answer if it has received the " +
			"identical results from the majority\"; \"The user may specify certain critical " +
			"sections of a program for such a highly reliable operation.\"",
		Columns: []string{"replication R", "answer correct", "votes", "corrupt outvoted",
			"straggler results ignored", "makespan", "task messages"},
	}
	for _, r := range []int{1, 3, 5} {
		cfg := core.Config{Procs: 8, Seed: seed}
		if r > 1 {
			cfg.Replication = map[string]int{"work": r}
		}
		rep := mustRun(cfg, w, plan)
		correct := rep.Completed && rep.Answer != nil && rep.Answer.Equal(want)
		t.Rows = append(t.Rows, []Cell{
			i64(int64(r)),
			Strf("%v", correct),
			i64(rep.Sim.Metrics.Votes),
			i64(rep.Sim.Metrics.VoteMismatches),
			i64(rep.Sim.Metrics.DupResults),
			i64(int64(rep.Makespan)),
			i64(rep.Sim.Metrics.MsgTask),
		})
	}
	t.Finding = "R=1 completes with a wrong answer (crash recovery cannot mask value " +
		"faults); R=3/5 outvote the corrupt processor. Ignored straggler results show " +
		"votes close on majority without waiting for the slowest replica, at ~R× task traffic."
	return t, nil
}

// T6Placement compares dynamic (gradient, random) and static allocation
// through a failure (§3.3).
func T6Placement(seed int64) (*Table, error) {
	w := mustWorkload("tree:3,6")
	t := &Table{
		ID:    "T6",
		Title: "Allocation strategy and recovery (tree:3,6, 9-processor mesh, rollback)",
		Claim: "§3.3: \"Dynamic allocation does not distinguish between tasks generated " +
			"for recovery and original tasks\"; static allocation needs reassignment " +
			"after a failure and \"the balanced state ... may not be maintained easily\".",
		Columns: []string{"placement", "fault-free makespan", "with fault", "recovery stretch",
			"messages (fault run)", "load imbalance (max/mean steps)"},
	}
	for _, placement := range []string{"gradient", "random", "static", "local"} {
		cfg := core.Config{Procs: 9, Seed: seed, Recovery: "rollback", Placement: placement}
		base := mustComplete(cfg, w)
		rep := mustRun(cfg, w, faults.Crash(1, base.Makespan/2, true))
		t.Rows = append(t.Rows, []Cell{
			Str(placement),
			i64(base.Makespan),
			i64(rep.Makespan),
			slowdown(rep, base.Makespan),
			i64(rep.Sim.Metrics.TotalMessages()),
			Float("%.2f", imbalance(rep.Sim.StepsByProc)),
		})
	}
	t.Finding = "Dynamic policies re-place recovered tasks transparently; static hashing " +
		"remaps the dead processor's slot (deterministic probing) at similar protocol cost " +
		"but concentrates the failed processor's share on one survivor; local-only placement " +
		"cannot spread recovery work at all."
	return t, nil
}

// T7TMR compares §5.4's TMR-style full replication against functional
// checkpointing as a fault-free overhead proposition.
func T7TMR(seed int64) (*Table, error) {
	w := mustWorkload("fib:10")
	t := &Table{
		ID:    "T7",
		Title: "TMR-style full replication vs functional checkpointing (fib:10, 8 processors)",
		Claim: "§5.4 (Misunas): TMR executes three complete copies of the program; " +
			"§6: functional checkpointing's \"thrust ... is to minimize the overhead " +
			"while the system is in a normal, fault-free operation\".",
		Columns: []string{"scheme", "makespan", "steps executed", "task messages", "wire bytes"},
	}
	ckpt := mustRun(core.Config{Procs: 8, Seed: seed, Recovery: "rollback"}, w, nil)
	t.Rows = append(t.Rows, []Cell{Str("functional ckpt (rollback)"),
		i64(int64(ckpt.Makespan)), i64(ckpt.Sim.Metrics.StepsExecuted),
		i64(ckpt.Sim.Metrics.MsgTask), i64(ckpt.Sim.Metrics.BytesOnWire)})
	tmr := mustRun(core.Config{Procs: 8, Seed: seed,
		Replication: baseline.ReplicateAll(w.Program.Names(), 3)}, w, nil)
	t.Rows = append(t.Rows, []Cell{Str("TMR (R=3 everywhere)"),
		i64(int64(tmr.Makespan)), i64(tmr.Sim.Metrics.StepsExecuted),
		i64(tmr.Sim.Metrics.MsgTask), i64(tmr.Sim.Metrics.BytesOnWire)})
	t.Finding = "TMR pays roughly 3× compute and task traffic in every fault-free run; " +
		"functional checkpointing defers nearly all cost to the (rare) recovery path."
	return t, nil
}

// A1EagerVsLazyAbort quantifies the orphan garbage-collection choice.
func A1EagerVsLazyAbort(seed int64) (*Table, error) {
	w := mustWorkload("tree:3,6")
	t := &Table{
		ID:    "A1",
		Title: "Ablation: eager vs lazy orphan abortion (rollback, tree:3,6)",
		Claim: "§3.2/§3.4: abandoned dependents should be aborted and garbage-collected; " +
			"orphans are otherwise harmless but waste work.",
		Columns: []string{"mode", "completed", "aborted", "wasted steps", "leaked tasks", "makespan"},
	}
	base := mustRun(core.Config{Procs: 9, Seed: seed, Recovery: "rollback"}, w, nil)
	at := int64(base.Makespan) / 2
	for _, scheme := range []string{"rollback", "rollback-lazy"} {
		rep := mustRun(core.Config{Procs: 9, Seed: seed, Recovery: scheme}, w, faults.Crash(1, at, true))
		t.Rows = append(t.Rows, []Cell{
			Str(scheme), Strf("%v", rep.Completed),
			i64(rep.Sim.Metrics.TasksAborted), i64(rep.Sim.Metrics.StepsWasted),
			i64(rep.Sim.Metrics.TasksLeaked), i64(int64(rep.Makespan)),
		})
	}
	t.Finding = "Eager scoped abortion collects the doomed fragments immediately; lazy " +
		"mode lets orphans run to their undeliverable ends, wasting steps and leaking " +
		"wedged tasks that never learn their suppliers died."
	return t, nil
}

// A2CheckpointStorage reports peak retained checkpoint bytes by workload.
func A2CheckpointStorage(seed int64) (*Table, error) {
	t := &Table{
		ID:    "A2",
		Title: "Ablation: checkpoint storage by workload (8 processors)",
		Claim: "§2: \"nonvolatile storage for storing system states may not be necessary\" — " +
			"checkpoints live on peer processors and are released as children return.",
		Columns: []string{"workload", "tasks", "checkpoints", "peak storage (B)", "peak/task (B)"},
	}
	for _, spec := range []string{"fib:12", "tak:8,4,2", "nqueens:5", "tree:4,4", "msort:24"} {
		rep := mustComplete(core.Config{Procs: 8, Seed: seed, Recovery: "splice"}, mustWorkload(spec))
		perTask := float64(rep.Sim.Metrics.CheckpointBytes) / float64(rep.Sim.Metrics.TasksSpawned)
		t.Rows = append(t.Rows, []Cell{
			Str(spec), i64(rep.Sim.Metrics.TasksSpawned), i64(rep.Sim.Metrics.Checkpoints),
			i64(rep.Sim.Metrics.CheckpointBytes), Float("%.1f", perTask),
		})
	}
	t.Finding = "Peak retained storage is a small constant per in-flight task (packet " +
		"bytes), far below any global-snapshot footprint; release-on-return keeps it " +
		"proportional to the active frontier, not the whole history."
	return t, nil
}

// A3DetectionLatency sweeps the heartbeat interval against silent-crash
// recovery time.
func A3DetectionLatency(seed int64) (*Table, error) {
	w := mustWorkload("fib:12")
	t := &Table{
		ID:    "A3",
		Title: "Ablation: heartbeat period vs silent-crash recovery (fib:12, rollback)",
		Claim: "§1: failures may be detected \"via coding or timeout mechanisms\"; detection " +
			"latency is part of every recovery.",
		Columns: []string{"heartbeat period", "detect latency", "completion", "slowdown"},
	}
	base := mustRun(core.Config{Procs: 8, Seed: seed, Recovery: "rollback"}, w, nil)
	at := int64(base.Makespan) / 2
	for _, hb := range []int64{100, 250, 500, 1000} {
		cfg := core.Config{Procs: 8, Seed: seed, Recovery: "rollback", HeartbeatEvery: hb}
		rep := mustRun(cfg, w, faults.Crash(1, at, false))
		lat := Dash()
		if rep.Sim.Metrics.FirstDetections > 0 {
			lat = i64(rep.Sim.Metrics.DetectLatencySum / rep.Sim.Metrics.FirstDetections)
		}
		t.Rows = append(t.Rows, []Cell{i64(hb), lat, i64(rep.Makespan), slowdown(rep, base.Makespan)})
	}
	t.Finding = "Detection latency scales with the heartbeat period and feeds directly " +
		"into completion time. At period 1000 the crash comes before the victim's first " +
		"beat, so its watchers count from the seeded phase and report it about as soon as at " +
		"period 500. Rollback arms no reply timer, so nothing but the detector reports it."
	return t, nil
}

// A4TopmostSuppression quantifies the §3.2 topmost rule (the B5 case).
// Shadowing needs an ancestor and its genealogical dependent checkpointed by
// the same processor onto the same (failed) processor, so the setup uses few
// processors and a deep tree to make such pairs common.
func A4TopmostSuppression(seed int64) (*Table, error) {
	w := mustWorkload("tree:2,9")
	t := &Table{
		ID:    "A4",
		Title: "Ablation: topmost suppression on/off (rollback, tree:2,9, 4 processors)",
		Claim: "§3: \"an efficient way to salvage a group of genealogical dependents is to " +
			"redo only the most ancient ancestor and ignore the rest\" — reissuing shadowed " +
			"checkpoints (B5) \"only increases the system overhead\".",
		Columns: []string{"mode", "reissues", "suppressed", "wasted steps", "total steps", "makespan"},
	}
	base := mustRun(core.Config{Procs: 4, Seed: seed, Recovery: "rollback"}, w, nil)
	at := int64(base.Makespan) / 2
	for _, scheme := range []string{"rollback", "rollback-nosuppress"} {
		rep := mustRun(core.Config{Procs: 4, Seed: seed, Recovery: scheme}, w, faults.Crash(1, at, true))
		t.Rows = append(t.Rows, []Cell{
			Str(scheme), i64(rep.Sim.Metrics.Reissues), i64(rep.Sim.Metrics.Suppressed),
			i64(rep.Sim.Metrics.StepsWasted), i64(rep.Sim.Metrics.StepsExecuted), i64(int64(rep.Makespan)),
		})
	}
	t.Finding = "Disabling the topmost rule injects extra reissue packets for genealogical " +
		"dependents whose parents are themselves being regenerated — pure overhead, as the " +
		"paper's B5 analysis predicts (\"Reactivation of B5 only increases the system " +
		"overhead\"); the suppressed variant reaches the same answer with fewer packets."
	return t, nil
}
