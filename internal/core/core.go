// Package core is the public façade of the library: one Config describing a
// machine, a workload, a recovery scheme and a fault plan; one Run call; one
// Report back. It wires together the substrates (topology, placement,
// detection, checkpointing) with the paper's recovery schemes so that
// examples, the CLI, and the benchmark harness all drive the system the
// same way.
package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/balance"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported handles so callers need only import core for common setups.
type (
	// FaultPlan schedules processor faults.
	FaultPlan = faults.Plan
	// Fault is one scheduled fault.
	Fault = faults.Fault
	// Program is a validated applicative program.
	Program = lang.Program
	// Value is an applicative value.
	Value = expr.Value
)

// Fault kinds, re-exported.
const (
	CrashAnnounced = faults.CrashAnnounced
	CrashSilent    = faults.CrashSilent
	Corrupt        = faults.Corrupt
)

// Config describes a complete experiment setup in plain values; Build turns
// it into a runnable machine.
type Config struct {
	// Procs is the number of processors (default 8).
	Procs int
	// Topology is any topology.ByName kind: "mesh", "torus", "ring",
	// "hypercube", "tree", "regular", "complete" or "star"
	// (default "mesh").
	Topology string
	// Placement is "random", "gradient", "static" or "local"
	// (default "random").
	Placement string
	// Recovery is any recovery.Names() scheme: "incremental", "none",
	// "rollback", "rollback-lazy", "rollback-nosuppress" or "splice"
	// (default "none").
	Recovery string
	// RecoveryBudget and RecoveryPeriod pace the "incremental" scheme: at
	// most Budget checkpoint reissues per drain tick, drains Period virtual
	// ticks apart (0 = the scheme defaults, 1 and 8). Build rejects negative
	// values, and rejects non-zero values under any other scheme rather than
	// silently ignoring them.
	RecoveryBudget int
	RecoveryPeriod int64
	// AncestorDepth is the §5.2 ancestor-pointer depth K (default 2).
	AncestorDepth int
	// Replication maps function names to §5.3 replica counts.
	Replication map[string]int
	// Seed drives all randomness (default 1).
	Seed int64
	// Shards is the simulation kernel's shard count: >1 partitions the
	// topology into connected regions that simulate in parallel under
	// conservative lockstep windows, with results byte-identical to the
	// single-shard reference. 0 uses DefaultShards; negative derives the
	// count from GOMAXPROCS.
	Shards int
	// Eval names the evaluator that runs task reduction passes: "interp"
	// (tree-walking reference) or "compiled" (bytecode VM). 0 uses
	// DefaultEval. Traces are byte-identical either way; only wall time
	// changes.
	Eval string
	// DisableCheckpoints turns functional checkpointing off entirely.
	DisableCheckpoints bool
	// Trace enables event logging when true.
	Trace bool
	// Deadline overrides the virtual-time budget (0 = default). In service
	// mode it is the per-request budget, counted from the request's
	// admission on the stream clock.
	Deadline int64
	// Raw exposes every low-level machine knob; fields set there win over
	// the convenience fields above.
	Raw *machine.Config

	// Backend names the substrate Open serves on ("" = "sim"); one-shot Run
	// always uses the simulator, exactly as before.
	Backend string
	// Arrival names an open-loop arrival process for service mode —
	// "arrive:poisson:RATE", "arrive:uniform:GAP" or "arrive:burst:SIZE:GAP"
	// (workload.ParseArrival) — seeded by Seed: request i of the stream is
	// offered at the schedule's i-th offset on the simulator's stream clock,
	// so faults land between and inside requests ("" = offer each batch at
	// once). It is sim-only and inert on the wall-clock backends, whose
	// arrival discipline is real time; live load drivers pace their Submit
	// calls from the same workload.Arrival schedule instead.
	Arrival string
	// MaxInFlight bounds concurrently admitted service-mode requests on
	// both backends (0 = unbounded). Offers that find every slot busy
	// follow Admission.
	MaxInFlight int
	// Admission is the full-cluster policy when MaxInFlight is reached:
	// "queue" (the default — unbounded FIFO, each completion admits the
	// head), "queue:N" (FIFO bounded at depth N — offers that find the
	// queue full are shed) or "shed" (reject outright). Shed tickets'
	// Wait returns ErrShed. Queued requests report their time in queue
	// separately from service latency (ServiceReport's queue-wait row).
	Admission string
}

// DefaultShards is the process-wide shard count used when Config.Shards is
// zero. It defaults to 1 (the single-shard reference kernel); tools like
// cmd/experiments set it once at startup so every cell they fan out inherits
// the same sharding without threading a knob through each call site. Because
// results are byte-identical at every shard count, changing it never changes
// any report — only wall-clock time.
var DefaultShards = 1

// DefaultEval is the process-wide evaluator name used when Config.Eval is
// empty, mirroring DefaultShards: tools set it once at startup and every
// cell inherits it. Because both evaluators produce byte-identical traces,
// changing it never changes any report — only wall-clock time.
var DefaultEval = lang.DefaultEvaluator

// Workload names a program and its invocation.
type Workload struct {
	Program *lang.Program
	Fn      string
	Args    []expr.Value
	// Spec is the StandardWorkload spec the workload was built from, when it
	// was ("" for hand-built workloads). Reports use it as a label, and the
	// sim service stream uses it in the canonical admission order, which is
	// what makes concurrent Submit calls deterministic (see Cluster).
	Spec string
}

// StandardWorkload builds one of the bundled programs by name:
//
//	fib:N  tak:X,Y,Z  nqueens:N  sumrange:N  msort:N  tree:FANOUT,DEPTH  binom:N,K
//
// or a synthetic internal/workload shape compiled to a program:
//
//	shape:uniform:FANOUT,DEPTH,LEAFCOST
//	shape:skew:WIDTH,DEPTH,LEAFCOST
//	shape:random:SEED,MAXFANOUT,DEPTH,MAXLEAFCOST
func StandardWorkload(spec string) (Workload, error) {
	w, err := standardWorkload(spec)
	if err != nil {
		return w, err
	}
	w.Spec = spec
	return w, nil
}

func standardWorkload(spec string) (Workload, error) {
	if strings.HasPrefix(spec, "shape:") {
		return shapeWorkload(spec)
	}
	if workload.IsArrivalSpec(spec) {
		// A common mix-up: arrival specs shape *when* requests arrive, not
		// what they compute.
		return Workload{}, fmt.Errorf("core: %q is an arrival spec, not a workload — set Config.Arrival (CLI: -arrive)", spec)
	}
	var a, b, c int64
	n, err := fmt.Sscanf(spec, "fib:%d", &a)
	if n == 1 && err == nil {
		return Workload{Program: lang.Fib(), Fn: "fib", Args: []expr.Value{expr.VInt(a)}}, nil
	}
	if n, err = fmt.Sscanf(spec, "tak:%d,%d,%d", &a, &b, &c); n == 3 && err == nil {
		return Workload{Program: lang.Tak(), Fn: "tak", Args: []expr.Value{expr.VInt(a), expr.VInt(b), expr.VInt(c)}}, nil
	}
	if n, err = fmt.Sscanf(spec, "nqueens:%d", &a); n == 1 && err == nil {
		return Workload{Program: lang.NQueens(), Fn: "nqueens", Args: []expr.Value{expr.VInt(a)}}, nil
	}
	if n, err = fmt.Sscanf(spec, "sumrange:%d", &a); n == 1 && err == nil {
		return Workload{Program: lang.SumRange(16), Fn: "sumrange", Args: []expr.Value{expr.VInt(0), expr.VInt(a)}}, nil
	}
	if n, err = fmt.Sscanf(spec, "msort:%d", &a); n == 1 && err == nil {
		xs := make([]int64, a)
		for i := range xs {
			xs[i] = (int64(i)*7919 + 13) % 1000
		}
		return Workload{Program: lang.MergeSort(), Fn: "msort", Args: []expr.Value{expr.IntList(xs...)}}, nil
	}
	if n, err = fmt.Sscanf(spec, "tree:%d,%d", &a, &b); n == 2 && err == nil {
		return Workload{Program: lang.TreeSum(int(a)), Fn: "tree", Args: []expr.Value{expr.VInt(b)}}, nil
	}
	if n, err = fmt.Sscanf(spec, "binom:%d,%d", &a, &b); n == 2 && err == nil {
		return Workload{Program: lang.Binomial(), Fn: "binom", Args: []expr.Value{expr.VInt(a), expr.VInt(b)}}, nil
	}
	return Workload{}, fmt.Errorf("core: unknown workload spec %q", spec)
}

// shapeWorkload compiles a "shape:KIND:ARGS" spec through internal/workload,
// making the synthetic call-tree shapes addressable by every artifact and
// backend the same way the bundled programs are.
func shapeWorkload(spec string) (Workload, error) {
	var s workload.Shape
	var a, b, c, d int64
	switch {
	case scan(spec, "shape:uniform:%d,%d,%d", &a, &b, &c):
		s = workload.Uniform(int(a), int(b), int(c))
	case scan(spec, "shape:skew:%d,%d,%d", &a, &b, &c):
		s = workload.Skewed(int(a), int(b), int(c))
	case scan(spec, "shape:random:%d,%d,%d,%d", &a, &b, &c, &d):
		s = workload.Random(a, int(b), int(c), int(d))
	default:
		return Workload{}, fmt.Errorf("core: unknown shape spec %q", spec)
	}
	prog, root, err := workload.Build(s)
	if err != nil {
		return Workload{}, fmt.Errorf("core: %s: %w", spec, err)
	}
	return Workload{Program: prog, Fn: root}, nil
}

// scan is Sscanf with full-match semantics for workload specs: Sscanf alone
// ignores trailing input ("shape:uniform:3,4,5,99" would parse as the 3-arg
// form), so the parsed values are re-rendered through the format and must
// reproduce the spec exactly.
func scan(spec, format string, args ...any) bool {
	n, err := fmt.Sscanf(spec, format, args...)
	if err != nil || n != len(args) {
		return false
	}
	vals := make([]any, len(args))
	for i, a := range args {
		vals[i] = *a.(*int64)
	}
	return fmt.Sprintf(format, vals...) == spec
}

// Build materializes the machine for the config, with prog as the program a
// one-shot Machine.Run evaluates.
func (c Config) Build(prog *lang.Program) (*machine.Machine, error) {
	if prog == nil {
		return nil, errors.New("core: program required")
	}
	mc, err := c.machineConfig()
	if err != nil {
		return nil, err
	}
	return machine.New(mc, prog)
}

// machineConfig resolves the plain values into the machine's configuration;
// fields set on Raw win over the convenience fields.
func (c Config) machineConfig() (machine.Config, error) {
	mc := machine.Config{}
	if c.Raw != nil {
		mc = *c.Raw
	}
	if mc.Topo == nil {
		procs := c.Procs
		if procs == 0 {
			procs = 8
		}
		kind := c.Topology
		if kind == "" {
			kind = "mesh"
		}
		topo, err := topology.ByName(kind, procs)
		if err != nil {
			return mc, err
		}
		mc.Topo = topo
	}
	if mc.Placement == nil {
		name := c.Placement
		if name == "" {
			name = "random"
		}
		pol, err := balance.ByName(name)
		if err != nil {
			return mc, err
		}
		mc.Placement = pol
	}
	if c.RecoveryBudget < 0 || c.RecoveryPeriod < 0 {
		return mc, fmt.Errorf("core: recovery budget/period must be > 0 (got %d/%d)",
			c.RecoveryBudget, c.RecoveryPeriod)
	}
	if mc.Scheme == nil {
		name := c.Recovery
		if name == "" {
			name = "none"
		}
		if c.RecoveryBudget != 0 || c.RecoveryPeriod != 0 {
			if name != "incremental" {
				return mc, fmt.Errorf("core: recovery budget/period only apply to the incremental scheme, not %q", name)
			}
			mc.Scheme = &recovery.IncrementalScheme{Budget: c.RecoveryBudget, Period: c.RecoveryPeriod}
		} else {
			sch, err := recovery.ByName(name)
			if err != nil {
				return mc, err
			}
			mc.Scheme = sch
		}
	}
	if mc.AncestorDepth == 0 {
		mc.AncestorDepth = c.AncestorDepth
	}
	if mc.Replication == nil {
		mc.Replication = c.Replication
	}
	if mc.Seed == 0 {
		mc.Seed = c.Seed
		if mc.Seed == 0 {
			mc.Seed = 1
		}
	}
	if c.DisableCheckpoints {
		mc.DisableCheckpoints = true
	}
	if mc.Eval == "" {
		mc.Eval = c.Eval
		if mc.Eval == "" {
			mc.Eval = DefaultEval
		}
	}
	if mc.Shards == 0 {
		mc.Shards = c.Shards
		if mc.Shards == 0 {
			mc.Shards = DefaultShards
		}
	}
	if mc.Trace == nil && c.Trace {
		mc.Trace = trace.NewLog(0)
	}
	if mc.Deadline == 0 && c.Deadline > 0 {
		mc.Deadline = sim.Time(c.Deadline)
	}
	return mc, nil
}

// Run evaluates the workload under the fault plan on the simulator backend
// and returns the backend-neutral report (simulator detail on Report.Sim).
// To run on another substrate use RunOn.
func (c Config) Run(w Workload, plan *faults.Plan) (*Report, error) {
	return runOn(simBackend{}, c, w, plan)
}

// RunOn evaluates the workload on the named backend.
func (c Config) RunOn(backend string, w Workload, plan *faults.Plan) (*Report, error) {
	b, err := ByName(backend)
	if err != nil {
		return nil, err
	}
	return runOn(b, c, w, plan)
}

// RunSpec is the one-line entry point: workload spec + config + plan.
func RunSpec(spec string, c Config, plan *faults.Plan) (*Report, error) {
	w, err := StandardWorkload(spec)
	if err != nil {
		return nil, err
	}
	return c.Run(w, plan)
}

// Verify runs the workload and checks the answer against the sequential
// reference evaluator, returning the report and a nil error only when the
// distributed run agreed with the reference (the determinacy guarantee of
// §2.1).
func (c Config) Verify(w Workload, plan *faults.Plan) (*Report, error) {
	rep, err := c.Run(w, plan)
	if err != nil {
		return nil, err
	}
	return rep, verifyReport(rep, w)
}

// CrashPlan is a convenience for single-crash plans.
func CrashPlan(proc int, at int64, announced bool) *faults.Plan {
	return faults.Crash(proto.ProcID(proc), at, announced)
}
