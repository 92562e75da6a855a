// Package core is the public façade of the library: one Config describing a
// machine, a workload, a recovery scheme and a fault plan; one Run call; one
// Report back. It wires together the substrates (topology, placement,
// detection, checkpointing) with the paper's recovery schemes so that
// examples, the CLI, and the benchmark harness all drive the system the
// same way.
package core

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

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

// FaultPlan schedules processor faults, re-exported so callers need only
// import core for common setups.
type FaultPlan = faults.Plan

// Config describes a run — machine, recovery scheme, failure detector and
// service discipline — in plain values that mean the same thing on every
// backend; which backend serves it is named at the call (RunOn, OpenOn).
// WithDefaults fills the defaults all backends share; Build turns the config
// into a simulator machine. Knobs marked sim-only are rejected, not ignored,
// by the wall-clock backends.
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
	// "rollback", "rollback-lazy", "rollback-nosuppress" or "splice". The
	// default is the one value that differs by backend: an empty Recovery
	// means "none" on the simulator (the fault-free baseline its overhead
	// tables measure against) and "rollback" on live and net, which
	// implement only "rollback" and "none".
	Recovery string
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
	// (tree-walking reference) or "compiled" (bytecode VM). Empty uses
	// DefaultEval. Traces are byte-identical either way; only wall time
	// changes.
	Eval string
	// DisableCheckpoints turns functional checkpointing off entirely
	// (sim-only: the zero-fault-tolerance baseline of T1).
	DisableCheckpoints bool
	// HeartbeatEvery is the failure detector's neighbour heartbeat period in
	// virtual ticks (0 = machine.DefaultHeartbeatEvery, negative disables
	// the detector). Sim-only: live and net learn of a death from the
	// transport.
	HeartbeatEvery int64
	// StateProbeEvery, when positive, samples the machine's resident state
	// (tasks and packet bytes) every that many virtual ticks into
	// Report.Sim.StateSamples — what a coordinated global snapshot would
	// have to copy at that instant. Sim-only.
	StateProbeEvery int64
	// Trace enables event logging when true.
	Trace bool
	// Deadline overrides the virtual-time budget (0 = default). In service
	// mode it is the per-request budget, counted from the request's
	// admission on the stream clock.
	Deadline int64

	// Arrival names an open-loop arrival process for service mode —
	// "arrive:poisson:RATE", "arrive:uniform:GAP" or "arrive:burst:SIZE:GAP",
	// the prefix optional (workload.ParseArrival) — seeded by Seed: request
	// i of the stream is offered at the schedule's i-th offset on the
	// simulator's stream clock, so faults land between and inside requests
	// ("" = offer each batch at once). It is sim-only and inert on the
	// wall-clock backends, whose arrival discipline is real time: a request
	// is offered when its Submit call is made.
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

// BindFlags defines a flag for every field a command line sets, bound to the
// field itself, and sets those fields to the flags' defaults. A run's
// configuration is then what the flag set prints: every flag whose value
// differs from its default.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Procs, "procs", 8, "number of processors")
	fs.StringVar(&c.Topology, "topology", "mesh", strings.Join(topology.Kinds(), "|"))
	fs.StringVar(&c.Placement, "placement", "random", "random|gradient|static|local")
	fs.StringVar(&c.Recovery, "recovery", "", "recovery scheme: "+strings.Join(recovery.Names(), "|")+" (default none on sim, rollback on live and net, which implement rollback and none)")
	fs.StringVar(&c.Eval, "eval", "", "evaluator for task reduction passes: "+strings.Join(lang.Evaluators(), "|")+" (default interp; traces are byte-identical either way)")
	fs.IntVar(&c.AncestorDepth, "ancestors", 2, "ancestor-pointer depth K (§5.2)")
	fs.Int64Var(&c.Seed, "seed", 1, "random seed")
	c.Shards = 1
	fs.Var((*shardFlag)(&c.Shards), "shards", "`count` of simulation kernel shards (sim backend; 0 or negative = GOMAXPROCS); results are byte-identical at every count")
	fs.BoolVar(&c.Trace, "trace", false, "print the event trace")
	fs.Int64Var(&c.Deadline, "deadline", 0, "virtual-time budget (0 = default); per-request in service mode")
	fs.StringVar(&c.Arrival, "arrive", "", `service mode: seeded arrival process on the sim stream clock — poisson:RATE, uniform:GAP or burst:SIZE:GAP (the "arrive:" prefix is optional; default: all requests offered at once)`)
	fs.IntVar(&c.MaxInFlight, "max-inflight", 0, "service mode: bound on concurrently admitted requests (0 = unbounded)")
	fs.StringVar(&c.Admission, "admission", "", "service mode: what to do with requests over the -max-inflight bound — queue (default), queue:N (FIFO bounded at depth N) or shed")
}

// shardFlag is Shards on a command line, where 0 asks for what a negative
// count does, one shard per GOMAXPROCS, and not for DefaultShards.
type shardFlag int

func (s *shardFlag) String() string { return strconv.Itoa(int(*s)) }

func (s *shardFlag) Set(v string) error {
	n, err := strconv.ParseInt(v, 0, strconv.IntSize)
	*s = shardFlag(cmp.Or(n, -1))
	return err
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
	// what makes concurrent Submit calls deterministic (see machine.Session).
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
//
// An argument that sizes what is built here — msort's list, tree's fanout, a
// shape's fanout, depth and leaf cost — has an accepted range and a spec
// outside it is an error; the others are plain program inputs. The same spec always
// yields the same *Program (with a fresh copy of Args): see standardWorkloads.
func StandardWorkload(spec string) (Workload, error) {
	v, ok := standardWorkloads.Load(spec)
	if !ok {
		w, err := standardWorkload(spec)
		if err != nil {
			return w, err
		}
		w.Spec = spec
		v, _ = standardWorkloads.LoadOrStore(spec, w)
	}
	w := v.(Workload)
	w.Args = slices.Clone(w.Args)
	return w, nil
}

// standardWorkloads memoizes StandardWorkload by spec. Programs are immutable
// once built, and everything downstream that recognises a program does so by
// pointer — the machine's program table, compiled code, refAnswers, the net
// backend's program broadcast — so a stream that submits one spec a thousand
// times must hand them one program, not a thousand.
var standardWorkloads sync.Map // spec -> Workload

func standardWorkload(spec string) (Workload, error) {
	if strings.HasPrefix(spec, "shape:") {
		return shapeWorkload(spec)
	}
	if strings.HasPrefix(spec, "arrive:") {
		// A common mix-up: arrival specs shape *when* requests arrive, not
		// what they compute.
		return Workload{}, fmt.Errorf("core: %q is an arrival spec, not a workload — set Config.Arrival (CLI: -arrive)", spec)
	}
	var a, b, c int64
	switch {
	case scan(spec, "fib:%d", &a):
		return Workload{Program: lang.Fib(), Fn: "fib", Args: []expr.Value{expr.VInt(a)}}, nil
	case scan(spec, "tak:%d,%d,%d", &a, &b, &c):
		return Workload{Program: lang.Tak(), Fn: "tak", Args: []expr.Value{expr.VInt(a), expr.VInt(b), expr.VInt(c)}}, nil
	case scan(spec, "nqueens:%d", &a):
		return Workload{Program: lang.NQueens(), Fn: "nqueens", Args: []expr.Value{expr.VInt(a)}}, nil
	case scan(spec, "sumrange:%d", &a):
		return Workload{Program: lang.SumRange(16), Fn: "sumrange", Args: []expr.Value{expr.VInt(0), expr.VInt(a)}}, nil
	case scan(spec, "msort:%d", &a):
		// The list is built here, before anything can bound it.
		if err := inRange(spec, arg{"N", a, 0, 100_000}); err != nil {
			return Workload{}, err
		}
		xs := make([]int64, a)
		for i := range xs {
			xs[i] = (int64(i)*7919 + 13) % 1000
		}
		return Workload{Program: lang.MergeSort(), Fn: "msort", Args: []expr.Value{expr.IntList(xs...)}}, nil
	case scan(spec, "tree:%d,%d", &a, &b):
		// One sum node that wide is built here; a sum of no terms has no value.
		if err := inRange(spec, arg{"FANOUT", a, 1, 64}); err != nil {
			return Workload{}, err
		}
		return Workload{Program: lang.TreeSum(int(a)), Fn: "tree", Args: []expr.Value{expr.VInt(b)}}, nil
	case scan(spec, "binom:%d,%d", &a, &b):
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
	var err error
	switch {
	case scan(spec, "shape:uniform:%d,%d,%d", &a, &b, &c):
		err = inRange(spec, arg{"FANOUT", a, 1, workload.MaxFanout}, arg{"LEAFCOST", c, 0, maxLeafCost})
		s = workload.Uniform(int(a), int(b), int(c))
	case scan(spec, "shape:skew:%d,%d,%d", &a, &b, &c):
		err = inRange(spec, arg{"WIDTH", a, 1, workload.MaxFanout}, arg{"LEAFCOST", c, 0, maxLeafCost})
		s = workload.Skewed(int(a), int(b), int(c))
	case scan(spec, "shape:random:%d,%d,%d,%d", &a, &b, &c, &d):
		err = inRange(spec, arg{"MAXFANOUT", b, 1, workload.MaxFanout}, arg{"MAXLEAFCOST", d, 1, maxLeafCost})
		s = workload.Random(a, int(b), int(c), int(d))
	default:
		err = fmt.Errorf("core: unknown shape spec %q", spec)
	}
	if err != nil {
		return Workload{}, err
	}
	prog, root, err := workload.Build(s)
	if err != nil {
		return Workload{}, fmt.Errorf("core: %s: %w", spec, err)
	}
	return Workload{Program: prog, Fn: root}, nil
}

// maxLeafCost bounds one leaf's chain, which is one expression nested that
// deep: every recursive walk over it (validate, format, parse, evaluate)
// stays far inside the goroutine stack limit, which a chain of a million
// does not.
const maxLeafCost = 10_000

// arg is one numeric argument of a workload spec with the range the spec
// accepts for it.
type arg struct {
	name      string
	v, lo, hi int64
}

// inRange reports the first argument outside its range, naming the spec.
func inRange(spec string, args ...arg) error {
	for _, a := range args {
		if a.v < a.lo || a.v > a.hi {
			return fmt.Errorf("core: %s: %s must be in %d..%d", spec, a.name, a.lo, a.hi)
		}
	}
	return nil
}

// scan is Sscanf with full-match semantics for workload specs: Sscanf alone
// ignores trailing input ("fib:12abc" would run fib:12, "tak:1,2,3,4" the
// 3-arg form), so the parsed values are re-rendered through the format and
// must reproduce the spec exactly.
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

// WithDefaults returns the config with the defaults every backend shares
// filled in: 8 processors, seed 1, the process-wide evaluator. Everything
// else keeps its zero value, whose meaning each field documents.
func (c Config) WithDefaults() Config {
	if c.Procs == 0 {
		c.Procs = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Eval == "" {
		c.Eval = DefaultEval
	}
	return c
}

// machineConfig maps the plain values onto the simulator's configuration.
// Names resolve here (topology, placement, scheme); the defaults
// machine.Config applies to its own zero values are left to it.
func (c Config) machineConfig() (machine.Config, error) {
	c = c.WithDefaults()
	mc := machine.Config{
		AncestorDepth:      c.AncestorDepth,
		Replication:        c.Replication,
		Seed:               c.Seed,
		Shards:             cmp.Or(c.Shards, DefaultShards),
		DisableCheckpoints: c.DisableCheckpoints,
		Eval:               c.Eval,
		HeartbeatEvery:     sim.Time(c.HeartbeatEvery),
		StateProbeEvery:    sim.Time(c.StateProbeEvery),
		Deadline:           sim.Time(max(c.Deadline, 0)),
	}
	if c.Trace {
		mc.Trace = trace.NewLog()
	}
	var err error
	if mc.Topo, err = topology.ByName(cmp.Or(c.Topology, "mesh"), c.Procs); err != nil {
		return mc, err
	}
	if c.Placement != "" {
		if mc.Placement, err = balance.ByName(c.Placement); err != nil {
			return mc, err
		}
	}
	if c.Recovery != "" {
		if mc.Scheme, err = recovery.ByName(c.Recovery); err != nil {
			return mc, err
		}
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

// Verify runs the workload and checks the answer against the sequential
// reference evaluator, returning the report and a nil error only when the
// distributed run agreed with the reference (the determinacy guarantee of
// §2.1).
func (c Config) Verify(w Workload, plan *faults.Plan) (*Report, error) {
	return VerifyOn("sim", c, w, plan)
}

// CrashPlan is a convenience for single-crash plans.
func CrashPlan(proc int, at int64, announced bool) *faults.Plan {
	return faults.Crash(proto.ProcID(proc), at, announced)
}
