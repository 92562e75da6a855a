// Package machine implements the simulated applicative multiprocessor: a
// partitioned-memory collection of processors that cooperatively evaluate an
// applicative program by demand-driven task spawning (the Rediflow-style
// substrate of §1), with functional checkpointing (§2), pluggable recovery
// schemes (§3, §4), failure detection (timeouts, heartbeats, announcements),
// dynamic load balancing, and replicated-task redundancy (§5.3).
//
// The machine runs on the deterministic discrete-event kernel of
// internal/sim; a run is a pure function of (Config, program, fault plan).
// That purity is what the experiment engine leans on: (experiment × seed)
// cells fan out across goroutines with no shared mutable state, and the
// parallel schedule's output is byte-identical to the sequential one.
//
// The machine is topology- and plan-agnostic: Config.Topo accepts any
// internal/topology shape (the regular 1986 grids or the generator-backed
// irregular ones) and Run accepts any internal/faults plan (single crashes
// or the Burst/Cascade/Correlated stress regimes); runs that lose too much
// capacity to finish stop at Config.Deadline with Report.Completed false
// rather than erroring, which is how the S3 fault-density sweep locates
// the recovery breaking point.
package machine

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/balance"
	"repro/internal/lang"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Config parameterizes a machine.
type Config struct {
	// Topo is the interconnection network; its size is the processor count.
	Topo topology.Topology
	// Placement decides where spawned tasks go. Defaults to random.
	Placement balance.Policy
	// Scheme is the recovery scheme. Defaults to recovery.None().
	Scheme recovery.Scheme
	// AncestorDepth is K of §5.2: how many ancestor addresses a task packet
	// carries (2 = parent + grandparent, the paper's base design). Minimum 1
	// (parent only, which disables splice escalation).
	AncestorDepth int
	// Replication maps function names to replica counts R (§5.3). Functions
	// not present run single-copy. Replication requires Scheme == None.
	Replication map[string]int
	// Seed drives all randomness.
	Seed int64

	// Shards is the simulation kernel's shard count: the topology is cut
	// into that many connected regions (topology.Partition) and each region
	// runs on its own goroutine in conservatively-synchronized lockstep
	// windows. Results are byte-identical at every shard count. 0 or 1 runs
	// the single-shard reference kernel; negative derives the count from
	// GOMAXPROCS; values above the processor count are clamped.
	Shards int

	// DisableCheckpoints turns off packet retention entirely — the
	// zero-fault-tolerance baseline for overhead measurements (T1).
	DisableCheckpoints bool

	// Eval names the evaluator that runs task reduction passes: "interp"
	// (the tree-walking reference) or "compiled" (the bytecode VM). Empty
	// means lang.DefaultEvaluator. Both produce byte-identical traces; the
	// choice only affects wall time.
	Eval string

	// Failure detection: the two periods an experiment varies. The rest of
	// the detector and the whole cost model are the constants below.
	HeartbeatEvery   sim.Time // neighbor heartbeat period (<0 disables)
	ResultRetryLimit int      // result retries before undeliverable

	// Deadline is the virtual-time budget (0 = DefaultDeadline).
	Deadline sim.Time

	// StateProbeEvery, when positive, samples the machine's resident state
	// (task count and packet bytes) at this period; the samples feed the
	// periodic-global-checkpointing baseline model, which needs to know how
	// much state a coordinated snapshot would copy at any instant.
	StateProbeEvery sim.Time

	// Trace receives events when non-nil.
	Trace *trace.Log
}

// The cost model (virtual ticks) and the protocol constants. They are
// deliberately round numbers and no caller varies them, so they are constants
// rather than configuration; DefaultHeartbeatEvery, DefaultResultRetry and
// DefaultDeadline are the defaults of the three Config fields that stay
// settable.
const (
	DefaultStepCost       = 1 // per reduction step
	DefaultSpawnOverhead  = 2 // per task packet formed
	DefaultCheckpointCost = 1 // per functional checkpoint retained (§2.1)
	DefaultHopCost        = 4 // per network hop
	DefaultMsgOverhead    = 2 // fixed per message latency

	DefaultAckTimeout      = 600 // placement-ack timeout (Figure 6 state b)
	DefaultResultTimeout   = 600 // result-ack timeout
	DefaultHeartbeatEvery  = 250
	DefaultHeartbeatMisses = 2  // consecutive misses before declaring failure
	DefaultLoadGossipEvery = 20 // gossip period under the gradient policy, the only one that gossips
	DefaultSpawnRetry      = 16 // placement retries before giving up
	DefaultResultRetry     = 3

	DefaultDeadline  = 2_000_000
	DefaultMaxEvents = 50_000_000 // event budget of one drive segment
)

// normalized fills defaults and validates; it returns a copy.
func (c Config) normalized() (Config, error) {
	if c.Topo == nil {
		return c, errors.New("machine: Config.Topo is required")
	}
	if c.Topo.Size() < 2 {
		return c, fmt.Errorf("machine: need at least 2 processors, got %d", c.Topo.Size())
	}
	if c.Placement == nil {
		c.Placement = balance.NewRandom()
	}
	if c.Scheme == nil {
		c.Scheme = recovery.None()
	}
	if c.Eval == "" {
		c.Eval = lang.DefaultEvaluator
	}
	if c.AncestorDepth == 0 {
		c.AncestorDepth = 2
	}
	if c.AncestorDepth < 1 {
		return c, fmt.Errorf("machine: AncestorDepth %d < 1", c.AncestorDepth)
	}
	for fn, r := range c.Replication {
		if r < 1 {
			return c, fmt.Errorf("machine: replication %d for %q < 1", r, fn)
		}
		if r > 1 && c.Scheme.Name() != "none" {
			// §5.3 presents replicated tasks as an alternative reliability
			// mechanism, not one composed with rollback/splice; composing
			// them would need replica-aware genealogy and is out of scope.
			return c, fmt.Errorf("machine: replication requires the none scheme, have %q", c.Scheme.Name())
		}
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	} else if c.HeartbeatEvery < 0 {
		c.HeartbeatEvery = 0 // negative disables the service
	}
	if c.ResultRetryLimit == 0 {
		c.ResultRetryLimit = DefaultResultRetry
	}
	if c.Deadline == 0 {
		c.Deadline = DefaultDeadline
	}
	if c.Shards < 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c, nil
}
