package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/machine"
)

// TimeUnit names the unit a backend measures makespan in: the simulator
// counts virtual ticks, the wall-clock backends (live and net) count wall
// microseconds.
type TimeUnit string

// The two units backends report in.
const (
	Ticks      TimeUnit = "vticks"
	WallMicros TimeUnit = "µs"
)

// Counters are the quantities every substrate counts about a run or a
// stream, declared once: Report and ServiceReport embed them, the simulator
// fills them from its trace.Metrics and the wall-clock backends from one
// node.Counters snapshot.
type Counters struct {
	// Messages counts every message the interconnect carried.
	Messages int64
	// MsgBytes is the encoded payload bytes of those messages, measured with
	// the proto codec's wire sizes on every backend — the one byte figure
	// that is comparable across sim, live and net.
	MsgBytes int64
	// Spawned counts task packets created, including reissues and twins.
	Spawned int64
	// InPlace counts the spawned packets a wall-clock node placed on itself:
	// they ran where they were created and are in Spawned but not in
	// Messages. Placement is uniform, so this is about Spawned/Procs — the
	// share of a machine's traffic that never needs its interconnect. (The
	// simulator charges nothing for them either but does not count them
	// apart: 0 there.)
	InPlace int64
	// Reissued counts checkpointed packets re-sent after a failure.
	Reissued int64
	// Drained counts results discarded harmlessly: duplicates, late arrivals,
	// and (live) messages black-holed at dead nodes — §3.4's "returns from
	// orphan tasks are theoretically harmless".
	Drained int64
	// Recoveries counts recovery events: reissues plus splice twins.
	Recoveries int64
}

// SpawnedLabel is Spawned as reports print it, with how many of the packets
// stayed home where a backend counts them — "465 spawned (118 in place)" —
// the about-1/Procs share that never was a message, so nobody reads a 4-node
// figure as a 64-node one.
func (c Counters) SpawnedLabel() string {
	if c.InPlace == 0 {
		return fmt.Sprintf("%d spawned", c.Spawned)
	}
	return fmt.Sprintf("%d spawned (%d in place)", c.Spawned, c.InPlace)
}

// Report is the backend-neutral outcome of a run: what every substrate can
// measure about an applicative evaluation under faults. Substrate-specific
// detail hangs off Sim (the simulator's full report) and, on the wall-clock
// backends, ReissuesByNode; callers that only need the paper-level
// quantities — did it finish, with what answer, at what cost — never touch
// either.
type Report struct {
	// Backend names the substrate that produced the report ("sim", "live",
	// "net").
	Backend string
	// Answer is the program's result; nil when the run did not complete.
	Answer expr.Value
	// Completed is true when the answer reached the super-root.
	Completed bool
	// Err holds an evaluation or verification error, if one occurred.
	Err error
	// Makespan is the completion time in Unit (or the time at the deadline
	// for incomplete runs).
	Makespan int64
	// Unit is the makespan's unit: Ticks (sim) or WallMicros (live, net).
	Unit TimeUnit
	// Counters are the stream-total counters; zero on per-request reports,
	// since the substrate is shared across the stream.
	Counters
	// Procs is the processor (or node) count.
	Procs int
	// Scheme and Placement echo the configuration for reports.
	Scheme, Placement string
	// ReissuesByNode is the per-node reissue count (live and net; nil on sim,
	// where reissues are attributed in Sim.Metrics instead).
	ReissuesByNode []int64
	// Sim is the simulator's full report (metrics, trace, state samples);
	// nil when another backend produced this report.
	Sim *machine.Report

	// Request is the request's stream index when the report describes one
	// request of a service-mode cluster (one-shot reports are request 0).
	Request int
	// ArrivedAt and DoneAt are stream-clock stamps in Unit for service-mode
	// requests: admission and completion (DoneAt 0 when incomplete).
	// Makespan is the request's own service latency.
	ArrivedAt, DoneAt int64
	// Shed marks a per-request report whose request admission control
	// rejected (Config.MaxInFlight with the "shed" policy, or a "queue:N"
	// FIFO at its bound): never admitted, Completed false, ArrivedAt the
	// offer stamp. The request's Wait also returns ErrShed.
	Shed bool
	// QueuedFor is the time in Unit a service-mode request spent in the
	// admission FIFO before it got a slot (0 for requests admitted
	// directly). It is measured separately from the service latency:
	// ArrivedAt stamps the install, not the offer.
	QueuedFor int64
	// QueueDepthMax, on a session's aggregate (Close) report, is the
	// admission queue's high-water mark over the stream ("queue" policy;
	// always 0 with "shed" or unbounded admission).
	QueueDepthMax int
}

// ErrShed is the typed error SessionRequest.Wait (and Ticket.Wait) return
// for a request that bounded admission rejected under the "shed" policy.
// Shedding is an expected outcome of an overloaded stream, not a substrate
// failure: Drain does not surface it, and the service report counts shed
// requests in their own column.
var ErrShed = errors.New("core: request shed by admission control")

// Backend is one execution substrate for the applicative machine: the
// discrete-event simulator, the live goroutine network, the net process
// cluster, or anything else that can serve a request stream under a config
// with faults injectable against the stream's clock. The paper's claim — functional checkpointing
// plus rollback/splice needs nothing from a particular substrate — is
// exactly this interface. A one-shot run is the degenerate stream
// (Config.RunOn), so a backend implements nothing else.
type Backend interface {
	// Name is the registry key ("sim", "live", "net").
	Name() string
	// Open brings the substrate up under the config and keeps it up until
	// the session is closed.
	Open(cfg Config) (Session, error)
}

// Session is one open service stream on a substrate. Sessions are safe for
// concurrent use; Cluster is the ergonomic wrapper callers normally hold.
type Session interface {
	// Submit enqueues the workload and returns its request handle. On the
	// simulator, requests of one admission batch enter the stream in a
	// canonical order (spec, fn, args, then submission order), which makes
	// concurrent submission of distinguishable workloads deterministic.
	Submit(w Workload) (SessionRequest, error)
	// Inject schedules the plan's faults on the stream clock (a fault at
	// tick t fires at stream tick t, clamped to now if already past) and
	// returns the stream stamps, in the plan's time order, that the faults
	// fire at — in the backend's Unit.
	Inject(plan *faults.Plan) ([]int64, error)
	// Unit is the stream clock's unit: Ticks (sim) or WallMicros (live, net).
	Unit() TimeUnit
	// Close finishes the stream, resolves any still-open requests, tears the
	// substrate down, and returns the aggregate report — the same shape a
	// one-shot Run returns, with stream-total counters (and, on the
	// simulator, the full Sim detail).
	Close() (*Report, error)
}

// SessionRequest is the future of one submitted request.
type SessionRequest interface {
	// Wait blocks until the request completes, times out its per-request
	// budget, or the stream fails; the report is the per-request view
	// (answer, completion, stream stamps, service latency). The error is a
	// submission or stream failure; an answer that merely timed out reports
	// Completed false with a nil error.
	Wait() (*Report, error)
}

// backends is the set of linked-in backends by name. It is a table filled
// at start-up rather than a literal because the wall-clock backends import
// this package: each registers itself in its package init (the simulator
// here, internal/livenet, internal/netnode), so importing a backend's
// package is what makes it selectable, and after init the table is only read.
var backends = map[string]Backend{}

// MustRegisterBackend adds a backend at init time; a name already taken
// panics.
func MustRegisterBackend(b Backend) {
	if _, dup := backends[b.Name()]; dup {
		panic(fmt.Sprintf("core: duplicate backend %q", b.Name()))
	}
	backends[b.Name()] = b
}

// ByName resolves a registered backend; the error text lists the registered
// names so callers can surface it verbatim.
func ByName(name string) (Backend, error) {
	if b, ok := backends[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("core: unknown backend %q (known: %s)", name, strings.Join(Backends(), ", "))
}

// Backends lists the registered backend names in the one documented order:
// sorted alphabetically ("live" before "sim" once internal/livenet is
// linked in). ByName error text and every CLI help string use this order.
func Backends() []string {
	return slices.Sorted(maps.Keys(backends))
}

// simBackend runs the discrete-event simulator (internal/machine).
type simBackend struct{}

func init() { MustRegisterBackend(simBackend{}) }

// Name implements Backend.
func (simBackend) Name() string { return "sim" }

// Open implements Backend: a long-lived simulator session serving a request
// stream on one event kernel. The machine is built here, so a malformed
// arrival or admission spec, topology, placement or scheme fails the Open,
// not the first request.
func (simBackend) Open(cfg Config) (Session, error) {
	return newSimSession(cfg)
}

// runOn is the one-shot run as the degenerate service stream: open, submit
// the one workload, inject the plan, wait for the answer, close. Setup
// errors surface in a fixed order — substrate bring-up, then the entry
// function, then the fault plan — and the session is closed on every path
// (the wall-clock substrates' teardown depends on it). The report is the
// stream totals with the one request's answer, completion and makespan.
func runOn(b Backend, cfg Config, w Workload, plan *faults.Plan) (*Report, error) {
	sess, err := b.Open(cfg)
	if err != nil {
		return nil, err
	}
	var one *Report
	req, err := sess.Submit(w)
	if err == nil {
		_, err = sess.Inject(plan)
	}
	if err == nil {
		one, err = req.Wait()
	}
	totals, closeErr := sess.Close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	totals.Answer, totals.Completed, totals.Makespan = one.Answer, one.Completed, one.Makespan
	return totals, nil
}

// VerifyOn runs the workload on the named backend and checks the answer
// against the sequential reference evaluator — the determinacy guarantee of
// §2.1, now assertable on every substrate.
func VerifyOn(backend string, cfg Config, w Workload, plan *faults.Plan) (*Report, error) {
	rep, err := cfg.RunOn(backend, w, plan)
	if err != nil {
		return nil, err
	}
	return rep, verifyReport(rep, w)
}

// verifyReport checks a backend-neutral report against the reference
// evaluator; nil means the run completed with the reference answer.
func verifyReport(rep *Report, w Workload) error {
	if rep.Err != nil {
		return rep.Err
	}
	if !rep.Completed {
		return fmt.Errorf("core: run did not complete (makespan %d %s)", rep.Makespan, rep.Unit)
	}
	want, err := refAnswer(w)
	if err != nil {
		return err
	}
	if !rep.Answer.Equal(want) {
		return fmt.Errorf("core: answer %v != reference %v", rep.Answer, want)
	}
	return nil
}

// refAnswer is lang.RefEval memoized by workload identity. The reference
// evaluator is deterministic and programs are immutable once built (§2.1 —
// determinacy is the property being verified), so a service stream that
// admits the same spec many times pays for one reference evaluation, not
// one per request. Keyed by program pointer plus the rendered entry call;
// entries are answer values, so the cache stays small for any realistic
// request mix.
var refAnswers sync.Map // refKey -> expr.Value

type refKey struct {
	prog *lang.Program
	call string
}

func refAnswer(w Workload) (expr.Value, error) {
	key := refKey{prog: w.Program, call: fmt.Sprintf("%s %v", w.Fn, w.Args)}
	if v, ok := refAnswers.Load(key); ok {
		return v.(expr.Value), nil
	}
	want, err := lang.RefEval(w.Program, w.Fn, w.Args)
	if err != nil {
		return nil, err
	}
	refAnswers.Store(key, want)
	return want, nil
}
