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
	"repro/internal/trace"
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

// Counters are the few figures every caller reads off a run or a stream,
// derived once from its metrics by CountersOf on every backend.
type Counters struct {
	// Messages counts every message the interconnect carried.
	Messages int64
	// MsgBytes is the bytes of those messages: on every backend each is
	// charged the frame net writes for it (proto.Msg.EncodedSize, header
	// included) — the one byte figure that is comparable across sim, live
	// and net.
	MsgBytes int64
	// Reissued counts checkpointed packets re-sent after a failure.
	Reissued int64
	// Drained counts messages discarded harmlessly: duplicate and late
	// results, and (live, net) messages black-holed at dead nodes — §3.4's
	// "returns from orphan tasks are theoretically harmless".
	Drained int64
}

// CountersOf reads the Counters off a run's or a stream's metrics.
func CountersOf(m *trace.Metrics) Counters {
	return Counters{
		Messages: m.TotalMessages(),
		MsgBytes: m.BytesOnWire,
		Reissued: m.Reissues,
		Drained:  m.DupResults + m.LateResults + m.Blackholed,
	}
}

// Report is the backend-neutral outcome of a run or a stream: what every
// substrate can measure about an applicative evaluation under faults.
// Substrate-specific detail hangs off Sim (the simulator's full report) and,
// on the wall-clock backends, ReissuesByNode; callers that only need the
// paper-level quantities — did it finish, with what answer, at what cost —
// never touch either. A request of a stream has its own RequestReport.
type Report struct {
	// Backend names the substrate that produced the report ("sim", "live",
	// "net").
	Backend string
	// Answer is the program's result; nil when the run did not complete.
	Answer expr.Value
	// Completed is true when the answer reached the super-root.
	Completed bool
	// Deprecated: Err is always nil. A run's failure is the error RunOn
	// returns, and a request's the error its Wait returns; the field stays
	// so that callers written against the older report still build.
	Err error
	// Makespan is the completion time in Unit (or the time at the deadline
	// for incomplete runs).
	Makespan int64
	// Unit is the makespan's unit: Ticks (sim) or WallMicros (live, net).
	Unit TimeUnit
	// Metrics are the run's or the stream's totals, one trace.Metrics on
	// every backend, and Counters the figures derived from them.
	Metrics trace.Metrics
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
	// QueueDepthMax, on a session's aggregate (Close) report, is the
	// admission queue's high-water mark over the stream ("queue" policy;
	// always 0 with "shed" or unbounded admission).
	QueueDepthMax int
}

// RequestReport is the one record of one request of a stream, built once by
// Outcome.report from what the request's session knows. Stamps and times
// are on the stream clock, in the session's Unit.
type RequestReport struct {
	// Request is the request's stream index, -1 if it was never admitted.
	Request int
	// Answer is the request's result; nil unless Completed.
	Answer expr.Value
	// Completed is true when the answer reached the super-root.
	Completed bool
	// Err is the request's own error — its submission failed, or a task of
	// it failed to evaluate — which its Wait also returns.
	Err error
	// Shed marks a request admission control rejected (Config.MaxInFlight
	// with the "shed" policy, or a "queue:N" FIFO at its bound): never
	// admitted, Completed false, ArrivedAt the offer stamp. Its Wait
	// returns ErrShed.
	Shed bool
	// ArrivedAt stamps the install and DoneAt the completion (0 when
	// incomplete). Makespan is the service latency, up to the completion,
	// the failure or the end of the budget.
	ArrivedAt, DoneAt, Makespan int64
	// QueuedFor is the time the request spent in the admission FIFO before
	// it got a slot (0 for requests admitted directly), measured apart from
	// the service latency.
	QueuedFor int64
}

// Outcome is what a session knows about one request when its Wait returns:
// raw stamps on the stream clock, in the session's Unit, and how the
// request ended. Everything else in its RequestReport is derived.
type Outcome struct {
	// Request is the stream index, -1 if the request was never admitted.
	Request int
	// Offered and Installed stamp the offer and the install (the offer
	// stamp again for a request never installed); Settled stamps the end of
	// the wait: the answer's or the error's arrival, or the budget's end.
	Offered, Installed, Settled int64
	// Answer is the request's result; nil unless it completed.
	Answer expr.Value
	// Shed marks a request admission control rejected.
	Shed bool
	// Err is the request's own error: its submission or its program was
	// refused, or a task of it failed to evaluate.
	Err error
}

// report builds the request's record and the error its Wait returns:
// ErrShed for a shed request, else the request's own error. A request that
// ran out of budget is Completed false with a nil error.
func (o Outcome) report() (*RequestReport, error) {
	rep := &RequestReport{Request: o.Request, Answer: o.Answer, Completed: o.Answer != nil,
		Err: o.Err, Shed: o.Shed, ArrivedAt: o.Installed}
	if o.Shed {
		return rep, ErrShed
	}
	if rep.Completed {
		rep.DoneAt = o.Settled
	}
	rep.Makespan = o.Settled - o.Installed
	rep.QueuedFor = o.Installed - o.Offered
	return rep, o.Err
}

// ErrShed is the typed error Ticket.Wait returns for a request that bounded
// admission rejected under the "shed" policy.
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
	// simulator, machine.Session admits the requests of one batch in a
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
	// Close finishes the stream, tears the substrate down, and returns the
	// aggregate report — the same shape a one-shot Run returns, with the
	// stream's Metrics (and, on the simulator, the full Sim detail); core
	// derives the Counters. Close drives no request. A request nobody
	// waited on reports, on every backend, what the stream had settled by
	// Close: its answer if it completed, shed if it was shed, its error if
	// it failed, and otherwise no answer and no error, like a timeout
	// (Request -1 if it was never admitted).
	Close() (*Report, error)
}

// SessionRequest is the future of one submitted request.
type SessionRequest interface {
	// Wait blocks until the request completes, fails, is shed or times out
	// its per-request budget, and reports what the session knows about it.
	// Core calls it once per request and keeps the record it builds from
	// the outcome (Ticket.Wait).
	Wait() Outcome
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
// function, then the fault plan — then the request's own error; the session
// is closed on every path (the wall-clock substrates' teardown depends on
// it). The report is the stream totals with the one request's answer,
// completion and makespan.
func runOn(b Backend, cfg Config, w Workload, plan *faults.Plan) (*Report, error) {
	sess, err := b.Open(cfg)
	if err != nil {
		return nil, err
	}
	var one *RequestReport
	req, err := sess.Submit(w)
	if err == nil {
		_, err = sess.Inject(plan)
	}
	if err == nil {
		one, err = req.Wait().report()
	}
	totals, closeErr := closeSession(sess)
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	totals.Answer, totals.Completed, totals.Makespan = one.Answer, one.Completed, one.Makespan
	return totals, nil
}

// closeSession closes the session and derives the totals' Counters from
// their Metrics.
func closeSession(sess Session) (*Report, error) {
	totals, err := sess.Close()
	if totals != nil {
		totals.Counters = CountersOf(&totals.Metrics)
	}
	return totals, err
}

// VerifyOn runs the workload on the named backend and checks the answer
// against the sequential reference evaluator — the determinacy guarantee of
// §2.1, now assertable on every substrate.
func VerifyOn(backend string, cfg Config, w Workload, plan *faults.Plan) (*Report, error) {
	rep, err := cfg.RunOn(backend, w, plan)
	if err != nil {
		return nil, err
	}
	return rep, verify(w, rep.Answer, rep.Makespan, rep.Unit)
}

// verify checks an outcome against the reference evaluator: nil means it
// completed (answer non-nil) with the reference answer.
func verify(w Workload, answer expr.Value, makespan int64, unit TimeUnit) error {
	if answer == nil {
		return fmt.Errorf("core: run did not complete (makespan %d %s)", makespan, unit)
	}
	want, err := refAnswer(w)
	if err != nil {
		return err
	}
	if !answer.Equal(want) {
		return fmt.Errorf("core: answer %v != reference %v", answer, want)
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
