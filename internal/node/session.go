package node

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/proto"
)

// This file is the one core.Session of the wall-clock backends. The machine
// stays up across requests, Submit enqueues root applications that the
// persistent nodes serve concurrently, and Inject replays fault plans on the
// wall clock against the stream's start — so kills land between and inside
// requests, the online-recovery regime HEAL-style evaluations measure. The
// stream clock is wall microseconds since Open; fault stamps, admission and
// completion stamps all live on it.
//
// How a core.Config maps onto real time:
//
//   - Procs and Seed carry over directly (seeded placement: every processor
//     draws destinations from an rng derived from the seed).
//   - A fault at virtual tick t fires t×DefaultTimescale after Open, so Burst/
//     Cascade/Correlated plans keep their shape as real durations. Both crash
//     kinds map to Machine.Kill — the transport reports the death and the
//     super-root announces it; silent-crash timeout detection is a
//     simulator-only mechanism. Corrupt faults are rejected (no voting here).
//   - Deadline (a virtual-time budget) maps through DefaultTimescale to the wall
//     budget bounding each request's Wait, so a hung recovery fails fast.
//   - Recovery is "rollback" (§3; the default) or "none" (deaths are
//     announced and lost work stays lost, so a faulted run reports
//     non-completion at the deadline, like the simulator's), and Placement
//     "random": what machine.WallProc runs without reply timers on the wall
//     clock. Simulator-only knobs that would change what a run measures are
//     rejected, and so is Trace, since no event log is kept here; Topology,
//     AncestorDepth and Arrival are inert (the interconnect is complete,
//     rollback has no ancestor escalation to tune, and real time needs no
//     synthetic arrival spacing — a request is offered when its Submit call
//     is made).

// DefaultTimescale is the wall-clock duration of one virtual tick when
// mapping fault plans and deadlines: 2µs keeps the paper's fault times
// (thousands of ticks) landing mid-run for the bundled workloads.
const DefaultTimescale = 2 * time.Microsecond

// DefaultDeadline bounds a request's Wait when Config.Deadline sets no
// virtual-time budget.
const DefaultDeadline = 30 * time.Second

// Machine is a booted wall-clock substrate: its super-root, the transport's
// way of crashing a node, and its teardown.
type Machine interface {
	Root() *Root
	// Kill crashes a node. The transport reports the death to the super-root
	// the way it would any crash.
	Kill(id int) error
	// Shutdown stops every node and folds what the nodes counted locally
	// into the super-root's metrics (Root.Fold). Called exactly once.
	Shutdown()
}

// params is the validated shape of a core.Config on a wall-clock backend.
type params struct {
	Spec
	backend  string
	deadline time.Duration
}

// prepare validates the config, naming the backend in every rejection. It
// starts from the defaults every backend shares (core.Config.WithDefaults)
// and adds the one that is this package's own: an empty Recovery is
// "rollback", the scheme the wall-clock node implements.
func prepare(backend string, cfg core.Config) (params, error) {
	cfg = cfg.WithDefaults()
	p := params{
		Spec:     Spec{Procs: cfg.Procs, Seed: cfg.Seed, Scheme: "rollback", Eval: cfg.Eval},
		backend:  backend,
		deadline: DefaultDeadline,
	}
	reject := func(format string, args ...any) (params, error) {
		return p, fmt.Errorf(backend+": "+format, args...)
	}
	switch cfg.Recovery {
	case "", "rollback":
	case "none":
		p.Scheme = "none"
	default:
		return reject("recovery %q not supported (rollback per-parent reissue, or none)", cfg.Recovery)
	}
	if _, err := p.Evaluator(); err != nil {
		return p, err
	}
	if cfg.Placement != "" && cfg.Placement != "random" {
		return reject("placement %q not supported (random only)", cfg.Placement)
	}
	var err error
	if p.Admission, err = admission.Parse(cfg.Admission, cfg.MaxInFlight); err != nil {
		return p, err
	}
	switch {
	case len(cfg.Replication) > 0:
		return reject("§5.3 task replication is only implemented on the simulator")
	case cfg.DisableCheckpoints:
		return reject("checkpoints cannot be disabled (parents always retain child packets)")
	case cfg.HeartbeatEvery != 0:
		return reject("HeartbeatEvery paces the simulator's failure detector; this backend learns of a death from its transport")
	case cfg.StateProbeEvery != 0:
		return reject("StateProbeEvery samples the simulator's resident state; this backend has no probe")
	case cfg.Trace:
		return reject("Trace prints the simulator's event log; this backend keeps none")
	}
	if cfg.Deadline > 0 {
		p.deadline = time.Duration(cfg.Deadline) * DefaultTimescale
	}
	return p, nil
}

// Open validates cfg for the named wall-clock backend, boots the machine,
// and serves a stream on it until Close.
func Open(backend string, cfg core.Config, boot func(Spec) (Machine, error)) (core.Session, error) {
	p, err := prepare(backend, cfg)
	if err != nil {
		return nil, err
	}
	m, err := boot(p.Spec)
	if err != nil {
		return nil, err
	}
	return &session{p: p, m: m, start: time.Now(), stop: make(chan struct{}), killed: map[proto.ProcID]bool{}}, nil
}

// session is one open wall-clock service stream: the super-root admits,
// installs and answers its requests, and the session keeps the stream's own
// state — its config and clock, fault replay and its report.
type session struct {
	p     params
	m     Machine
	start time.Time
	stop  chan struct{} // closed by Close: ends fault replay and every Wait

	// mu guards fault replay — the survivor check's union of every plan's
	// victims and the scheduler goroutines — and Close, whose report is set
	// once the stream is closed.
	mu       sync.Mutex
	wg       sync.WaitGroup
	killed   map[proto.ProcID]bool
	closeRep *core.Report
}

// Unit implements core.Session.
func (s *session) Unit() core.TimeUnit { return core.WallMicros }

// micros is t on the stream clock.
func (s *session) micros(t time.Time) int64 { return t.Sub(s.start).Microseconds() }

// Submit implements core.Session: the request is offered to the super-root
// immediately — real time is the stream's arrival discipline — and
// admission control decides there, in Submit order, under the lock that
// also serializes its installs and Close: a free slot (or an unbounded
// stream) installs it now; a full one sheds or queues per the policy.
func (s *session) Submit(w core.Workload) (core.SessionRequest, error) {
	q, err := s.m.Root().Submit(w.Program, w.Fn, w.Args)
	if err != nil {
		return nil, err
	}
	return ticket{s, q}, nil
}

// Inject implements core.Session: validate the plan (no corruption, and a
// cumulative at-least-one-survivor check across every injected plan) and
// replay it on the wall clock from the stream's start. Returned stamps are
// the planned wall offsets in µs; faults whose offset already passed fire
// before Inject returns.
func (s *session) Inject(plan *faults.Plan) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closeRep != nil {
		return nil, errors.New(s.p.backend + ": session closed")
	}
	if plan == nil {
		plan = faults.None()
	}
	if err := plan.Validate(s.p.Procs); err != nil {
		return nil, err
	}
	for _, f := range plan.Faults {
		if f.Kind == faults.Corrupt {
			return nil, fmt.Errorf("%s: fault %v: value corruption needs §5.3 voting, which only the simulator implements", s.p.backend, f)
		}
	}
	union := map[proto.ProcID]bool{}
	for q := range s.killed {
		union[q] = true
	}
	for _, q := range plan.Procs() {
		union[q] = true
	}
	if len(union) >= s.p.Procs {
		return nil, fmt.Errorf("%s: plan kills %d of %d nodes; at least one must survive", s.p.backend, len(union), s.p.Procs)
	}
	s.killed = union
	sorted := plan.Sorted()
	stamps := make([]int64, 0, len(sorted))
	for _, f := range sorted {
		stamps = append(stamps, (time.Duration(f.At) * DefaultTimescale).Microseconds())
	}
	// Faults already due are killed here, in plan order, so a request
	// submitted before Inject cannot answer ahead of them; Kill never takes
	// the session's lock. One scheduler goroutine walks the rest and kills
	// each node at its wall-scaled instant relative to the stream start.
	// Kills of already-dead nodes (overlapping merged plans) are ignored,
	// like the simulator's post-death injections.
	due := func(f faults.Fault) time.Duration { return time.Duration(f.At)*DefaultTimescale - time.Since(s.start) }
	for len(sorted) > 0 && due(sorted[0]) <= 0 {
		_ = s.m.Kill(int(sorted[0].Proc))
		sorted = sorted[1:]
	}
	if len(sorted) == 0 {
		return stamps, nil
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for _, f := range sorted {
			if d := due(f); d > 0 {
				select {
				case <-time.After(d):
				case <-s.stop:
					return
				}
			}
			select {
			case <-s.stop:
				return
			default:
			}
			_ = s.m.Kill(int(f.Proc))
		}
	}()
	return stamps, nil
}

// Close implements core.Session: stop admission, the fault schedulers and
// every pending Wait, shut the machine down — which folds the nodes' own
// counts into the super-root — and only then report the stream totals. A
// second Close returns the first one's report.
func (s *session) Close() (*core.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closeRep != nil {
		return s.closeRep, nil
	}
	close(s.stop)
	depthMax := s.m.Root().close(errors.New(s.p.backend + ": session closed"))
	s.wg.Wait()
	rep := &core.Report{Backend: s.p.backend, Unit: core.WallMicros, Makespan: s.micros(time.Now()),
		Procs: s.p.Procs, Scheme: s.p.Scheme, Placement: "random", QueueDepthMax: depthMax}
	s.m.Shutdown()
	rep.Metrics, rep.ReissuesByNode = s.m.Root().Metrics()
	s.closeRep = rep
	return rep, nil
}

// ticket is a stream's request: core.SessionRequest over the super-root's.
type ticket struct {
	s *session
	q *Request
}

// Wait implements core.SessionRequest: the request's Wait, under the
// per-request budget (the documented Config.Deadline contract, counted from
// the install — so draining a wedged stream of N requests costs one budget,
// not N — and, while queued, from the offer), ended at once by Close. A
// timeout is no error: the stream keeps serving. Until installed, a request
// has no stream index and its install stamp is its offer.
func (t ticket) Wait() core.Outcome {
	q, s := t.q, t.s
	v, err := q.Wait(s.p.deadline, s.stop)
	if errors.Is(err, errNoAnswer) {
		id, installed := q.stamps() // an install may race the timeout
		o := core.Outcome{Request: id, Offered: s.micros(q.offered), Installed: s.micros(installed), Shed: q.shed}
		if !q.shed {
			o.Settled = s.micros(time.Now())
		}
		return o
	}
	// The answer was sent after the install, once the super-root's lock was
	// released.
	return core.Outcome{Request: q.id, Offered: s.micros(q.offered), Installed: s.micros(q.installed),
		Settled: s.micros(time.Now()), Answer: v, Err: err}
}
