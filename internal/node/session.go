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
//   - Procs and Seed carry over directly (seeded placement: every node draws
//     destinations from an rng derived from the seed).
//   - A fault at virtual tick t fires t×DefaultTimescale after Open, so Burst/
//     Cascade/Correlated plans keep their shape as real durations. Both crash
//     kinds map to Machine.Kill — the transport reports the death and the
//     super-root announces it; silent-crash timeout detection is a
//     simulator-only mechanism. Corrupt faults are rejected (no voting here).
//   - Deadline (a virtual-time budget) maps through DefaultTimescale to the wall
//     budget bounding each request's Wait, so a hung recovery fails fast.
//   - Recovery is "rollback" (per-parent reissue, §3; the default) or "none"
//     (deaths go unannounced and lost work stays lost, so a faulted run
//     reports non-completion at the deadline, like the simulator's), and
//     Placement "random" — the one node protocol this package implements.
//     Simulator-only knobs that would change what a run measures are
//     rejected; Topology, AncestorDepth, Trace and Arrival are
//     inert (the interconnect is complete, per-parent reissue has no
//     ancestor escalation to tune, there is no event log, and real time
//     needs no synthetic arrival spacing — a request is offered when its
//     Submit call is made).

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
	// Shutdown stops every node and folds the drain counts the nodes kept
	// locally into the super-root's counters. Called exactly once.
	Shutdown()
}

// params is the validated shape of a core.Config on a wall-clock backend.
type params struct {
	Spec
	backend   string
	scheme    string
	deadline  time.Duration
	admission admission.Policy
}

// prepare validates the config, naming the backend in every rejection. It
// starts from the defaults every backend shares (core.Config.WithDefaults)
// and adds the one that is this package's own: an empty Recovery is
// "rollback", the scheme the wall-clock node implements.
func prepare(backend string, cfg core.Config) (params, error) {
	cfg = cfg.WithDefaults()
	p := params{
		Spec:     Spec{Procs: cfg.Procs, Seed: cfg.Seed, Eval: cfg.Eval},
		backend:  backend,
		scheme:   cfg.Recovery,
		deadline: DefaultDeadline,
	}
	reject := func(format string, args ...any) (params, error) {
		return p, fmt.Errorf(backend+": "+format, args...)
	}
	if p.scheme == "" {
		p.scheme = "rollback"
	}
	if p.scheme != "rollback" && p.scheme != "none" {
		return reject("recovery %q not supported (rollback per-parent reissue, or none)", cfg.Recovery)
	}
	p.NoRecovery = p.scheme == "none"
	if _, err := p.Evaluator(); err != nil {
		return p, err
	}
	if cfg.Placement != "" && cfg.Placement != "random" {
		return reject("placement %q not supported (random only)", cfg.Placement)
	}
	var err error
	if p.admission, err = admission.Parse(cfg.Admission, cfg.MaxInFlight); err != nil {
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
	s := &session{
		p:      p,
		m:      m,
		start:  time.Now(),
		stop:   make(chan struct{}),
		killed: map[proto.ProcID]bool{},
		gate:   admission.Gate[*request]{Policy: p.admission},
	}
	m.Root().OnFirstDelivery(s.onRequestDone)
	return s, nil
}

// session is one open wall-clock service stream.
type session struct {
	p     params
	m     Machine
	start time.Time

	mu       sync.Mutex
	stop     chan struct{} // closed by Close: ends fault replay and every Wait
	wg       sync.WaitGroup
	killed   map[proto.ProcID]bool
	closed   bool
	closeRep *core.Report

	// gate is the admission state, guarded by mu. A slot is taken at
	// admission (the Root.Submit) and freed at the request's first root
	// delivery — the simulator's accounting, made by the same gate, so every
	// backend makes identical admit/shed decisions on the same stream order.
	gate admission.Gate[*request]
}

// Unit implements core.Session.
func (s *session) Unit() core.TimeUnit { return core.WallMicros }

// micros is t on the stream clock.
func (s *session) micros(t time.Time) int64 { return t.Sub(s.start).Microseconds() }

// report is the report skeleton every request and the stream totals share.
func (s *session) report() *core.Report {
	return &core.Report{
		Backend:   s.p.backend,
		Unit:      core.WallMicros,
		Procs:     s.p.Procs,
		Scheme:    s.p.scheme,
		Placement: "random",
	}
}

// Submit implements core.Session: the request is offered immediately — real
// time is the stream's arrival discipline — and admission control decides at
// the offer, in Submit order: a free slot (or an unbounded stream) admits to
// the machine now; a full one sheds or queues per the policy. The mutex is
// held across the closed check and the root submit so a concurrent Close can
// never shut the machine down between the two (a spawn into a shut-down
// machine would silently never complete).
func (s *session) Submit(w core.Workload) (core.SessionRequest, error) {
	// Validated at the offer so a queued request cannot fail admission later,
	// long after the submitter's error path has gone.
	if err := w.Program.CheckEntry(w.Fn); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New(s.p.backend + ": session closed")
	}
	r := &request{s: s, w: w, offered: time.Now()}
	switch s.gate.Offer(r) {
	case admission.Shed:
		r.shed = true
	case admission.Queue:
		r.admitCh = make(chan struct{})
	case admission.Admit:
		if err := s.install(r, r.offered); err != nil {
			s.installNext() // the slot goes back
			return nil, err
		}
	}
	return r, nil
}

// install stamps an admitted request's arrival and submits it to the
// super-root. The caller holds mu and the request already holds its slot.
func (s *session) install(r *request, at time.Time) (err error) {
	r.arrived = at
	r.q, err = s.m.Root().Submit(r.w.Program, r.w.Fn, r.w.Args)
	return err
}

// installNext frees a slot and hands it to the queue head, if any; a head
// whose install fails gives the slot straight back, so the loop moves on to
// the next. The caller holds mu.
func (s *session) installNext() {
	for r, ok := s.gate.Release(); ok && !s.closed; r, ok = s.gate.Release() {
		r.admitErr = s.install(r, time.Now())
		close(r.admitCh)
		if r.admitErr == nil {
			return
		}
	}
}

// onRequestDone frees the completed request's admission slot and installs
// the queue head, if any. It runs outside the root's lock (the hook
// contract), so taking mu and re-entering Root.Submit is safe.
func (s *session) onRequestDone() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.installNext()
}

// Inject implements core.Session: validate the plan (no corruption, and a
// cumulative at-least-one-survivor check across every injected plan) and
// replay it on the wall clock from the stream's start. Returned stamps are
// the planned wall offsets in µs; faults whose offset already passed fire
// immediately.
func (s *session) Inject(plan *faults.Plan) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
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
	// One scheduler goroutine per plan walks the time-sorted faults and
	// kills each node at its wall-scaled instant relative to the stream
	// start. Kills of already-dead nodes (overlapping merged plans) are
	// ignored, like the simulator's post-death injections.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for _, f := range sorted {
			if d := time.Duration(f.At)*DefaultTimescale - time.Since(s.start); d > 0 {
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

// Close implements core.Session: stop the fault schedulers and every pending
// Wait, shut the machine down — which folds the nodes' local drain counts
// into the super-root — and only then report the stream totals. The mutex is
// released before Shutdown: nodes finishing their last deliveries fire the
// admission hook, which takes the mutex; holding it across the shutdown
// barrier would deadlock the teardown.
func (s *session) Close() (*core.Report, error) {
	s.mu.Lock()
	if s.closed {
		defer s.mu.Unlock()
		return s.closeRep, nil
	}
	s.closed = true
	close(s.stop)
	s.mu.Unlock()
	s.wg.Wait()
	rep := s.report()
	rep.Makespan = s.micros(time.Now())
	s.m.Shutdown()
	rep.Counters = s.m.Root().Snapshot()
	rep.ReissuesByNode = s.m.Root().ReissuesByNode()
	s.mu.Lock()
	rep.QueueDepthMax = s.gate.DepthMax()
	s.closeRep = rep
	s.mu.Unlock()
	return rep, nil
}

// request implements core.SessionRequest. The offer stamp is set at Submit;
// a request the admission queue held gets its q and arrived fields when
// onRequestDone installs it (the admitCh close publishes them), a shed
// request never gets either.
type request struct {
	s       *session
	q       *Request
	w       core.Workload
	offered time.Time
	arrived time.Time

	shed     bool
	admitCh  chan struct{} // non-nil iff the request was queued
	admitErr error

	once sync.Once
	rep  *core.Report
	err  error
}

// Wait implements core.SessionRequest: block for the answer up to the
// per-request deadline, counted from the request's admission (the documented
// Config.Deadline contract — so draining a wedged stream of N requests costs
// one budget, not N; a queued request's budget starts when it gets its slot,
// and its wait for that slot is bounded by the budget from its offer). Close
// ends the wait at once. An answer already delivered is accepted even after
// the budget; a timeout is not an error — the report says Completed false
// and the stream keeps serving. A shed request reports immediately with the
// typed core.ErrShed.
func (r *request) Wait() (*core.Report, error) {
	r.once.Do(r.wait)
	return r.rep, r.err
}

func (r *request) wait() {
	s := r.s
	r.rep = s.report()
	r.rep.Request = -1 // until admitted, no stream index exists
	r.rep.ArrivedAt = s.micros(r.offered)
	if r.shed {
		r.rep.Shed = true
		r.err = core.ErrShed
		return
	}
	if r.admitCh != nil {
		budget := time.NewTimer(s.p.deadline - time.Since(r.offered))
		defer budget.Stop()
		select {
		case <-r.admitCh:
		case <-budget.C:
		case <-s.stop:
		}
		select {
		case <-r.admitCh:
		default:
			// Still queued at the budget (or at Close): a timeout, like any
			// admitted request that never answered.
			r.rep.Makespan = s.micros(time.Now()) - r.rep.ArrivedAt
			return
		}
		if r.admitErr != nil {
			r.rep, r.err = nil, r.admitErr
			return
		}
	}
	v, err := r.q.Wait(s.p.deadline-time.Since(r.arrived), s.stop)
	done := s.micros(time.Now())
	r.rep.Request = r.q.ID()
	r.rep.ArrivedAt = s.micros(r.arrived)
	r.rep.QueuedFor = r.arrived.Sub(r.offered).Microseconds()
	r.rep.Makespan = done - r.rep.ArrivedAt
	switch {
	case err == nil:
		r.rep.Completed = true
		r.rep.Answer = v
		r.rep.DoneAt = done
	case !errors.Is(err, errNoAnswer):
		r.rep.Err, r.err = err, err
	}
}
