package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simSession adapts machine.Session to the core Session interface. The
// machine (and its kernel) is single-threaded, so every operation serializes
// on mu; whichever waiter holds the lock drives the kernel, and completions
// it passes on the way are harvested for the other waiters.
//
// Determinism contract: submissions buffered between drives form one
// admission batch, ordered canonically — by workload spec, then entry
// function, then rendered arguments, then submission order — before they
// enter the stream. The stream's event sequence is therefore a pure function
// of the batch multiset, not of Submit call interleaving: submitting the
// same distinguishable workloads from eight goroutines or from a loop yields
// byte-identical reports. (Identical workloads are interchangeable, so only
// their ticket↔slot binding can vary.)
//
// One scoping caveat: a request that completes only *after* its own budget
// (another waiter drove the kernel past its deadline) is reported Completed
// with Makespan > Deadline — honest, but which side of the timeout line it
// lands on then depends on Wait order. Streams whose requests finish within
// budget, and any stream drained in ticket order (Drain/Close, the L3
// driver, the CLI), are fully deterministic; only racing Wait calls against
// over-budget requests can flip a row between timeout and late completion.
type simSession struct {
	mu  sync.Mutex
	cfg Config

	// arrival, admission and queueBound are the validated service knobs
	// (newSimSession rejects malformed specs before any request exists).
	arrival    *workload.Arrival
	admission  machine.AdmissionPolicy
	queueBound int

	m  *machine.Machine
	ms *machine.Session

	pend      []*simRequest
	all       []*simRequest
	pendPlans []*faults.Plan // injected before the machine exists
	seq       int

	closed   bool
	closeRep *Report
	closeErr error
	broken   error // fatal session error (machine build or deferred inject)
}

// simRequest implements SessionRequest for the simulator.
type simRequest struct {
	s   *simSession
	w   Workload
	seq int

	mr *machine.Req

	resolved bool
	rep      *Report
	err      error
	ch       chan struct{}
}

func newSimSession(cfg Config) (*simSession, error) {
	arr, err := cfg.arrival()
	if err != nil {
		return nil, err
	}
	pol, bound, err := cfg.admissionPolicy()
	if err != nil {
		return nil, err
	}
	return &simSession{cfg: cfg, arrival: arr, admission: pol, queueBound: bound}, nil
}

// Unit implements Session.
func (s *simSession) Unit() TimeUnit { return Ticks }

// Submit implements Session: buffer the request for the next admission
// batch.
func (s *simSession) Submit(w Workload) (SessionRequest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("core: session closed")
	}
	r := &simRequest{s: s, w: w, seq: s.seq, ch: make(chan struct{})}
	s.seq++
	s.pend = append(s.pend, r)
	s.all = append(s.all, r)
	return r, nil
}

// Inject implements Session. Before the first submission there is no
// machine yet, so the plan is buffered and scheduled (fault times are
// absolute stream ticks either way); afterwards it validates and schedules
// immediately.
func (s *simSession) Inject(plan *faults.Plan) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("core: session closed")
	}
	if s.ms == nil && len(s.pend) > 0 {
		if err := s.flushLocked(); err != nil {
			return nil, err
		}
	}
	if s.ms == nil {
		if plan == nil {
			plan = faults.None()
		}
		// No machine yet (Inject before the first Submit): validate against
		// the config's processor count now — a bad plan must fail this call,
		// not poison the requests the flush later admits — and buffer the
		// plan for the first drive.
		procs := s.cfg.Procs
		if s.cfg.Raw != nil && s.cfg.Raw.Topo != nil {
			procs = s.cfg.Raw.Topo.Size()
		}
		if procs == 0 {
			procs = 8
		}
		if err := plan.Validate(procs); err != nil {
			return nil, err
		}
		s.pendPlans = append(s.pendPlans, plan)
		sorted := plan.Sorted()
		stamps := make([]int64, 0, len(sorted))
		for _, f := range sorted {
			stamps = append(stamps, f.At)
		}
		return stamps, nil
	}
	return s.ms.Inject(plan)
}

// flushLocked admits the buffered batch: canonical order, machine built from
// the first submission's program, deferred plans injected, then every
// request submitted to the machine session. The returned error is fatal
// (machine build/serve or deferred-plan rejection); per-request submission
// errors resolve only their own request.
func (s *simSession) flushLocked() error {
	if s.broken != nil {
		return s.broken
	}
	if len(s.pend) == 0 {
		return nil
	}
	batch := s.pend
	s.pend = nil
	sort.SliceStable(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
		if a.w.Spec != b.w.Spec {
			return a.w.Spec < b.w.Spec
		}
		if a.w.Fn != b.w.Fn {
			return a.w.Fn < b.w.Fn
		}
		ak, bk := argsKey(a.w.Args), argsKey(b.w.Args)
		if ak != bk {
			return ak < bk
		}
		return a.seq < b.seq
	})
	if s.ms == nil {
		m, err := s.cfg.Build(batch[0].w.Program)
		if err != nil {
			s.broken = err
			for _, r := range batch {
				r.fail(err)
			}
			return err
		}
		ms, err := m.Serve(s.serveConfig())
		if err != nil {
			s.broken = err
			for _, r := range batch {
				r.fail(err)
			}
			return err
		}
		s.m, s.ms = m, ms
		for _, plan := range s.pendPlans {
			if _, err := ms.Inject(plan); err != nil {
				s.broken = err
				for _, r := range batch {
					r.fail(err)
				}
				return err
			}
		}
		s.pendPlans = nil
	}
	var firstErr error
	for _, r := range batch {
		mr, err := s.ms.Submit(r.w.Program, r.w.Fn, r.w.Args)
		if err != nil {
			r.fail(err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.mr = mr
	}
	return firstErr
}

// serveConfig maps the core config to the machine's service knobs. An
// Arrival spec materializes its seeded schedule lazily, one offset per
// stream index; the machine assigns indices in canonical admission order,
// so the schedule is a pure function of (spec, seed) — identical at every
// shard count and under any Submit interleaving.
func (s *simSession) serveConfig() machine.ServeConfig {
	sc := machine.ServeConfig{
		ArrivalEvery: sim.Time(s.cfg.ArrivalEvery),
		MaxInFlight:  s.cfg.MaxInFlight,
		Admission:    s.admission,
		QueueBound:   s.queueBound,
	}
	if s.arrival != nil {
		seed := s.cfg.Seed
		if seed == 0 {
			seed = 1
		}
		next := s.arrival.Next(seed)
		var sched []int64
		sc.NextArrival = func(i int) sim.Time {
			for len(sched) <= i {
				sched = append(sched, next())
			}
			return sim.Time(sched[i])
		}
	}
	return sc
}

// fail resolves a request with an error.
func (r *simRequest) fail(err error) {
	if r.resolved {
		return
	}
	r.resolved = true
	r.err = err
	close(r.ch)
}

// succeed resolves a request with its per-request report.
func (r *simRequest) succeed(rep *Report) {
	if r.resolved {
		return
	}
	r.resolved = true
	r.rep = rep
	close(r.ch)
}

// shed resolves a request admission control rejected: the per-request
// report carries the Shed marker and the Wait error is the typed ErrShed.
func (r *simRequest) shedResolve(rep *Report) {
	if r.resolved {
		return
	}
	r.resolved = true
	r.rep = rep
	r.err = ErrShed
	close(r.ch)
}

// harvestLocked resolves every request whose completion (or shed decision)
// the last drive passed, whoever was driving.
func (s *simSession) harvestLocked() {
	for _, r := range s.all {
		if r.resolved || r.mr == nil {
			continue
		}
		switch {
		case r.mr.Done():
			r.succeed(s.requestReport(r))
		case r.mr.Shed():
			r.shedResolve(s.requestReport(r))
		}
	}
}

// requestReport builds the per-request view. Counters stay zero by design:
// the substrate is shared across the stream, so totals live on the
// session's Close report.
func (s *simSession) requestReport(r *simRequest) *Report {
	mr := r.mr
	rep := &Report{
		Backend:   "sim",
		Request:   mr.ID(),
		Unit:      Ticks,
		Procs:     s.ms.Procs(),
		Scheme:    s.ms.SchemeName(),
		Placement: s.ms.PlacementName(),
		ArrivedAt: int64(mr.Arrival()),
		Err:       s.ms.RunErr(),
	}
	switch {
	case mr.Done():
		rep.Completed = true
		rep.Answer = mr.Answer()
		rep.DoneAt = int64(mr.DoneAt())
		rep.Makespan = int64(mr.DoneAt() - mr.Arrival())
		rep.QueuedFor = int64(mr.QueuedFor())
	case mr.Shed():
		// Never admitted: the arrival stamp is the offer tick and no stream
		// time was spent serving it.
		rep.Shed = true
		rep.Makespan = 0
	default:
		rep.Makespan = int64(s.ms.Now() - mr.Arrival())
		rep.QueuedFor = int64(mr.QueuedFor())
	}
	return rep
}

// Wait implements SessionRequest.
func (r *simRequest) Wait() (*Report, error) {
	select {
	case <-r.ch:
		return r.rep, r.err
	default:
	}
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	r.waitLocked()
	return r.rep, r.err
}

// waitLocked drives the kernel until this request resolves; the caller
// holds s.mu.
func (r *simRequest) waitLocked() {
	s := r.s
	if r.resolved {
		return
	}
	if err := s.flushLocked(); err != nil && r.resolved {
		return // the flush error was this request's
	}
	if r.resolved {
		return
	}
	if r.mr == nil {
		// The batch flushed fatally before this request was admitted.
		err := s.broken
		if err == nil {
			err = errors.New("core: request was never admitted")
		}
		r.fail(err)
		return
	}
	s.ms.Wait(r.mr)
	s.harvestLocked()
	if r.resolved {
		return
	}
	if err := s.ms.RunErr(); err != nil {
		r.fail(err)
		return
	}
	// Budget exhausted: the request did not complete; the stream survives.
	r.succeed(s.requestReport(r))
}

// Close implements Session: resolve every open request, finalize the
// machine, and return the aggregate report (one-shot shape, Sim detail
// attached). Idempotent.
func (s *simSession) Close() (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.closeRep, s.closeErr
	}
	s.closed = true
	if err := s.flushLocked(); err != nil && s.ms == nil {
		s.closeErr = err
		return nil, err
	}
	for _, r := range s.all {
		r.waitLocked()
	}
	if s.ms == nil {
		// Nothing was ever submitted: an empty stream.
		s.closeRep = &Report{Backend: "sim", Unit: Ticks}
		return s.closeRep, nil
	}
	queueMax := s.ms.QueueDepthMax()
	mrep := s.ms.Finish()
	n := mrep.NeutralCounts()
	s.closeRep = &Report{
		Backend:       "sim",
		Answer:        mrep.Answer,
		Completed:     mrep.Completed,
		Err:           mrep.Err,
		Makespan:      int64(mrep.Makespan),
		Unit:          Ticks,
		Messages:      n.Messages,
		MsgBytes:      n.Bytes,
		Spawned:       n.Spawned,
		Reissued:      n.Reissued,
		Drained:       n.Drained,
		Recoveries:    n.Recoveries,
		Procs:         mrep.Procs,
		Scheme:        mrep.Scheme,
		Placement:     mrep.Placement,
		QueueDepthMax: queueMax,
		Sim:           mrep,
	}
	return s.closeRep, nil
}

// argsKey renders argument values for the canonical admission order.
func argsKey(args []expr.Value) string {
	return fmt.Sprintf("%v", args)
}
