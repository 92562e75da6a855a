package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/admission"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
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
	mu sync.Mutex
	ms *machine.Session

	pend []*simRequest
	all  []*simRequest
	seq  int

	closed   bool
	closeRep *Report
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

// newSimSession boots the stream the way node.Open boots a wall-clock one:
// the service specs are parsed, the machine is built and it starts serving,
// all before the first request exists — programs arrive with the requests.
func newSimSession(cfg Config) (*simSession, error) {
	mc, err := cfg.machineConfig()
	if err != nil {
		return nil, err
	}
	var sc machine.ServeConfig
	if sc.Admission, err = admission.Parse(cfg.Admission, cfg.MaxInFlight); err != nil {
		return nil, err
	}
	if cfg.Arrival != "" {
		arr, err := workload.ParseArrival(cfg.Arrival)
		if err != nil {
			return nil, err
		}
		// The seeded schedule materializes lazily, one offset per stream
		// index; the machine assigns indices in canonical admission order, so
		// the schedule is a pure function of (spec, seed) — identical at every
		// shard count and under any Submit interleaving.
		next := arr.Next(mc.Seed)
		var sched []int64
		sc.NextArrival = func(i int) sim.Time {
			for len(sched) <= i {
				sched = append(sched, next())
			}
			return sim.Time(sched[i])
		}
	}
	m, err := machine.New(mc, nil)
	if err != nil {
		return nil, err
	}
	ms, err := m.Serve(sc)
	if err != nil {
		return nil, err
	}
	return &simSession{ms: ms}, nil
}

// Unit implements Session.
func (s *simSession) Unit() TimeUnit { return Ticks }

// Submit implements Session: validate the entry at the offer, like the
// wall-clock session, and buffer the request for the next admission batch.
func (s *simSession) Submit(w Workload) (SessionRequest, error) {
	if err := w.Program.CheckEntry(w.Fn); err != nil {
		return nil, err
	}
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

// Inject implements Session: fault times are absolute stream ticks, and the
// machine buffers plans injected before its first drive.
func (s *simSession) Inject(plan *faults.Plan) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("core: session closed")
	}
	return s.ms.Inject(plan)
}

// flushLocked admits the buffered batch in canonical order. A submission the
// machine rejects (its program does not compile) fails that request alone.
func (s *simSession) flushLocked() {
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
	for _, r := range batch {
		mr, err := s.ms.Submit(r.w.Program, r.w.Fn, r.w.Args)
		if err != nil {
			r.resolve(nil, err)
			continue
		}
		r.mr = mr
	}
}

// resolve settles a request once: a per-request report, an error, or — for a
// request admission control rejected — the report carrying the Shed marker
// together with the typed ErrShed.
func (r *simRequest) resolve(rep *Report, err error) {
	if r.resolved {
		return
	}
	r.resolved = true
	r.rep, r.err = rep, err
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
			r.resolve(s.requestReport(r), nil)
		case r.mr.Shed():
			r.resolve(s.requestReport(r), ErrShed)
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
	s.flushLocked()
	if r.resolved {
		return // the machine rejected this request's submission
	}
	s.ms.Wait(r.mr)
	s.harvestLocked()
	if r.resolved {
		return
	}
	if err := s.ms.RunErr(); err != nil {
		r.resolve(nil, err)
		return
	}
	// Budget exhausted: the request did not complete; the stream survives.
	r.resolve(s.requestReport(r), nil)
}

// Close implements Session: resolve every open request, finalize the
// machine, and return the aggregate report (one-shot shape, Sim detail
// attached). Idempotent.
func (s *simSession) Close() (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.closeRep, nil
	}
	s.closed = true
	for _, r := range s.all {
		r.waitLocked()
	}
	queueMax := s.ms.QueueDepthMax()
	mrep := s.ms.Finish()
	s.closeRep = &Report{
		Backend:       "sim",
		Answer:        mrep.Answer,
		Completed:     mrep.Completed,
		Err:           mrep.Err,
		Makespan:      int64(mrep.Makespan),
		Unit:          Ticks,
		Counters:      countersOf(&mrep.Metrics),
		Procs:         mrep.Procs,
		Scheme:        mrep.Scheme,
		Placement:     mrep.Placement,
		QueueDepthMax: queueMax,
		Sim:           mrep,
	}
	return s.closeRep, nil
}

// countersOf is the simulator's side of Counters: the backend-neutral
// quantities read off the machine's metrics.
func countersOf(m *trace.Metrics) Counters {
	return Counters{
		Messages:   m.TotalMessages(),
		MsgBytes:   m.BytesOnWire,
		Spawned:    m.TasksSpawned,
		Reissued:   m.Reissues,
		Drained:    m.DupResults + m.LateResults,
		Recoveries: m.Reissues + m.Twins,
	}
}

// argsKey renders argument values for the canonical admission order.
func argsKey(args []expr.Value) string {
	return fmt.Sprintf("%v", args)
}
