package core

import (
	"sync"

	"repro/internal/admission"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simSession adapts machine.Session to the core Session interface. The
// machine (and its kernel) is single-threaded, so every operation serializes
// on mu, and whichever waiter holds the lock drives the kernel. The machine
// admits each batch of submissions in its canonical order (machine.Session),
// so submitting distinguishable workloads from eight goroutines or from a
// loop yields byte-identical reports.
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
}

// simRequest implements SessionRequest for the simulator: the machine's
// record of the request.
type simRequest struct {
	s  *simSession
	mr *machine.Req
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

// Submit implements Session: the machine validates the entry at the offer,
// like the wall-clock session, and buffers the request, labelled by its
// spec, for the next drive's admission batch.
func (s *simSession) Submit(w Workload) (SessionRequest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mr, err := s.ms.Submit(w.Spec, w.Program, w.Fn, w.Args)
	if err != nil {
		return nil, err
	}
	return &simRequest{s: s, mr: mr}, nil
}

// Inject implements Session: fault times are absolute stream ticks, and the
// machine buffers plans injected before its first drive.
func (s *simSession) Inject(plan *faults.Plan) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ms.Inject(plan)
}

// Wait implements SessionRequest: drive the kernel until the request
// settles, then read the machine's record of it.
func (r *simRequest) Wait() Outcome {
	s, mr := r.s, r.mr
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ms.Wait(mr)
	settled := s.ms.Now()
	if mr.Done() || mr.Err() != nil {
		settled = mr.DoneAt()
	}
	return Outcome{Request: mr.ID(), Offered: int64(mr.Arrival() - mr.QueuedFor()), Installed: int64(mr.Arrival()),
		Settled: int64(settled), Answer: mr.Answer(), Shed: mr.Shed(), Err: mr.Err()}
}

// Close implements Session: finalize the machine and return the aggregate
// report (one-shot shape, Sim detail attached). Close drives no request.
// Idempotent.
func (s *simSession) Close() (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mrep := s.ms.Finish()
	return &Report{
		Backend:       "sim",
		Answer:        mrep.Answer,
		Completed:     mrep.Completed,
		Makespan:      int64(mrep.Makespan),
		Unit:          Ticks,
		Metrics:       mrep.Metrics,
		Procs:         mrep.Procs,
		Scheme:        mrep.Scheme,
		Placement:     mrep.Placement,
		QueueDepthMax: s.ms.QueueDepthMax(),
		Sim:           mrep,
	}, nil
}
