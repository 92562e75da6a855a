package machine

import (
	"errors"

	"repro/internal/admission"
	"repro/internal/balance"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/trace"
)

// Session is the machine's service mode: a long-lived run that multiplexes
// several super-root requests on one event kernel. Each submitted request
// installs its own host pseudo-task (the pre-evaluation checkpoint of
// §4.3.1) with a distinct task key, so request trees never collide; the
// processors, their placement and balance state, the failure-detection
// bookkeeping and the fault history all persist between requests — exactly
// what a machine that "keeps answering while processors die" needs.
//
// A Session is single-threaded like the machine itself: callers (the core
// cluster adapter) serialize every method. Determinism is preserved because
// requests are admitted in Submit order at deterministic arrival ticks and
// every completion stamp is a kernel time.
//
// The one-shot Run is the degenerate session — one Submit, one Wait — and
// produces the byte-identical event stream of the pre-session machine: the
// first request reuses the zero host task key, buffered fault plans are
// scheduled before the periodic services, and an admission at the current
// tick installs directly instead of through a kernel event.
type Session struct {
	m    *Machine
	next func(i int) sim.Time // ServeConfig.NextArrival

	started  bool
	finished bool
	// startSeq is the driver sequence number start reached: a processor's
	// first heartbeat tick dispatches after every driver event scheduled
	// before it at the same instant, and before every later one.
	startSeq uint64
	final    *Report

	pendPlans []*faults.Plan
	pendReqs  []*Req

	reqs  []*Req
	byKey map[proto.TaskKey]*Req

	outstanding int

	// gate is the admission state: slots in use and the FIFO of offers
	// waiting for one. It is mutated only on the host's shard (the admission
	// batch events and rootDone both dispatch there), so the accounting is as
	// deterministic as the event order itself.
	gate admission.Gate[*Req]
}

// ServeConfig parameterizes the service stream.
type ServeConfig struct {
	// NextArrival, when set, is the arrival schedule: request i is offered at
	// stream offset NextArrival(i), clamped to the submitting drive's tick if
	// that offset already passed. This is how the open-loop arrival
	// generators (workload.Arrival) drive the stream. Nil offers every
	// request at its drive's tick.
	NextArrival func(i int) sim.Time

	// Admission bounds the stream: at most MaxInFlight installed,
	// un-completed requests, with offers beyond that queued (their
	// per-request budget counts from the eventual install, not the offer) or
	// shed (marked at the offer tick, never consuming machine resources).
	Admission admission.Policy
}

// Req is one submitted request: the session-side record of a super-root
// evaluation. Fields are stamped by the kernel as the stream progresses.
type Req struct {
	id        int
	fn        string
	args      []expr.Value
	prog      int
	arrival   sim.Time
	offered   sim.Time
	queuedFor sim.Time
	done      bool
	doneAt    sim.Time
	answer    expr.Value
	shed      bool
}

// ID is the request's stream index (0-based, admission order).
func (r *Req) ID() int { return r.id }

// Arrival is the virtual tick the request was admitted at: its offer tick
// on the unbounded path, or the tick the admission queue installed it.
func (r *Req) Arrival() sim.Time { return r.arrival }

// QueuedFor is the time the request spent in the admission FIFO before it
// got a slot: install tick minus offer tick, 0 for requests admitted
// directly. Time in queue is deliberately outside the per-request budget
// and the service latency (DoneAt − Arrival) — it measures the admission
// layer, not the machine.
func (r *Req) QueuedFor() sim.Time { return r.queuedFor }

// Shed reports whether admission control rejected the request.
func (r *Req) Shed() bool { return r.shed }

// Done reports whether the answer reached the super-root.
func (r *Req) Done() bool { return r.done }

// DoneAt is the completion stamp (valid when Done).
func (r *Req) DoneAt() sim.Time { return r.doneAt }

// Answer is the request's result (valid when Done).
func (r *Req) Answer() expr.Value { return r.answer }

// Serve attaches the service session to the machine. A machine serves (or
// runs) exactly once.
func (m *Machine) Serve(cfg ServeConfig) (*Session, error) {
	if m.session != nil {
		return nil, errors.New("machine: machine already serving (a machine instance runs once)")
	}
	s := &Session{m: m, next: cfg.NextArrival, byKey: map[proto.TaskKey]*Req{},
		gate: admission.Gate[*Req]{Policy: cfg.Admission}}
	m.session = s
	return s, nil
}

// hostKey is the host pseudo-task key of request id. Request 0 reuses the
// zero key of the one-shot machine; request i>0 roots its tree at stamp [i],
// so no request's task stamps can collide with another's (request 0's tasks
// all carry prefix [0], request i's the prefix [i]).
func hostKey(id int) proto.TaskKey {
	if id == 0 {
		return proto.TaskKey{}
	}
	return proto.TaskKey{Stamp: stamp.FromPath(uint32(id))}
}

// Submit enqueues fn(args) from prog; the request is admitted at the next
// drive. The program is interned machine-wide: distinct programs coexist,
// with every task packet tagged by its request's program.
func (s *Session) Submit(prog *lang.Program, fn string, args []expr.Value) (*Req, error) {
	if s.finished {
		return nil, errors.New("machine: session already finished")
	}
	if err := prog.CheckEntry(fn); err != nil {
		return nil, err
	}
	pi, err := s.m.progIndex(prog)
	if err != nil {
		return nil, err
	}
	r := &Req{id: len(s.reqs), fn: fn, args: args, prog: pi}
	s.reqs = append(s.reqs, r)
	s.pendReqs = append(s.pendReqs, r)
	return r, nil
}

// Inject schedules the plan's faults on the stream clock: a fault at tick t
// fires at stream tick t, or immediately if t already passed. Plans injected
// before the first drive are buffered and scheduled ahead of the periodic
// services, preserving the one-shot machine's same-tick dispatch order. It
// returns the stream stamps the faults will fire at.
func (s *Session) Inject(plan *faults.Plan) ([]int64, error) {
	if plan == nil {
		plan = faults.None()
	}
	if err := plan.Validate(s.m.n); err != nil {
		return nil, err
	}
	sorted := plan.Sorted()
	stamps := make([]int64, 0, len(sorted))
	if !s.started {
		s.pendPlans = append(s.pendPlans, plan)
		for _, f := range sorted {
			stamps = append(stamps, f.At)
		}
		return stamps, nil
	}
	now := s.m.kern.Now()
	for _, f := range sorted {
		f := f
		at := sim.Time(f.At)
		if at < now {
			at = now
		}
		stamps = append(stamps, int64(at))
		// The injection event is owned by the target processor, so it
		// dispatches on that processor's shard.
		s.m.kern.AtOn(at, int32(f.Proc), func() { s.m.inject(f) })
	}
	return stamps, nil
}

// start schedules the buffered fault plans and then the periodic services —
// fault injections first so they dispatch before same-tick protocol events,
// exactly like the one-shot machine.
func (s *Session) start() {
	if s.started {
		return
	}
	s.started = true
	m := s.m
	for _, plan := range s.pendPlans {
		for _, f := range plan.Sorted() {
			f := f
			m.kern.AtOn(sim.Time(f.At), int32(f.Proc), func() { m.inject(f) })
		}
	}
	s.pendPlans = nil
	// Load gossip is armed only for the gradient policy, its one reader: under
	// any other placement the tick would send nothing and re-arm itself. Each
	// tick event is owned by its processor, so it lives on the processor's
	// shard. No heartbeat tick is scheduled: a processor's chain starts only
	// once a stream into it stops (proc.arm), so an idle processor under any
	// other placement schedules nothing.
	_, gossips := m.cfg.Placement.(*balance.Gradient)
	if gossips {
		for i, p := range m.procs {
			m.kern.AtOn(sim.Time(1+i%DefaultLoadGossipEvery), int32(i), p.gossipTick)
		}
	}
	s.startSeq = m.kern.DriverSeq()
	if m.cfg.StateProbeEvery > 0 {
		// The probe runs as the coordinator's pacer: it fires at a window
		// barrier every period, where reading all shards is safe, and it
		// counts as a dispatched event exactly like the self-rescheduling
		// probe timer it replaces.
		m.kern.SetPacer(m.cfg.StateProbeEvery, m.cfg.StateProbeEvery, func(t sim.Time) {
			m.stateSamples = append(m.stateSamples, m.sampleStateAt(t))
		})
	}
}

// admit offers the pending requests to the stream: offers are grouped by
// arrival tick and each same-tick batch becomes one host-owned kernel event
// that offers the whole batch in submission order — one event instead of N
// on the one-shot path, and the offer runs on the host's shard where the
// spawn and admission bookkeeping live. A NextArrival schedule spreads the
// batch into a stream, one admission event per distinct arrival tick.
func (s *Session) admit() {
	m := s.m
	if len(s.pendReqs) == 0 {
		return
	}
	now := m.kern.Now()
	hostOwner := m.ownerOf(proto.HostID)
	var batch []*Req
	var batchAt sim.Time
	flush := func() {
		reqs := batch
		m.kern.AtOn(batchAt, hostOwner, func() {
			for _, r := range reqs {
				s.offer(r)
			}
		})
	}
	for _, r := range s.pendReqs {
		arr := now
		if s.next != nil {
			arr = max(arr, s.next(r.id))
		}
		r.arrival = arr
		s.outstanding++
		s.byKey[hostKey(r.id)] = r
		if len(batch) > 0 && arr != batchAt {
			flush()
			batch = nil
		}
		batchAt = arr
		batch = append(batch, r)
	}
	flush()
	s.pendReqs = nil
}

// offer runs admission control for one request at its arrival tick, on the
// host's shard: the gate admits (install now), queues, or sheds. Shedding
// stops the kernel like a completion does, so a driver waiting on the shed
// request observes the decision.
func (s *Session) offer(r *Req) {
	k := s.m.host.k
	r.offered = k.Now()
	switch s.gate.Offer(r) {
	case admission.Admit:
		s.install(r)
	case admission.Shed:
		r.shed = true
		s.outstanding--
		k.Stop()
	}
}

// install creates the request's host pseudo-task and demands the root
// application — the super-root retains the root task packet (§4.3.1). The
// arrival stamp is the install tick: identical to the offer tick on the
// direct path, and the dequeue tick for a request the admission queue held
// (its per-request budget starts when it actually gets a slot).
func (s *Session) install(r *Req) {
	m := s.m
	r.arrival = m.host.k.Now()
	r.queuedFor = r.arrival - r.offered
	hostPkt := &proto.TaskPacket{
		Key:    hostKey(r.id),
		Fn:     r.fn,
		Parent: proto.Addr{Proc: noProc},
		Prog:   r.prog,
	}
	hostTask := newTask(hostPkt)
	hostTask.isHostRoot = true
	hostTask.state = taskWaiting
	hostTask.residual = m.evalOf(r.prog).RootState(0)
	hostTask.nextID = 1
	m.host.tasks[hostPkt.Key] = hostTask
	m.host.spawnDemand(hostTask, lang.Demand{ID: 0, Fn: r.fn, Args: r.args})
}

// rootDone records a request's completion stamp and stops the kernel so any
// driver waiting on it can observe the state; drivers waiting on other
// requests simply resume. The machine-level done fields record the first
// completion (the request itself, in a one-shot run).
func (s *Session) rootDone(key proto.TaskKey, v expr.Value) {
	r := s.byKey[key]
	if r == nil || r.done {
		return // late completion of an already-resolved incarnation
	}
	r.done = true
	r.doneAt = s.m.host.k.Now()
	r.answer = v
	s.outstanding--
	m := s.m
	if !m.done {
		m.done = true
		m.answer = v
		m.doneAt = r.doneAt
	}
	m.log(proto.HostID, trace.KRootDone, "", v.String())
	// A freed slot installs the admission queue's head inline: rootDone runs
	// on the host's shard inside the completion event, exactly the context
	// the batch admission events install from, so the dequeue is as
	// deterministic (and shard-count-invariant) as the completion itself.
	if next, ok := s.gate.Release(); ok {
		s.install(next)
	}
	m.host.k.Stop()
}

// Wait drives the kernel until r completes, is shed, errors, or exhausts
// its budget: each request gets Config.Deadline virtual ticks from its
// arrival and DefaultMaxEvents dispatches per drive segment. On return
// r.Done reports completion and r.Shed an admission rejection; both false
// after Wait means the request timed out (the stream itself continues —
// later submissions still run).
func (s *Session) Wait(r *Req) {
	m := s.m
	// Admissions are scheduled before start's fault plans, so a same-tick
	// batch installs ahead of a fault injected at the same tick — the order
	// the one-shot machine's direct install produced.
	s.admit()
	s.start()
	for {
		if r.done || r.shed || m.runErr != nil || s.finished {
			return
		}
		// Recomputed each pass: a queued request's arrival moves to its
		// install tick, and its budget counts from there.
		deadline := r.arrival + m.cfg.Deadline
		if m.kern.Now() >= deadline {
			return
		}
		m.segment++
		res := m.kern.RunUntil(deadline, DefaultMaxEvents)
		m.mergeRunErr()
		if res != sim.RunStopped {
			return // deadline, quiescent, or event budget: r did not make it
		}
		// Stopped: some request completed (possibly r) or the run failed;
		// loop to re-check and resume the stream otherwise.
	}
}

// Outstanding reports how many admitted requests have not completed.
func (s *Session) Outstanding() int { return s.outstanding }

// QueueDepthMax reports the admission queue's high-water mark.
func (s *Session) QueueDepthMax() int { return s.gate.DepthMax() }

// Now is the stream clock in virtual ticks.
func (s *Session) Now() sim.Time { return s.m.kern.Now() }

// RunErr reports a program evaluation error, if one occurred; it poisons the
// whole session (evaluation errors are deterministic program bugs).
func (s *Session) RunErr() error { return s.m.runErr }

// Procs is the processor count.
func (s *Session) Procs() int { return s.m.n }

// SchemeName and PlacementName echo the configuration for reports.
func (s *Session) SchemeName() string { return s.m.cfg.Scheme.Name() }

// PlacementName echoes the placement policy name.
func (s *Session) PlacementName() string { return s.m.cfg.Placement.Name() }

// Finish closes the stream and returns the machine's aggregate report —
// the same accounting the one-shot Run performs. Idempotent; the session
// rejects further submissions afterwards.
func (s *Session) Finish() *Report {
	if s.finished {
		return s.final
	}
	s.finished = true
	s.final = s.m.finalReport()
	return s.final
}
