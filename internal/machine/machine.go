package machine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/balance"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// noProc marks the host pseudo-task's absent parent.
const noProc proto.ProcID = -3

// Machine is the simulated applicative multiprocessor.
type Machine struct {
	*params
	cfg Config
	// kern is the (possibly sharded) event kernel ensemble. The machine is
	// partitioned by topology region: every processor is pinned to its
	// region's shard and all of its events dispatch there; only message
	// deliveries cross shards, and those are bounded below by the lookahead
	// horizon (one hop of latency), which is what makes the lockstep windows
	// sound. With Config.Shards <= 1 the ensemble is a single kernel run
	// inline — the reference behaviour every shard count must reproduce.
	kern *sim.Sharded
	// shards holds the per-shard mutable state: everything a handler touches
	// during a window lives on exactly one shard (metrics, envelope pools,
	// trace buffers), so windows need no locks; the coordinator merges at
	// Finish in the deterministic dispatch order.
	shards []*shardCtx

	// progs holds the loaded programs: progs[0] is the program the machine
	// was built with, if any; service mode (Session) loads one more per
	// distinct submitted program. Task packets name their program by index (Prog).
	// evals is kept parallel: evals[i] is progs[i] compiled by the machine's
	// evaluator at intern time, so the per-task hot path never compiles.
	progs []*lang.Program
	evals []lang.EvalProgram
	eval  lang.Evaluator

	// session, when non-nil, owns request bookkeeping: root completions are
	// routed per-request instead of stopping the whole run. Run attaches one
	// implicitly, so there is a single execution path.
	session *Session

	procs []*proc
	host  *proc
	// det is how processors learn first-hand of a death: the closed-form
	// heartbeat schedule (heartbeats), unless a test installs another.
	det Detector

	// metrics is the merged view, valid after finalReport; during the run
	// every counter bump goes to the owning shard's context.
	metrics trace.Metrics

	// Completion state. Written only by host-shard events and read by the
	// driver between runs.
	done   bool
	answer expr.Value
	doneAt sim.Time

	stateSamples []StateSample
}

// params is what the protocol reads of the machine's configuration: set
// once in New and shared, read-only, by the machine and every processor.
type params struct {
	n int
	// acked selects the four-message protocol (Config.acked): every placement
	// and every result is acknowledged and guarded by a reply timer.
	// Otherwise a task costs two messages, its packet and its result.
	acked       bool
	placement   balance.Policy
	depth       int  // Config.AncestorDepth
	noCkpt      bool // Config.DisableCheckpoints
	retryLimit  int  // Config.ResultRetryLimit
	replication map[string]int
	// dist is the topology's own hop-distance table (topology.Dists:
	// dist[from*n+to]), so the per-message distance lookup is an indexed
	// load instead of an interface call.
	dist []int32
}

// shardCtx is the state one shard's handlers may touch freely during a
// lockstep window, and the env of its processors. Nothing here is shared
// between shards until the coordinator merges it (metrics by commutative
// addition, traces and detections by dispatch order).
type shardCtx struct {
	*sim.Kernel
	m       *Machine
	metrics trace.Metrics

	// msgFree recycles delivered protocol messages: a Msg is alive only
	// from post until its delivery callback returns (handlers retain
	// payload pointers — packets, results — never the envelope), so each
	// shard reuses envelopes instead of allocating one per message.
	// Envelopes are allocated from the sender's pool and recycled into the
	// receiver's, so a cross-shard delivery migrates its envelope — still
	// lock-free, since each pool is only touched by its own shard.
	msgFree []*proto.Msg

	// tlog is the event log, nil unless tracing. A single shard writes it
	// directly; several buffer their events in traceBuf, tagged with their
	// dispatch position, for the merge at Finish.
	tlog     *trace.Log
	single   bool
	traceBuf []keyedEvent
	// seg counts driver run segments (Wait drives). Order between runs is
	// driver order, not key order — events of a later segment can carry
	// smaller keys (a re-admission at the stop tick) — so merge order is
	// (segment, key).
	seg int

	// detects records failure detections for the latency accounting; the
	// "first" detection of a failure is decided at merge time by dispatch
	// order, exactly as the single-shard run decides it by arrival.
	detects []detection
}

// dispatchPos is an event's place in the run: its driver segment, then its
// kernel key.
type dispatchPos struct {
	seg int
	key sim.Key
}

// pos is the dispatch position of the event shard sc is running.
func (sc *shardCtx) pos() dispatchPos { return dispatchPos{sc.seg, sc.CurrentKey()} }

// before reports whether a dispatches before b.
func (a dispatchPos) before(b dispatchPos) bool {
	if a.seg != b.seg {
		return a.seg < b.seg
	}
	return a.key.Less(b.key)
}

// keyedEvent is a trace event tagged with its dispatch position.
type keyedEvent struct {
	dispatchPos
	ev trace.Event
}

// detection is one declareFaulty observation of a (possibly) failed
// processor, tagged with its dispatch position.
type detection struct {
	dispatchPos
	failed proto.ProcID
	at     sim.Time
}

// StateSample is one probe of the machine's resident state.
type StateSample struct {
	Time  sim.Time
	Tasks int   // resident tasks across all processors
	Bytes int64 // encoded size of their packets (snapshot payload)
}

// Report is the outcome of a run.
type Report struct {
	// Answer is the program's result; nil when the run did not complete.
	Answer expr.Value
	// Completed is true when the answer reached the super-root.
	Completed bool
	// Makespan is the virtual time at completion (or at the deadline for
	// incomplete runs).
	Makespan sim.Time
	// Metrics are the aggregate counters of the run.
	Metrics trace.Metrics
	// Log is the event log (nil unless tracing was configured).
	Log *trace.Log
	// Scheme and Placement echo the configuration for reports.
	Scheme, Placement string
	// Procs is the processor count.
	Procs int
	// Events is the number of kernel events dispatched.
	Events uint64
	// StateSamples holds the probes requested via Config.StateProbeEvery.
	StateSamples []StateSample
	// StepsByProc is the reduction-step count each processor executed —
	// the load distribution §3.3's balance discussion is about.
	StepsByProc []int64
}

// New builds a machine for the given configuration. prog is the program Run
// evaluates; a machine built to Serve may pass nil, since every request
// interns its own program.
func New(cfg Config, prog *lang.Program) (*Machine, error) {
	norm, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	ev, err := lang.EvaluatorByName(norm.Eval)
	if err != nil {
		return nil, fmt.Errorf("machine: unknown evaluator %q (known: %s)",
			norm.Eval, strings.Join(lang.Evaluators(), ", "))
	}
	m := &Machine{params: newParams(norm), cfg: norm, eval: ev}
	if prog != nil {
		if _, err := m.progIndex(prog); err != nil {
			return nil, err
		}
	}
	// The lookahead horizon is the minimum latency of any cross-shard
	// message: one hop (MsgOverhead + HopCost). Host links are one hop and
	// any partition of a connected graph has an adjacent cross-region pair,
	// so the bound is the same at every shard count — which it must be, or
	// window boundaries (and thus Stop/budget observation points) would
	// depend on the shard count.
	const horizon = DefaultMsgOverhead + DefaultHopCost
	nshards := min(norm.Shards, m.n)
	homes := make([]int32, m.n+1) // procs 0..n-1, then the host at index n
	if nshards > 1 {
		part := topology.Partition(norm.Topo, nshards)
		nshards = part.Shards
		copy(homes, part.Region)
		// The operator console attaches at processor 0's port, so the host
		// pseudo-processor lives on processor 0's shard.
		homes[m.n] = part.Region[0]
	}
	m.kern = sim.NewSharded(norm.Seed, nshards, homes, horizon)
	m.shards = make([]*shardCtx, nshards)
	for i := range m.shards {
		sc := &shardCtx{Kernel: m.kern.Shard(i), m: m, tlog: norm.Trace, single: nshards == 1}
		m.shards[i] = sc
		sc.SetSink(func(v any) { m.deliverOn(sc, v) })
	}
	m.procs = make([]*proc, m.n)
	for i := range m.procs {
		sc := m.shards[homes[i]]
		m.procs[i] = newProc(proto.ProcID(i), i, m.params, &m.cfg, sc, &sc.metrics)
	}
	sc := m.shards[homes[m.n]]
	m.host = newProc(proto.HostID, m.n, m.params, &m.cfg, sc, &sc.metrics)
	m.det = newHeartbeats(m)
	return m, nil
}

// newParams is what the protocol reads of a normalized configuration.
func newParams(c Config) *params {
	return &params{
		n: c.Topo.Size(), acked: c.acked(), placement: c.Placement,
		depth: c.AncestorDepth, noCkpt: c.DisableCheckpoints, retryLimit: c.ResultRetryLimit,
		replication: c.Replication, dist: topology.Dists(c.Topo),
	}
}

// mixSeed derives processor idx's RNG seed from the machine seed with a
// golden-ratio stride, so neighbouring processors get unrelated streams.
func mixSeed(seed int64, idx int) int64 {
	return int64(uint64(seed) + uint64(idx+1)*0x9E3779B97F4A7C15)
}

// ownerOf maps a processor id to its kernel owner index (host = n).
func (c *params) ownerOf(id proto.ProcID) int32 {
	if id == proto.HostID {
		return int32(c.n)
	}
	return int32(id)
}

// getMsg takes a recycled message envelope (or a fresh one) and fills it.
func (sc *shardCtx) getMsg(msg proto.Msg) *proto.Msg {
	if n := len(sc.msgFree); n > 0 {
		pm := sc.msgFree[n-1]
		sc.msgFree[n-1] = nil
		sc.msgFree = sc.msgFree[:n-1]
		*pm = msg
		return pm
	}
	pm := new(proto.Msg)
	*pm = msg
	return pm
}

// putMsg recycles a message envelope once delivery (or a drop) is done.
// Payload pointers are cleared so recycled envelopes pin nothing.
func (sc *shardCtx) putMsg(pm *proto.Msg) {
	*pm = proto.Msg{}
	sc.msgFree = append(sc.msgFree, pm)
}

// transmit is the simulator's wire: a message's count, bytes and hops
// advance together (hops.wire >= TotalMessages), but a local (From == To)
// delivery costs one tick and no wire. The message rides a pooled envelope
// until delivery; AtMsgTo routes it to the destination's shard, sound
// because remote latency is at least the lookahead horizon.
func (sc *shardCtx) transmit(msg proto.Msg) {
	if msg.To == msg.From {
		sc.AfterMsg(1, sc.getMsg(msg))
		return
	}
	hops := sc.m.hops(msg.From, msg.To)
	sc.metrics.BytesOnWire += int64(msg.EncodedSize())
	sc.metrics.HopsOnWire += int64(hops)
	CountMsg(&sc.metrics, msg.Type)
	sc.AtMsgTo(sc.Now()+flightTime(hops), sc.m.ownerOf(msg.To), sc.getMsg(msg))
}

// log adds ev to the event log: directly under a single shard, otherwise
// buffered with its dispatch position for the merge at Finish.
func (sc *shardCtx) log(ev trace.Event) {
	if sc.single {
		sc.tlog.Add(ev)
		return
	}
	sc.traceBuf = append(sc.traceBuf, keyedEvent{sc.pos(), ev})
}

// suspected records p's detection of q for the latency merge and tells the detector.
func (sc *shardCtx) suspected(p *proc, q proto.ProcID) {
	sc.detects = append(sc.detects, detection{sc.pos(), q, sc.Now()})
	sc.m.det.suspected(p, q)
}

func (sc *shardCtx) placedHere(*proto.TaskPacket)   {}
func (sc *shardCtx) tracing() bool                  { return sc.tlog != nil }
func (sc *shardCtx) died(p *proc)                   { sc.m.det.died(p) }
func (sc *shardCtx) program(i int) lang.EvalProgram { return sc.m.evals[i] }
func (sc *shardCtx) ended(o Outcome)                { sc.m.session.ended(o) }

// shardOf is p's shard: its env, and where machine-side code schedules p's events.
func (m *Machine) shardOf(p *proc) *shardCtx { return m.shards[m.kern.HomeOf(int32(p.idx))] }

// deliverOn is shard sc's payload sink: every message scheduled onto the
// shard lands here and is handed to its destination, unless that is dead
// (the network knows only physical liveness, not suspicion state); then its
// envelope is recycled into sc's pool (the event's owner is the
// destination, so sc is the destination's shard).
func (m *Machine) deliverOn(sc *shardCtx, v any) {
	pm := v.(*proto.Msg)
	if dst := m.proc(pm.To); dst != nil && !dst.dead {
		dst.handle(pm)
	}
	sc.putMsg(pm)
}

// progIndex interns a program and returns its index; progs[0] is the build
// program, so one-shot packets keep the zero tag. Interning a new program
// compiles it with the machine's evaluator — the once-per-program cost that
// keeps compilation off the per-task hot path.
func (m *Machine) progIndex(p *lang.Program) (int, error) {
	for i, q := range m.progs {
		if q == p {
			return i, nil
		}
	}
	ep, err := m.eval.Compile(p)
	if err != nil {
		return 0, fmt.Errorf("machine: compile: %w", err)
	}
	m.progs = append(m.progs, p)
	m.evals = append(m.evals, ep)
	return len(m.progs) - 1, nil
}

// proc resolves a processor id, including the host. Unknown ids return nil.
func (m *Machine) proc(id proto.ProcID) *proc {
	if id == proto.HostID {
		return m.host
	}
	if id >= 0 && int(id) < m.n {
		return m.procs[id]
	}
	return nil
}

// replicasFor returns the §5.3 replication degree for a function: 1 unless
// Config.Replication names it.
func (c *params) replicasFor(fn string) int { return max(c.replication[fn], 1) }

// flightTime is the virtual latency of a message that crosses hops links.
func flightTime(hops int) sim.Time { return sim.Time(DefaultMsgOverhead + DefaultHopCost*hops) }

// CountMsg files one transmitted message under its report category. The
// switch is complete: a message type without a category is a bug, not a
// message that travels for free.
func CountMsg(mt *trace.Metrics, t proto.MsgType) {
	switch t {
	case proto.MsgTask:
		mt.MsgTask++
	case proto.MsgTaskAck:
		mt.MsgTaskAck++
	case proto.MsgResult:
		mt.MsgResult++
	case proto.MsgResultAck:
		mt.MsgResultAck++
	case proto.MsgGrandResult:
		mt.MsgGrand++
	case proto.MsgAbort, proto.MsgChildAbort:
		mt.MsgAbort++
	case proto.MsgFaultAnnounce:
		mt.MsgFault++
	case proto.MsgHeartbeat:
		mt.MsgHeartbeat++
	case proto.MsgLoad:
		mt.MsgLoad++
	default:
		panic(fmt.Sprintf("machine: message type %v has no counter", t))
	}
}

// hops is the network distance between two processors. Host links are one
// hop (the operator console attaches at processor 0's port).
func (c *params) hops(from, to proto.ProcID) int {
	if from == proto.HostID || to == proto.HostID {
		return 1
	}
	return int(c.dist[int(from)*c.n+int(to)])
}

// Run evaluates fn(args) on the machine under the given fault plan and
// returns the report, or the request's own error: a task that failed to
// evaluate fails the run. A machine instance runs once. Run is the
// degenerate service stream: it opens a Session, submits the one request,
// waits, and finalizes — the exact event sequence the pre-session machine
// produced.
func (m *Machine) Run(fn string, args []expr.Value, plan *faults.Plan) (*Report, error) {
	if len(m.progs) == 0 {
		return nil, errors.New("machine: program is required")
	}
	s, err := m.Serve(ServeConfig{})
	if err != nil {
		return nil, err
	}
	req, err := s.Submit("", m.progs[0], fn, args)
	if err != nil {
		return nil, err
	}
	if _, err := s.Inject(plan); err != nil {
		return nil, err
	}
	s.Wait(req)
	rep := s.Finish()
	if req.err != nil {
		return nil, req.err
	}
	return rep, nil
}

// finalReport closes the books on the machine: merge the per-shard state
// (metrics, traces, detections), then leak and checkpoint-storage
// accounting, then the aggregate report. Tasks still returning have finished
// their work and are merely awaiting result acknowledgements cut off by the
// stop; only tasks that never produced a value count as leaked. In service
// mode Answer/Makespan are those of the first completed request; per-request
// stamps live on the session's Reqs.
func (m *Machine) finalReport() *Report {
	m.mergeTrace()
	for _, sc := range m.shards {
		m.metrics.Add(&sc.metrics)
	}
	m.det.count(&m.metrics)
	m.mergeDetections()
	for _, p := range m.procs {
		for _, t := range p.tasks {
			if t.state != taskAborted && t.state != taskReturning {
				m.metrics.TasksLeaked++
			}
		}
		m.metrics.CheckpointBytes += p.store.PeakBytes()
	}
	m.metrics.CheckpointBytes += m.host.store.PeakBytes()

	makespan := m.doneAt
	if !m.done {
		makespan = m.kern.Now()
	}
	stepsByProc := make([]int64, m.n)
	for i, p := range m.procs {
		stepsByProc[i] = p.stepsDone
	}
	m.kern.Close()
	return &Report{
		Answer:       m.answer,
		Completed:    m.done,
		Makespan:     makespan,
		Metrics:      m.metrics,
		Log:          m.cfg.Trace,
		Scheme:       m.cfg.Scheme.Name(),
		Placement:    m.cfg.Placement.Name(),
		Procs:        m.n,
		Events:       m.kern.Processed(),
		StateSamples: m.stateSamples,
		StepsByProc:  stepsByProc,
	}
}

// mergeTrace interleaves the per-shard trace buffers into the log in
// dispatch order. Within one driver segment the dispatch order is the key
// order (windows advance monotonically in time); across segments it is
// segment order. The stable sort keeps same-event entries (equal keys) in
// their emission order, so the merged log is byte-identical to the
// single-shard log.
func (m *Machine) mergeTrace() {
	if len(m.shards) == 1 || m.cfg.Trace == nil {
		return
	}
	var all []keyedEvent
	for _, sc := range m.shards {
		all = append(all, sc.traceBuf...)
		sc.traceBuf = nil
	}
	sort.SliceStable(all, func(i, j int) bool {
		return all[i].before(all[j].dispatchPos)
	})
	for _, ke := range all {
		m.cfg.Trace.Add(ke.ev)
	}
}

// mergeDetections computes the first-detection latency metrics from the
// per-shard detection records: for each processor that actually failed, the
// first (in dispatch order) detection at or after the failure counts —
// exactly the record the single-shard run updates online. A detection of a
// processor that was alive when it was declared is a false suspicion.
func (m *Machine) mergeDetections() {
	firsts := make([]*detection, m.n)
	for _, sc := range m.shards {
		for i := range sc.detects {
			d := &sc.detects[i]
			p := m.procs[d.failed]
			if p.failedAt < 0 || d.before(p.failPos) {
				m.metrics.FalseSuspicions++ // never failed, or not yet
				continue
			}
			if f := firsts[d.failed]; f == nil || d.before(f.dispatchPos) {
				firsts[d.failed] = d
			}
		}
		sc.detects = nil
	}
	for i, f := range firsts {
		if f != nil {
			m.metrics.FirstDetections++
			m.metrics.DetectLatencySum += int64(f.at - m.procs[i].failedAt)
		}
	}
}

// sampleStateAt sums resident task state across processors. It runs at a
// window barrier (the pacer), so reading every shard's tasks is safe.
func (m *Machine) sampleStateAt(t sim.Time) StateSample {
	s := StateSample{Time: t}
	for _, p := range m.procs {
		for _, tk := range p.tasks {
			if tk.state == taskAborted {
				continue
			}
			s.Tasks++
			s.Bytes += int64(tk.pkt.EncodedSize())
		}
	}
	return s
}

// inject applies one fault. It runs as an event owned by the target
// processor, so the bookkeeping lands on that processor's shard.
func (m *Machine) inject(f faults.Fault) {
	p := m.proc(f.Proc)
	if p == nil || p.isHost {
		return
	}
	switch f.Kind {
	case faults.Corrupt:
		if !p.dead {
			p.corrupt = true
			p.Log(trace.KFail, nil, "value corruption begins")
		}
	default:
		if p.dead {
			return
		}
		sc := m.shardOf(p)
		sc.metrics.Failures++
		p.failedAt = sc.Now()
		p.failPos = sc.pos()
		p.Log(trace.KFail, nil, f.Kind.String())
		p.die(f.Kind == faults.CrashAnnounced)
	}
}
