package machine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

type nodeID = topology.NodeID

// noProc marks the host pseudo-task's absent parent.
const noProc proto.ProcID = -3

// Machine is the simulated applicative multiprocessor.
type Machine struct {
	cfg Config
	// acked selects the four-message protocol (Config.acked): every placement
	// and every result is acknowledged and guarded by a reply timer.
	// Otherwise a task costs two messages, its packet and its result.
	acked bool
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
	single bool // len(shards) == 1: skip tagging, write traces directly
	// segment counts driver run segments (Wait drives). Order between runs
	// is driver order, not key order — events of a later segment can carry
	// smaller keys (a re-admission at the stop tick) — so merge order is
	// (segment, key).
	segment int

	// progs holds the loaded programs: progs[0] is the program the machine
	// was built with, if any; service mode (Session) loads one more per
	// distinct submitted program. Task packets name their program by index (Prog).
	// evals is kept parallel: evals[i] is progs[i] compiled by the machine's
	// evaluator at intern time, so the per-task hot path never compiles.
	progs []*lang.Program
	evals []lang.EvalProgram
	eval  lang.Evaluator
	n     int

	// dist is the topology's own hop-distance table (topology.Dists:
	// dist[from*n+to], read-only), so the per-message distance lookup is an
	// indexed load instead of an interface call.
	dist []int32

	// session, when non-nil, owns request bookkeeping: root completions are
	// routed per-request instead of stopping the whole run. Run attaches one
	// implicitly, so there is a single execution path.
	session *Session

	procs []*proc
	host  *proc
	// epochs are the detector's (detector.go), built awake. The host's
	// frames extend them at a window barrier, so shards read them freely.
	epochs epochs

	// metrics is the merged view, valid after finalReport; during the run
	// every counter bump goes to the owning shard's context.
	metrics trace.Metrics
	tlog    *trace.Log

	// Completion state. Written only by host-shard events and read by the
	// driver between runs.
	done   bool
	answer expr.Value
	doneAt sim.Time

	stateSamples []StateSample
}

// shardCtx is the state one shard's handlers may touch freely during a
// lockstep window. Nothing here is shared between shards until the
// coordinator merges it (metrics by commutative addition, traces and
// detections by dispatch order).
type shardCtx struct {
	k       *sim.Kernel
	metrics trace.Metrics

	// msgFree recycles delivered protocol messages: a Msg is alive only
	// from post until its delivery callback returns (handlers retain
	// payload pointers — packets, results — never the envelope), so each
	// shard reuses envelopes instead of allocating one per message.
	// Envelopes are allocated from the sender's pool and recycled into the
	// receiver's, so a cross-shard delivery migrates its envelope — still
	// lock-free, since each pool is only touched by its own shard.
	msgFree []*proto.Msg

	// traceBuf buffers trace events tagged with their dispatch position
	// when more than one shard runs; the single-shard machine writes to the
	// log directly.
	traceBuf []keyedEvent

	// detects records failure detections for the latency accounting; the
	// "first" detection of a failure is decided at merge time by dispatch
	// order, exactly as the single-shard run decides it by arrival.
	detects []detection
}

// keyedEvent is a trace event tagged with its dispatch position.
type keyedEvent struct {
	seg int
	key sim.Key
	ev  trace.Event
}

// detection is one declareFaulty observation of a (possibly) failed
// processor, tagged with its dispatch position.
type detection struct {
	failed proto.ProcID
	at     sim.Time
	seg    int
	key    sim.Key
}

// ordBefore reports whether dispatch position (aSeg, aKey) precedes
// (bSeg, bKey).
func ordBefore(aSeg int, aKey sim.Key, bSeg int, bKey sim.Key) bool {
	if aSeg != bSeg {
		return aSeg < bSeg
	}
	return aKey.Less(bKey)
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
	m := &Machine{
		cfg:    norm,
		acked:  norm.acked(),
		eval:   ev,
		n:      norm.Topo.Size(),
		tlog:   norm.Trace,
		epochs: epochs{0},
	}
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
	m.single = nshards == 1
	m.shards = make([]*shardCtx, nshards)
	for i := range m.shards {
		sc := &shardCtx{k: m.kern.Shard(i)}
		m.shards[i] = sc
		sc.k.SetSink(func(v any) { m.deliverOn(sc, v) })
	}
	m.dist = topology.Dists(norm.Topo)
	m.procs = make([]*proc, m.n)
	for i := 0; i < m.n; i++ {
		p := newProc(proto.ProcID(i), m, false)
		m.wireProc(p, i, homes[i])
		m.procs[i] = p
	}
	m.host = newProc(proto.HostID, m, true)
	m.wireProc(m.host, m.n, homes[m.n])
	m.linkBeats()
	return m, nil
}

// linkBeats hands every processor the heartbeat streams it writes, which its
// neighbours' detectors hold: topologies are undirected with sorted
// neighbour lists, so q's watch on neighbour p sits at q's index in p's list.
func (m *Machine) linkBeats() {
	for _, q := range m.procs {
		for i, nb := range q.det.neighbors {
			p := m.procs[nb]
			if p.beats == nil {
				p.beats = make([]*beatLink, len(p.neighbors))
				p.beatTo = slices.Clip(p.neighbors)
			}
			j, ok := slices.BinarySearch(p.neighbors, q.id)
			if !ok {
				panic(fmt.Sprintf("machine: %d neighbours %d but not back", q.id, nb))
			}
			p.beats[j] = &q.det.in[i]
		}
	}
}

// wireProc pins a processor to its shard and seeds its private determinism
// streams (RNG, generation/replica counters live on the proc itself). The
// streams are per-processor rather than per-kernel so their consumption
// order — and hence every value drawn — is independent of which processors
// share a shard.
func (m *Machine) wireProc(p *proc, idx int, home int32) {
	p.idx = idx
	p.sc = m.shards[home]
	p.k = p.sc.k
	p.rng = cachedRand(mixSeed(m.cfg.Seed, idx))
	p.failedAt = -1
}

// mixSeed derives processor idx's RNG seed from the machine seed with a
// golden-ratio stride, so neighbouring processors get unrelated streams.
func mixSeed(seed int64, idx int) int64 {
	return int64(uint64(seed) + uint64(idx+1)*0x9E3779B97F4A7C15)
}

// ownerOf maps a processor id to its kernel owner index (host = n).
func (m *Machine) ownerOf(id proto.ProcID) int32 {
	if id == proto.HostID {
		return int32(m.n)
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

// deliverOn is shard sc's payload sink: every message scheduled onto the
// shard lands here, is handled, and its envelope recycled into sc's pool
// (the event's owner is the destination, so sc is the destination's shard).
func (m *Machine) deliverOn(sc *shardCtx, v any) {
	pm := v.(*proto.Msg)
	m.deliver(pm)
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

// evalOf resolves a packet's program tag to its compiled form.
func (m *Machine) evalOf(i int) lang.EvalProgram { return m.evals[i] }

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

// replicasFor returns the §5.3 replication degree for a function.
func (m *Machine) replicasFor(fn string) int {
	if r, ok := m.cfg.Replication[fn]; ok && r > 1 {
		return r
	}
	return 1
}

// log appends a trace event on behalf of processor id; it must be called
// from id's shard (which every handler call site is). Under a single shard
// the event goes straight to the log; otherwise it is buffered with its
// dispatch position and merged at Finish.
func (m *Machine) log(id proto.ProcID, kind trace.Kind, task, note string) {
	if m.tlog == nil {
		return
	}
	sc := m.proc(id).sc
	ev := trace.Event{
		Time: int64(sc.k.Now()), Proc: int32(id), Kind: kind, Task: task, Note: note,
	}
	if m.single {
		m.tlog.Add(ev)
		return
	}
	sc.traceBuf = append(sc.traceBuf, keyedEvent{seg: m.segment, key: sc.k.CurrentKey(), ev: ev})
}

// noteDetection records that observer p declared `failed` faulty; whether
// it was the first detection (for the latency average) is decided at merge
// time from the dispatch order.
func (m *Machine) noteDetection(p *proc, failed proto.ProcID) {
	if failed < 0 || int(failed) >= m.n {
		return
	}
	p.sc.detects = append(p.sc.detects, detection{
		failed: failed, at: p.k.Now(), seg: m.segment, key: p.k.CurrentKey(),
	})
}

// send transmits a message. A message is what send (or, for a beat, the
// schedule countBeats reads) puts on the wire, so its count, bytes and hops
// advance together (hops.wire >= TotalMessages always). Dead
// processors transmit nothing and a local (from == to) delivery costs one
// tick and no wire, so neither counts. The message is taken by value: the
// machine copies it into a pooled envelope that lives exactly until
// delivery, so the call sites' composite literals stay on the stack.
// Everything happens on the sender's shard except the final enqueue, which
// AtMsgTo routes to the destination's shard through the outbox when they
// differ — sound because remote latency is at least the lookahead horizon.
func (m *Machine) send(msg proto.Msg) {
	src := m.proc(msg.From)
	if src == nil || src.dead {
		// Dead processors no longer transmit (§1); the announced-crash
		// "dying gasp" is sent by die() before the flag is set.
		return
	}
	sc := src.sc
	if msg.From == msg.To {
		sc.k.AfterMsg(1, sc.getMsg(msg))
		return
	}
	hops := m.hops(msg.From, msg.To)
	sc.metrics.BytesOnWire += int64(msg.EncodedSize())
	sc.metrics.HopsOnWire += int64(hops)
	countMsg(&sc.metrics, msg.Type)
	sc.k.AtMsgTo(sc.k.Now()+flightTime(hops), m.ownerOf(msg.To), sc.getMsg(msg))
}

// countBeats files the run's heartbeats, which no event sends: p's beat
// k ≥ 1 to a neighbour went on the wire at beatPhase(p) + k·every exactly
// when that instant lies inside an epoch and before both the stream's until
// and the covered bound — when a tick due then would have run. Counts,
// bytes and hops advance together, as in send.
func (m *Machine) countBeats() {
	every, end := m.cfg.HeartbeatEvery, m.kern.Covered()
	for _, p := range m.procs {
		for i, l := range p.beats {
			n := l.sent(every, end, m.epochs)
			beat := proto.Msg{Type: proto.MsgHeartbeat, From: p.id, To: p.beatTo[i]}
			m.metrics.MsgHeartbeat += n
			m.metrics.BytesOnWire += n * int64(beat.EncodedSize())
			m.metrics.HopsOnWire += n * int64(m.hops(p.id, beat.To))
		}
	}
}

// flightTime is the virtual latency of a message that crosses hops links.
func flightTime(hops int) sim.Time { return sim.Time(DefaultMsgOverhead + DefaultHopCost*hops) }

// countMsg files one transmitted message under its report category. The
// switch is complete: a message type without a category is a bug, not a
// message that travels for free.
func countMsg(mt *trace.Metrics, t proto.MsgType) {
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

// deliver hands a message to its destination; dead destinations drop it
// (the network knows only physical liveness, not suspicion state).
func (m *Machine) deliver(msg *proto.Msg) {
	dst := m.proc(msg.To)
	if dst == nil || dst.dead {
		return
	}
	dst.handle(msg)
}

// hops is the network distance between two processors. Host links are one
// hop (the operator console attaches at processor 0's port).
func (m *Machine) hops(from, to proto.ProcID) int {
	if from == proto.HostID || to == proto.HostID {
		return 1
	}
	return int(m.dist[int(from)*m.n+int(to)])
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
	m.countBeats()
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
		Log:          m.tlog,
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
	if m.single || m.tlog == nil {
		return
	}
	var all []keyedEvent
	for _, sc := range m.shards {
		all = append(all, sc.traceBuf...)
		sc.traceBuf = nil
	}
	sort.SliceStable(all, func(i, j int) bool {
		return ordBefore(all[i].seg, all[i].key, all[j].seg, all[j].key)
	})
	for _, ke := range all {
		m.tlog.Add(ke.ev)
	}
}

// mergeDetections computes the first-detection latency metrics from the
// per-shard detection records: for each processor that actually failed, the
// first (in dispatch order) detection at or after the failure counts —
// exactly the record the single-shard run updates online. A detection of a
// processor that was alive when it was declared is a false suspicion.
func (m *Machine) mergeDetections() {
	type firstRec struct {
		ok  bool
		at  sim.Time
		seg int
		key sim.Key
	}
	firsts := make([]firstRec, m.n)
	for _, sc := range m.shards {
		for _, d := range sc.detects {
			p := m.procs[d.failed]
			if p.failedAt < 0 || ordBefore(d.seg, d.key, p.failSeg, p.failKey) {
				m.metrics.FalseSuspicions++ // never failed, or not yet
				continue
			}
			f := &firsts[d.failed]
			if !f.ok || ordBefore(d.seg, d.key, f.seg, f.key) {
				*f = firstRec{ok: true, at: d.at, seg: d.seg, key: d.key}
			}
		}
		sc.detects = nil
	}
	for i := range firsts {
		if firsts[i].ok {
			m.metrics.FirstDetections++
			m.metrics.DetectLatencySum += int64(firsts[i].at - m.procs[i].failedAt)
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
			m.log(f.Proc, trace.KFail, "", "value corruption begins")
		}
	default:
		if p.dead {
			return
		}
		p.sc.metrics.Failures++
		p.failedAt = p.k.Now()
		p.failSeg = m.segment
		p.failKey = p.k.CurrentKey()
		m.log(f.Proc, trace.KFail, "", f.Kind.String())
		p.die(f.Kind == faults.CrashAnnounced)
	}
}

// tracing reports whether an event log is attached; hot paths use it to
// skip building log arguments.
func (m *Machine) tracing() bool { return m.tlog != nil }
