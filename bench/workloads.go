package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Fixed by the run protocol: every workload runs the bytecode evaluator on
// the single-shard reference kernel, and every request carries a budget so a
// wedge counts as a failure instead of hanging the run. The budget is in
// virtual ticks; live and net map a tick to 2µs, so it is 20 s of wall there.
const (
	evalName    = "compiled"
	simDeadline = 10_000_000
)

var (
	// denseSpecs are the one-shot cells of sim-dense: deep call trees with
	// hundreds of thousands of reduction steps each.
	denseSpecs = []string{"fib:18", "binom:16,8", "sumrange:20000", "tak:12,6,2"}
	// streamMix is the request mix every stream workload draws from.
	streamMix = []string{"fib:11", "fib:12", "tree:2,4", "tak:8,4,2"}
)

// The five workloads, in reporting order.
var workloadNames = []string{"sim-dense", "sim-sparse", "sim-recovery", "live-stream", "net-stream"}

// instance is one workload set up for one seed: inputs generated, programs
// built and compiled. pass runs it once.
type instance struct {
	backend string
	specs   []string // distinct workload specs, for the lang.refeval probe
	// faultFree marks workloads whose passes must record no failure
	// detection: a detection without a fault is the simulator suspecting a
	// live processor.
	faultFree bool
	// calibThreads is how many threads a calibration reading beside this
	// workload's passes uses (see calibrate).
	calibThreads int
	// tweak, when set, edits every core.Config before use — the traced run's
	// Trace:true and Shards:2 variants.
	tweak func(*core.Config)
	run   func(in *instance, p *pass) error
	// twin, for the wall-clock workloads, renders the workload on the
	// simulator so the sim_* columns exist on every row (see simTwin).
	twin func(in *instance) (*pass, error)
}

func (in *instance) cfg(c core.Config) core.Config {
	c.Eval, c.Shards, c.Deadline = evalName, 1, simDeadline
	if in.tweak != nil {
		in.tweak(&c)
	}
	return c
}

// pass is everything one pass of a workload measured. Counters a workload
// does not produce stay zero.
type pass struct {
	// Wall and CPU are the sums over Units. SelfCPU is this process's share
	// of CPU (the rest is reaped children: the net backend's nodes).
	Wall, CPU, SelfCPU time.Duration
	// Units are the independently timed pieces of the pass, the same pieces
	// in the same order in every pass: a cell, a stream, or the one session
	// of a closed loop.
	Units []unitTime
	// Calib are the reference-loop readings taken at both ends of the pass
	// and between units; their time is in none of the above.
	Calib        []reading
	lastCalib    time.Time
	calibThreads int
	// tr and root are the pass's tracer (nil when untraced) and root span.
	tr   *tracer
	root int

	Attempted, Failed int
	Errs              []string  // first few failure texts
	LatMS             []float64 // wall latency of each verified request, ascending after seal

	Msgs, Bytes int64
	SimSpan     int64   // Σ stream Span / cell Makespan, vticks
	SimLat      []int64 // QueuedFor+Makespan per completed request, ascending after seal
	Sim         trace.Metrics
	Events      uint64
	ByScheme    map[string]*trace.Metrics

	QueueWaitP99  int64
	QueueDepthMax int

	// Wall-clock backends.
	Reissued, Drained      int64
	Open, Close, KillStall time.Duration
	ChildRSSMB             float64
}

func (p *pass) verified() int { return p.Attempted - p.Failed }

func (p *pass) fail(format string, args ...any) {
	p.Failed++
	if len(p.Errs) < 5 {
		p.Errs = append(p.Errs, fmt.Sprintf(format, args...))
	}
}

// unitTime is the host cost of one unit of a pass.
type unitTime struct{ Wall, CPU time.Duration }

// unit runs fn as one timed unit of the pass.
func (p *pass) unit(fn func() error) error {
	u0, t0 := readUsage(), time.Now()
	err := fn()
	u1 := readUsage()
	p.addUnit(time.Since(t0), u1.cpu()-u0.cpu(), u1.self-u0.self)
	return err
}

func (p *pass) addUnit(wall, cpu, self time.Duration) {
	p.Units = append(p.Units, unitTime{wall, cpu})
	p.Wall += wall
	p.CPU += cpu
	p.SelfCPU += self
	if time.Since(p.lastCalib) >= calibEvery {
		p.read()
	}
}

// read takes one reading of the reference loop.
func (p *pass) read() {
	sp := p.tr.start("bench.calibrate", p.root, -1)
	p.Calib = append(p.Calib, calibrate(p.calibThreads))
	p.tr.end(sp)
	p.lastCalib = time.Now()
}

// calibTime is the time the pass spent on readings.
func (p *pass) calibTime() time.Duration {
	var d time.Duration
	for _, r := range p.Calib {
		d += r.wall
	}
	return d
}

func (p *pass) seal() {
	slices.Sort(p.LatMS)
	slices.Sort(p.SimLat)
}

// exact is the part of a simulated pass that must repeat bit for bit.
type exact struct {
	Attempted, Failed      int
	Msgs, Bytes, SimSpan   int64
	SimLatP50, SimLatP99   int64
	Events                 uint64
	Sim                    trace.Metrics
	QueueWaitP99, QueueMax int64
}

func (p *pass) exact() exact {
	return exact{p.Attempted, p.Failed, p.Msgs, p.Bytes, p.SimSpan,
		percentile(p.SimLat, 50), percentile(p.SimLat, 99), p.Events, p.Sim,
		p.QueueWaitP99, int64(p.QueueDepthMax)}
}

// buildWorkloads builds one fresh program per distinct spec and compiles it:
// the part of set-up a program or evaluator change moves.
func buildWorkloads(specs []string) (map[string]core.Workload, error) {
	ev, err := lang.EvaluatorByName(evalName)
	if err != nil {
		return nil, err
	}
	out := map[string]core.Workload{}
	for _, s := range specs {
		if _, ok := out[s]; ok {
			continue
		}
		w, err := core.StandardWorkload(s)
		if err != nil {
			return nil, err
		}
		if _, err := ev.Compile(w.Program); err != nil {
			return nil, fmt.Errorf("compile %s: %w", s, err)
		}
		out[s] = w
	}
	return out, nil
}

// requests is n requests cycling through the mix, in an order drawn from
// the seed: the multiset (and so the total work) is the same for every seed.
func requests(ws map[string]core.Workload, n int, seed int64) []core.Workload {
	out := make([]core.Workload, n)
	for i := range out {
		out[i] = ws[streamMix[i%len(streamMix)]]
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// newInstance generates the named workload's inputs from the seed.
func newInstance(name string, seed int64) (*instance, error) {
	switch name {
	case "sim-dense":
		return newSimDense(seed)
	case "sim-sparse":
		return newSimSparse(seed)
	case "sim-recovery":
		return newSimRecovery(seed)
	case "live-stream":
		return newWallStream("live", 8, 750, seed)
	case "net-stream":
		return newWallStream("net", 4, 75, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// --- sim-dense ---

type denseCell struct {
	cfg core.Config
	w   core.Workload
}

func newSimDense(seed int64) (*instance, error) {
	ws, err := buildWorkloads(denseSpecs)
	if err != nil {
		return nil, err
	}
	var cells []denseCell
	for _, topo := range []string{"mesh", "hypercube"} {
		for _, spec := range denseSpecs {
			cells = append(cells, denseCell{
				cfg: core.Config{Procs: 64, Topology: topo, Recovery: "rollback", Seed: subSeed(seed, len(cells))},
				w:   ws[spec],
			})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return &instance{backend: "sim", specs: denseSpecs, faultFree: true, calibThreads: 1,
		run: func(in *instance, p *pass) error {
			for i, c := range cells {
				_ = p.unit(func() error {
					p.cell(p.tr, p.root, i, in.cfg(c.cfg), c.w)
					return nil
				})
			}
			return nil
		}}, nil
}

// cell runs one one-shot request through core.Config.Verify.
func (p *pass) cell(tr *tracer, parent, req int, cfg core.Config, w core.Workload) {
	p.Attempted++
	t0 := time.Now()
	sp := tr.start("core.verify_cell", parent, req)
	rep, err := cfg.Verify(w, nil)
	tr.end(sp)
	if rep != nil && rep.Sim != nil {
		p.Msgs += rep.Messages
		p.Bytes += rep.MsgBytes
		p.Sim.Add(&rep.Sim.Metrics)
		p.Events += rep.Sim.Events
	}
	if err != nil {
		p.fail("cell %s on %s-%d: %v", w.Spec, cfg.Topology, cfg.Procs, err)
		return
	}
	p.LatMS = append(p.LatMS, msSince(t0))
	p.SimSpan += rep.Makespan
	p.SimLat = append(p.SimLat, rep.Makespan)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// --- sim-sparse and sim-recovery: open-loop streams on the simulator ---

// simStream is one stream on one simulated core.Cluster.
type simStream struct {
	cfg  core.Config
	reqs []core.Workload
	plan *faults.Plan
	// planAfter is how many replies are awaited before the plan is injected.
	// 0 schedules it on the virtual clock up front, as an open-loop fault
	// plan wants; later, a fault timed in the past fires at once, which is
	// how a closed loop kills "when request N is reached".
	planAfter int
	// serviceOnly leaves the admission-queue wait out of the latency. An
	// open-loop request's latency runs from its offer; a closed-loop client
	// offers its next request only when the previous one is answered, so the
	// time its batch-submitted twin spends queued is an artefact.
	serviceOnly bool
}

func streamInstance(faultFree bool, streams []simStream) *instance {
	return &instance{backend: "sim", specs: streamMix, faultFree: faultFree, calibThreads: 1,
		run: func(in *instance, p *pass) error {
			for i, s := range streams {
				s.cfg = in.cfg(s.cfg)
				err := p.unit(func() error {
					_, err := p.stream(p.tr, p.root, i*len(s.reqs), s)
					return err
				})
				if err != nil {
					return fmt.Errorf("stream %d (%s-%d %s): %w", i, s.cfg.Topology, s.cfg.Procs, s.cfg.Recovery, err)
				}
			}
			return nil
		}}
}

func newSimSparse(seed int64) (*instance, error) {
	ws, err := buildWorkloads(streamMix)
	if err != nil {
		return nil, err
	}
	var streams []simStream
	for i, topo := range []string{"torus", "hypercube", "regular"} {
		s := subSeed(seed, i)
		streams = append(streams, simStream{
			cfg: core.Config{Procs: 64, Topology: topo, Recovery: "rollback", Seed: s,
				Arrival: "arrive:uniform:4000"},
			reqs: requests(ws, 64, s),
		})
	}
	return streamInstance(true, streams), nil
}

// sim-recovery sizing: each (topology, fault shape, scheme) is served by
// recoveryDraws short streams with independent machine seeds, arrivals and
// victims. One long stream per combination made the pooled p99 the property
// of whichever single draw hurt most, and it swung 3× from seed to seed;
// four draws of 24 requests hold it to a few per cent for the same work.
const (
	recoveryDraws    = 4
	recoveryRequests = 24
)

func newSimRecovery(seed int64) (*instance, error) {
	ws, err := buildWorkloads(streamMix)
	if err != nil {
		return nil, err
	}
	var streams []simStream
	for ti, kind := range []string{"torus", "hypercube"} {
		const procs = 64
		topo, err := topology.ByName(kind, procs)
		if err != nil {
			return nil, err
		}
		for d := 0; d < recoveryDraws; d++ {
			base := 2 * (ti*recoveryDraws + d)
			burstSeed, burst := survivable(topo, subSeed(seed, base), func(s int64) *faults.Plan {
				return faults.Burst(procs, procs/5, 3000, faults.CrashSilent, s)
			})
			cascadeSeed, cascade := survivable(topo, subSeed(seed, base+1), func(s int64) *faults.Plan {
				origin := proto.ProcID(rand.New(rand.NewSource(s)).Intn(procs))
				return faults.Cascade(topo, origin, 2000, 1000, 2, 0.5, faults.CrashSilent, s)
			})
			// The three schemes face the same machine seed, arrivals and
			// faults, so their rows differ by the scheme alone.
			for _, scheme := range []string{"rollback", "splice", "incremental"} {
				for _, pl := range []struct {
					seed int64
					plan *faults.Plan
				}{{burstSeed, burst}, {cascadeSeed, cascade}} {
					streams = append(streams, simStream{
						cfg: core.Config{Procs: procs, Topology: kind, Recovery: scheme, Seed: pl.seed,
							Arrival: "arrive:poisson:0.004", MaxInFlight: 8, Admission: "queue"},
						reqs: requests(ws, recoveryRequests, pl.seed),
						plan: pl.plan,
					})
				}
			}
		}
	}
	return streamInstance(false, streams), nil
}

// survivable draws a fault plan whose survivors stay connected, trying
// seeds derived from seed in order, and returns the seed that produced it.
// A live processor cut off from the rest is never declared dead — nobody
// adjacent is left to miss its heartbeats — so a request with a task on it
// cannot finish under any scheme: such a plan measures the deadline, not
// recovery.
func survivable(topo topology.Topology, seed int64, draw func(int64) *faults.Plan) (int64, *faults.Plan) {
	for try := 0; ; try++ {
		s := subSeed(seed, try)
		if plan := draw(s); survivorsConnected(topo, plan) {
			return s, plan
		}
	}
}

// survivorsConnected reports whether the processors the plan leaves alive
// form one connected component of the topology.
func survivorsConnected(topo topology.Topology, plan *faults.Plan) bool {
	dead := make([]bool, topo.Size())
	alive := topo.Size()
	for _, q := range plan.Procs() {
		dead[q] = true
		alive--
	}
	var frontier []topology.NodeID
	for i := range dead {
		if !dead[i] {
			frontier = append(frontier, topology.NodeID(i))
			dead[i] = true // visited
			break
		}
	}
	reached := len(frontier)
	for len(frontier) > 0 {
		u := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, v := range topo.Neighbors(u) {
			if !dead[v] {
				dead[v] = true
				reached++
				frontier = append(frontier, v)
			}
		}
	}
	return reached == alive
}

// stream serves s.reqs on one simulated core.Cluster: submit everything (the
// arrival process or the admission bound spaces the requests on the virtual
// clock), inject the plan, then wait for and verify each reply in order.
// reqBase numbers the spans.
func (p *pass) stream(tr *tracer, parent, reqBase int, s simStream) (*core.ServiceReport, error) {
	root := tr.start("stream", parent, -1)
	defer tr.end(root)
	sp := tr.start("core.open", root, -1)
	cl, err := core.OpenOn("sim", s.cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer cl.Close() // idempotent: the report below comes from the same call
	tickets := make([]*core.Ticket, len(s.reqs))
	submitted := make([]time.Time, len(s.reqs))
	for i, w := range s.reqs {
		submitted[i] = time.Now()
		sp := tr.start("core.submit", root, reqBase+i)
		tickets[i] = cl.Submit(w)
		tr.end(sp)
	}
	for i, tk := range tickets {
		if s.plan != nil && i == s.planAfter {
			sp := tr.start("core.inject", root, -1)
			err := cl.Inject(s.plan)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		p.await(tr, root, reqBase+i, tk, submitted[i])
	}
	sp = tr.start("core.close", root, -1)
	sr, err := cl.Close()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	p.Msgs += sr.Messages
	p.Bytes += sr.MsgBytes
	p.SimSpan += sr.Span
	for _, rep := range sr.PerRequest {
		if rep.Completed && rep.Err == nil {
			lat := rep.Makespan
			if !s.serviceOnly {
				lat += rep.QueuedFor
			}
			p.SimLat = append(p.SimLat, lat)
		}
	}
	m := &sr.Totals.Sim.Metrics
	p.Sim.Add(m)
	p.Events += sr.Totals.Sim.Events
	if p.ByScheme == nil {
		p.ByScheme = map[string]*trace.Metrics{}
	}
	if p.ByScheme[s.cfg.Recovery] == nil {
		p.ByScheme[s.cfg.Recovery] = &trace.Metrics{}
	}
	p.ByScheme[s.cfg.Recovery].Add(m)
	p.QueueWaitP99 = max(p.QueueWaitP99, sr.QueueWaitP99)
	p.QueueDepthMax = max(p.QueueDepthMax, sr.QueueDepthMax)
	return sr, nil
}

// await waits for one reply and verifies it against lang.RefEval; a
// time-out, a shed offer, an error or a wrong answer is a failed request.
func (p *pass) await(tr *tracer, parent, req int, tk *core.Ticket, submitted time.Time) (done time.Time, ok bool) {
	sp := tr.start("core.wait", parent, req)
	_, _ = tk.Wait() // Verify below returns the same outcome
	tr.end(sp)
	sp = tr.start("core.verify", parent, req)
	_, err := tk.Verify()
	tr.end(sp)
	done = time.Now()
	p.Attempted++
	if err != nil {
		p.fail("request %d (%s): %v", req, tk.Workload().Spec, err)
		return done, false
	}
	p.LatMS = append(p.LatMS, float64(done.Sub(submitted).Nanoseconds())/1e6)
	return done, true
}

// --- live-stream and net-stream: closed loops on the wall-clock backends ---

// The simulator twin of a closed-loop workload replays twinDraws independent
// streams of twinRequests requests each and pools them: one stream's p99 is
// the one or two requests its kill stalled.
const (
	twinDraws    = 4
	twinRequests = 200
)

func newWallStream(backend string, procs, perClient int, seed int64) (*instance, error) {
	ws, err := buildWorkloads(streamMix)
	if err != nil {
		return nil, err
	}
	const clients = 2 // = nproc on the sandbox; the load generator must not outnumber the cores
	all := requests(ws, clients*perClient, seed)
	victim := proto.ProcID(rand.New(rand.NewSource(seed)).Intn(procs))
	cfg := core.Config{Procs: procs, Recovery: "rollback", Seed: subSeed(seed, 0)}
	return &instance{backend: backend, specs: streamMix, calibThreads: clients,
		run: func(in *instance, p *pass) error {
			return p.closedLoop(p.tr, p.root, backend, in.cfg(cfg), all, clients, victim)
		},
		twin: func(in *instance) (*pass, error) {
			return simTwin(in.cfg(cfg), ws, min(twinRequests, len(all)), clients, seed)
		}}, nil
}

// closedLoop opens one session and drives it from `clients` goroutines, each
// submitting its next request when its previous reply has been verified.
// The client that reaches the middle of its list first kills the victim
// (a fault scheduled in the past fires at once). Open…Close is inside the
// CPU window so the net backend's reaped children are counted; the wall
// window is first submit → last verified reply.
func (p *pass) closedLoop(tr *tracer, parent int, backend string, cfg core.Config, reqs []core.Workload, clients int, victim proto.ProcID) error {
	u0 := readUsage()
	t := time.Now()
	sp := tr.start("core.open", parent, -1)
	cl, err := core.OpenOn(backend, cfg)
	tr.end(sp)
	p.Open = time.Since(t)
	if err != nil {
		return err
	}
	defer cl.Close() // reaps every node process on any path out; idempotent

	type served struct {
		start, done time.Time
		ok          bool
	}
	per := len(reqs) / clients
	log := make([]served, len(reqs))
	var (
		wg       sync.WaitGroup
		killOnce sync.Once // killAt and killErr are read after wg.Wait
		killAt   time.Time
		killErr  error
	)
	local := make([]pass, clients)
	first := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lp := &local[c]
			for i := 0; i < per; i++ {
				if i == per/2 {
					killOnce.Do(func() {
						sp := tr.start("core.inject", parent, -1)
						killErr = cl.Inject(faults.Crash(victim, 0, false))
						tr.end(sp)
						killAt = time.Now()
					})
				}
				req := c*per + i
				start := time.Now()
				sp := tr.start("core.submit", parent, req)
				tk := cl.Submit(reqs[req])
				tr.end(sp)
				done, ok := lp.await(tr, parent, req, tk, start)
				log[req] = served{start, done, ok}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(first)
	t = time.Now()
	sp = tr.start("core.close", parent, -1)
	sr, err := cl.Close()
	tr.end(sp)
	p.Close = time.Since(t)
	if err != nil {
		return err
	}
	u1 := readUsage()
	p.addUnit(wall, u1.cpu()-u0.cpu(), u1.self-u0.self)
	p.ChildRSSMB = u1.childRSSMB
	for i := range local {
		p.Attempted += local[i].Attempted
		p.Failed += local[i].Failed
		p.Errs = append(p.Errs, local[i].Errs...)
		p.LatMS = append(p.LatMS, local[i].LatMS...)
	}
	if killErr != nil {
		return fmt.Errorf("inject kill of node %d: %w", victim, killErr)
	}
	if sr.Failed+sr.Shed > 0 && p.Failed == 0 {
		p.fail("service report counts %d failed, %d shed, the clients saw none", sr.Failed, sr.Shed)
	}
	p.Msgs, p.Bytes, p.Reissued, p.Drained = sr.Messages, sr.MsgBytes, sr.Reissued, sr.Drained
	// The kill stall: the worst latency among requests in flight at the kill.
	for _, s := range log {
		if s.ok && !s.start.After(killAt) && !s.done.Before(killAt) {
			p.KillStall = max(p.KillStall, s.done.Sub(s.start))
		}
	}
	return nil
}

// simTwin is the simulator's rendition of a closed-loop workload, the source
// of its sim_* columns: the same mix on a complete graph of the same size
// (the live backends' interconnect), MaxInFlight = clients with queue
// admission — exactly "each completion admits the next" — and one silent
// crash when half the replies are in.
func simTwin(cfg core.Config, ws map[string]core.Workload, n, clients int, seed int64) (*pass, error) {
	cfg.Topology, cfg.MaxInFlight, cfg.Admission = "complete", clients, "queue"
	var p pass
	for d := 0; d < twinDraws; d++ {
		cfg.Seed = subSeed(seed, d)
		victim := proto.ProcID(rand.New(rand.NewSource(cfg.Seed)).Intn(cfg.Procs))
		// The simulator admits a batch in its canonical order (by spec), so
		// a list sorted that way is awaited in the order it is served and
		// "half the replies" is the middle of the stream.
		reqs := requests(ws, n, cfg.Seed)
		slices.SortStableFunc(reqs, func(a, b core.Workload) int { return strings.Compare(a.Spec, b.Spec) })
		_, err := p.stream(nil, 0, 0, simStream{cfg: cfg, reqs: reqs,
			plan: faults.Crash(victim, 0, false), planAfter: n / 2, serviceOnly: true})
		if err != nil {
			return nil, err
		}
	}
	p.seal()
	return &p, nil
}
