package machine

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Detector is how a processor learns first-hand that another died.
// Processors are fail-silent (§1: a failed processor "will no longer
// transmit any valid messages"), so a death is never told, only detected.
// proc calls the detector at two points: when it suspects a processor
// (declareFaulty) and when it dies itself (die); the detector calls back
// declareFaulty(q, false) on each processor that learns of q's death. The
// session tells it where the host's quiet and wake frames put an epoch
// boundary, and the machine asks it to file what it put on the wire when the
// books close. The machine runs the closed-form heartbeat schedule
// (heartbeats); tests install others through Machine.det.
type Detector interface {
	// suspected: p now believes q failed.
	suspected(p *proc, q proto.ProcID)
	// died: p crashed, announced or not.
	died(p *proc)
	// frame: an epoch closes or opens at the given instant, where the
	// host's quiet or wake frame lands. It runs at a window barrier.
	frame(at sim.Time)
	// count files into mt the messages the detector sent.
	count(mt *trace.Metrics)
}

// heartbeats is the machine's Detector: every processor's heartbeat failure
// detector, in closed form. A neighbour's own periodic beat is the liveness
// evidence: beats are one-way, nothing answers them, and a neighbour silent
// for more than DefaultHeartbeatMisses periods is reported. It runs only
// inside the machine's epochs: between the host's quiet frame and its next
// wake nobody beats and no watcher judges. The contract is three clauses,
// stated per epoch, each pinned by tests: accuracy (no live neighbour is
// ever reported — TestDetectorAccuracy, TestDetectorAccuracyAcrossQuietGaps),
// completeness (a crashed neighbour is reported within
// DefaultHeartbeatMisses+1 periods and a link latency of the crash, or of the
// wake's arrival if it died in a gap — TestDetectorCompleteness,
// TestDetectorCompletenessInAGap) and cost (one message per directed
// neighbour pair per period inside an epoch, and n quiet plus n wake frames
// per gap — TestHeartbeatCostClosedForm, TestQuietGapCostClosedForm).
//
// Without acks (Config.acked) the detector is the only thing that reports a
// lost destination, so there it also watches across the dead: a processor
// that learns of a failure watches the processors it now reaches only
// through dead ones (beater.heal). One that dies with all its neighbours, or
// after them, is still reported — TestDetectorWatchesAcrossTheDead. An
// adopted stream costs a beat per period from its adoption on; a machine
// with no failure adopts none, so the cost clause stands.
//
// A beat is never a kernel event. Its send time, flight and the moment its
// stream stops are all known, so the watcher evaluates each neighbour's
// stream in closed form at its own tick (beatLink.lastHeard), and the run's
// beats are counted in closed form when its books close (beatLink.sent). Nor
// does a watcher tick while every stream into it still flows: no live
// neighbour is ever reported, so such a tick would declare nobody. Its tick
// chain starts only once a stream into it stops (beater.silence wakes it) —
// an idle machine dispatches no event at all.
type heartbeats struct {
	m     *Machine
	every sim.Time // the beat period; 0 when the service is off
	limit sim.Time // silence longer than this is a failure
	// epochs are the detector's awake spans, built awake. The host's frames
	// extend them at a window barrier, so shards read them freely.
	epochs epochs
	at     []beater // at[i] is processor i's share
}

// beater is one processor's share of the schedule: its watch over the
// streams into it, its own streams out, and its tick chain.
type beater struct {
	h  *heartbeats
	p  *proc
	sc *shardCtx // p's shard, where its ticks run
	// in[i] is the stream to this watcher from its neighbour i (p.neighbors,
	// empty when the service is off); adoptedIn[i] is adopted[i]'s, a
	// processor it watches across dead ones (heal).
	in        []beatLink
	adopted   []proto.ProcID
	adoptedIn []*beatLink
	silent    []proto.ProcID // silentAt's result buffer, reused
	seen      []bool         // heal's visited set, reused
	// beats[i] is this processor's own stream to beatTo[i], which that
	// processor's watch reads: its neighbours, then those that watch it
	// across dead ones.
	beats  []*beatLink
	beatTo []proto.ProcID
	// ticking is set once a stream into this processor stopped and its tick
	// chain started (arm); nextBeat is then when the next tick is due.
	ticking  bool
	nextBeat sim.Time
	timer    sim.Timer
	// tickFn and armFn are tick and arm, bound once so that rescheduling a
	// tick or waking the chain does not allocate a closure.
	tickFn, armFn func()
}

// beatPhase is processor id's offset inside the heartbeat period: it beats at
// beatPhase + k·every, k ≥ 1, which spreads the machine's beats over the
// period instead of bunching them on one tick.
func beatPhase(id proto.ProcID, every sim.Time) sim.Time { return sim.Time(id) % every }

// never is a beatLink's until while its sender still beats.
const never = math.MaxInt64

// beatLink is one directed pair's heartbeat stream: the sender beats at
// phase + k·every for every k ≥ 1 that puts the beat at or after start (0 for
// a neighbour's stream, which flows from the outset; later for one heal
// adopts) and inside an epoch, each beat lands flight ticks later, and the
// stream stops for good at until — the first due instant of its schedule the
// sender does not beat at (dueBeat, once it dies or suspects the watcher),
// gap or not. The sender writes until once, from its own shard; a
// watcher on another shard only ever needs beats sent at least flight ≥ the
// lookahead horizon before its tick, which the window barrier has already
// published, so the atomic only keeps the race detector informed.
type beatLink struct {
	phase, flight sim.Time
	// senderFirst: the sender's id is below the watcher's, so a beat landing
	// at the watcher's tick time dispatches first (the kernel's (time, src,
	// seq) order) and counts as heard. (A tick in the watcher's first period
	// is a driver event that would dispatch before every beat, but there even
	// the seed lies within the limit, so the verdict is the same.)
	senderFirst bool
	start       sim.Time
	until       atomic.Int64
}

// first is the stream's first beat at or after from: the first instant of
// its schedule, phase + k·every with k ≥ 1, at or after both start and from.
func (l *beatLink) first(every, from sim.Time) sim.Time {
	t, from := l.phase+every, max(from, l.start)
	if from > t {
		t += (from - t + every - 1) / every * every
	}
	return t
}

// stop ends the stream at the beat due at t, unless it already ended, and
// reports whether it did.
func (l *beatLink) stop(t sim.Time) bool {
	if l.until.Load() != never {
		return false
	}
	l.until.Store(int64(t))
	return true
}

// sent counts the beats the stream put on the wire before end: those from
// the first on, sent inside an epoch and before min(until, end).
func (l *beatLink) sent(every, end sim.Time, ep epochs) int64 {
	var n int64
	for i := 0; i < len(ep); i += 2 {
		last := min(sim.Time(l.until.Load()), end) - 1
		if i+1 < len(ep) {
			last = min(last, ep[i+1]-1)
		}
		if first := l.first(every, ep[i]); last >= first {
			n += int64((last-first)/every) + 1
		}
	}
	return n
}

// lastHeard is when a watcher ticking at now, inside the epoch that opened
// at open, last heard the stream: the arrival of the latest beat of that
// epoch sent before until that lands before now (or at now, if the sender
// dispatches first), and one period before the epoch's first beat when there
// is none, since what refreshes a one-way detector is the neighbour's
// stagger, not the watcher's: seeded at 0, processor 251 of hypercube-256
// reaches its second tick (t = 501) before neighbour 249's first beat (sent
// at t = 499, heard at 505) and declares a live processor dead.
func (l *beatLink) lastHeard(every, now, open sim.Time) sim.Time {
	latest := now - l.flight // the last send time whose beat has landed
	if !l.senderFirst {
		latest--
	}
	latest = min(latest, sim.Time(l.until.Load())-1)
	if first := l.first(every, open); latest < first {
		return first - every
	}
	return l.phase + (latest-l.phase)/every*every + l.flight
}

// epochs are the detector's awake spans, as alternating opens and closes:
// [ep[0], ep[1]), [ep[2], ep[3]), …, the last open while it has no close.
// The host's quiet frame closes one and its wake frame opens the next; both
// cross one hop to every processor, so each boundary is one instant.
type epochs []sim.Time

// openAt is when the epoch holding t opened, and false when t lies in a gap.
func (ep epochs) openAt(t sim.Time) (sim.Time, bool) {
	i, _ := slices.BinarySearch(ep, t+1) // the boundaries at or before t
	if i%2 == 0 {
		return 0, false
	}
	return ep[i-1], true
}

// newHeartbeats starts every processor's watch over its neighbours, which
// each beat once per period from time 0, a beat crossing the hops between
// them. Topologies are undirected with sorted neighbour lists, so q's watch
// on neighbour p sits at q's index in p's list. A disabled service (a period
// of 0) watches nobody.
func newHeartbeats(m *Machine) *heartbeats {
	every := m.cfg.HeartbeatEvery
	h := &heartbeats{m: m, every: every, limit: every * DefaultHeartbeatMisses, epochs: epochs{0}, at: make([]beater, m.n)}
	for i, p := range m.procs {
		b := &h.at[i]
		b.h, b.p, b.sc = h, p, m.shardOf(p)
		b.tickFn, b.armFn = b.tick, b.arm
		if every <= 0 {
			continue
		}
		b.beatTo = slices.Clip(p.neighbors)
		b.in = make([]beatLink, len(p.neighbors))
		b.beats = make([]*beatLink, len(p.neighbors))
		for j, nb := range p.neighbors {
			h.link(&b.in[j], nb, p.id, 0)
		}
	}
	for i := range h.at {
		q := &h.at[i]
		for j := range q.in {
			nb := q.p.neighbors[j]
			b := &h.at[nb]
			k, ok := slices.BinarySearch(b.p.neighbors, q.p.id)
			if !ok {
				panic(fmt.Sprintf("machine: %d neighbours %d but not back", q.p.id, nb))
			}
			b.beats[k] = &q.in[j]
		}
	}
	return h
}

// link makes l the stream from processor from to watcher to, flowing from
// start on.
func (h *heartbeats) link(l *beatLink, from, to proto.ProcID, start sim.Time) {
	l.phase, l.flight, l.senderFirst, l.start = beatPhase(from, h.every), flightTime(h.m.hops(from, to)), from < to, start
	l.until.Store(never)
}

// suspected ends p's stream to q, since no beat goes to a watcher believed
// dead, and without acks heals p's watch over the dead.
func (h *heartbeats) suspected(p *proc, q proto.ProcID) {
	if h.every <= 0 || p.isHost {
		return
	}
	b := &h.at[p.id]
	if i := slices.Index(b.beatTo, q); i >= 0 {
		b.silence(i, b.dueBeat())
	}
	if !p.acked {
		b.heal()
	}
}

// died ends every stream of p at its first beat not yet sent, and its tick
// chain.
func (h *heartbeats) died(p *proc) {
	if h.every <= 0 {
		return
	}
	b := &h.at[p.id]
	due := b.dueBeat()
	for i := range b.beats {
		b.silence(i, due)
	}
	b.timer.Stop()
}

func (h *heartbeats) frame(at sim.Time) { h.epochs = append(h.epochs, at) }

// count files the run's heartbeats, which no event sends: p's beat k ≥ 1 to
// a watcher went on the wire at beatPhase(p) + k·every exactly when that
// instant lies inside an epoch and before both the stream's until and the
// covered bound — when a tick due then would have run. Counts, bytes and
// hops advance together, as in proc.send.
func (h *heartbeats) count(mt *trace.Metrics) {
	end := h.m.kern.Covered()
	for i := range h.at {
		b := &h.at[i]
		for j, l := range b.beats {
			n := l.sent(h.every, end, h.epochs)
			beat := proto.Msg{Type: proto.MsgHeartbeat, From: b.p.id, To: b.beatTo[j]}
			mt.MsgHeartbeat += n
			mt.BytesOnWire += n * int64(beat.EncodedSize())
			mt.HopsOnWire += n * int64(h.m.hops(b.p.id, beat.To))
		}
	}
}

// tick declares the processors the watch reports silent. Beats are not its
// business: the run counts them in closed form (count), and suspected ends
// the stream to a processor believed dead.
func (b *beater) tick() {
	p := b.p
	if p.dead {
		return
	}
	for _, q := range b.silentAt(b.sc.Now()) {
		p.declareFaulty(q, false)
	}
	b.nextBeat += b.h.every
	b.timer = b.sc.At(b.nextBeat, b.tickFn)
}

// silentAt returns the processors watched whose streams have been silent
// past the limit at now, neighbours first, in watch order; a processor is
// reported at every tick it stays silent, and nobody in a gap between
// epochs. The slice is valid until the next call.
func (b *beater) silentAt(now sim.Time) []proto.ProcID {
	h := b.h
	open, awake := h.epochs.openAt(now)
	if !awake {
		return nil
	}
	b.silent = b.silent[:0]
	for i, nb := range b.p.neighbors {
		if now-b.in[i].lastHeard(h.every, now, open) > h.limit {
			b.silent = append(b.silent, nb)
		}
	}
	for i, r := range b.adopted {
		if now-b.adoptedIn[i].lastHeard(h.every, now, open) > h.limit {
			b.silent = append(b.silent, r)
		}
	}
	return b.silent
}

// arm starts the tick chain at its first tick the ensemble has not covered.
// It runs as a Wake, at the window barrier after a stream into the processor
// stopped. Until then every tick was a no-op: no stream into it had stopped,
// and the detector never reports a live neighbour. Nor can arming late miss
// a detection: a stream that stops at until was last heard no earlier than
// until − every, so it is reported only at a tick past until + every, while
// the barrier comes at most one lookahead horizon (one hop, < every) after
// the stop.
func (b *beater) arm() {
	if b.p.dead || b.ticking {
		return
	}
	b.nextBeat = b.dueBeat()
	b.ticking = true
	b.timer = b.sc.At(b.nextBeat, b.tickFn)
}

// dueBeat is when the processor's first beat not yet sent is due: the next
// tick of a running chain, and otherwise the first instant of its schedule
// (beatPhase + k·every, k ≥ 1) whose tick would not have run yet — not
// before the covered bound, and not now if the tick due now would already
// have dispatched by the kernel's (time, source, sequence) order. That tick
// is a driver event scheduled when the stream started for k = 1, and the
// processor's own, scheduled a period earlier, for k ≥ 2.
func (b *beater) dueBeat() sim.Time {
	if b.ticking {
		return b.nextBeat
	}
	p, every := b.p, b.h.every
	first := beatPhase(p.id, every) + every
	now := b.sc.Now()
	t := first
	if from := max(now, b.h.m.kern.Covered()); from > first {
		t += (from - first + every - 1) / every * every
	}
	if t == now {
		cur := b.sc.CurrentKey()
		var ticked bool
		if t == first {
			ticked = cur.Src != sim.DriverSrc || cur.Seq >= b.h.m.session.startSeq
		} else {
			// Sources order other events against the tick. The processor's
			// own events that declare are reply timers, which waited more
			// than a period while it is below DefaultAckTimeout and
			// DefaultResultTimeout: scheduled before this tick was, they
			// dispatch first. At a longer period one that lands on a beat
			// miscounts that beat.
			ticked = cur.Src > int32(p.idx)
		}
		if ticked {
			t += every
		}
	}
	return t
}

// silence ends the stream to watcher i at the beat due at due and wakes
// that watcher's chain, which until then had nothing to detect.
func (b *beater) silence(i int, due sim.Time) {
	if b.beats[i].stop(due) {
		q := &b.h.at[b.beatTo[i]]
		b.sc.Wake(int32(q.p.idx), q.armFn)
	}
}

// heal closes the watch over the dead. A neighbour's beats are what reports
// its failure, so a processor whose neighbours all died fails unnoticed, and
// so does one inside a dead region; without acks nothing else would report
// the work it holds as lost. So p watches every processor it believes live
// that it reaches through processors it believes dead — its neighbours in
// the topology with the dead contracted — and that one beats to p from p's
// next tick, the moment p first needs it (a dead one never beats, and p
// reports it). Every processor that learns of a failure heals, so the watch
// is mutual, and it chains: a region that died at once is reported member by
// member from its live edge inwards. p's own tick chain starts now, since
// the processor it now watches may already be dead.
func (b *beater) heal() {
	p, h := b.p, b.h
	b.seen = append(b.seen[:0], make([]bool, p.n)...) // zeroed, in place
	seen := b.seen
	seen[p.id] = true
	adopted := false
	for next := p.neighbors; len(next) > 0; {
		var beyond []proto.ProcID
		for _, r := range next {
			if seen[r] {
				continue
			}
			seen[r] = true
			if p.faulty[r] {
				beyond = append(beyond, h.at[r].p.neighbors...)
				continue
			}
			if slices.Contains(p.neighbors, r) || slices.Contains(b.adopted, r) {
				continue
			}
			l := new(beatLink)
			h.link(l, r, p.id, b.sc.Now()+1)
			b.adopted = append(b.adopted, r)
			b.adoptedIn = append(b.adoptedIn, l)
			o, watcher := &h.at[r], p.id
			b.sc.Wake(int32(o.p.idx), func() {
				if o.p.dead {
					l.stop(l.start)
					return
				}
				o.beats = append(o.beats, l)
				o.beatTo = append(o.beatTo, watcher)
			})
			adopted = true
		}
		next = beyond
	}
	if adopted && !b.ticking {
		b.sc.Wake(int32(p.idx), b.armFn)
	}
}
