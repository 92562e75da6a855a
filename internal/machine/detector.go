package machine

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/proto"
	"repro/internal/sim"
)

// detector is one processor's heartbeat failure detector. Processors are
// fail-silent (§1: a failed processor "will no longer transmit any valid
// messages"), so a neighbour's own periodic beat is the liveness evidence:
// beats are one-way, nothing answers them, and a neighbour silent for more
// than DefaultHeartbeatMisses periods is reported. It runs only inside the
// machine's epochs: between the host's quiet frame and its next wake nobody
// beats and no watcher judges. The contract is three clauses, stated per
// epoch, each pinned by tests: accuracy (no live neighbour is ever reported
// — TestDetectorAccuracy, TestDetectorAccuracyAcrossQuietGaps), completeness
// (a crashed neighbour is reported within DefaultHeartbeatMisses+1 periods
// and a link latency of the crash, or of the wake's arrival if it died in a
// gap — TestDetectorCompleteness, TestDetectorCompletenessInAGap) and cost
// (one message per directed neighbour pair per period inside an epoch, and n
// quiet plus n wake frames per gap — TestHeartbeatCostClosedForm,
// TestQuietGapCostClosedForm).
//
// Without acks (Config.acked) the detector is the only thing that reports a
// lost destination, so there it also watches across the dead: a processor
// that learns of a failure watches the processors it now reaches only
// through dead ones (proc.heal). One that dies with all its neighbours, or
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
// chain starts only once a stream into it stops (proc.silence wakes it) —
// an idle machine dispatches no event at all.
type detector struct {
	every     sim.Time       // the beat period
	limit     sim.Time       // silence longer than this is a failure
	neighbors []proto.ProcID // whom it watches; empty when the service is off
	in        []beatLink     // parallel to neighbors: each one's stream to this watcher
	// adopted are processors it watches across dead ones (proc.heal);
	// adoptedIn[i] is adopted[i]'s stream to this watcher.
	adopted   []proto.ProcID
	adoptedIn []*beatLink
	silent    []proto.ProcID // tick's result buffer, reused
}

// beatPhase is processor id's offset inside the heartbeat period: it beats at
// beatPhase + k·every, k ≥ 1, which spreads the machine's beats over the
// period instead of bunching them on one tick.
func beatPhase(id proto.ProcID, every sim.Time) sim.Time { return sim.Time(id) % every }

// never is a beatLink's until while its sender still beats.
const never = math.MaxInt64

// beatLink is one directed pair's heartbeat stream: the sender beats at
// phase + k·every for every k ≥ 1 that puts the beat at or after start (0 for
// a neighbour's stream, which flows from the outset; later for one proc.heal
// adopts) and inside an epoch, each beat lands flight ticks later, and the
// stream stops for good at until — the first due instant of its schedule the
// sender does not beat at (proc.dueBeat, once it dies or suspects the
// watcher), gap or not. The sender writes until once, from its own shard; a
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

// newDetector makes processor id watch neighbors, which each beat once per
// every ticks from time 0, a beat crossing hops(neighbour, id) links. A
// disabled service (every = 0) watches nobody.
func newDetector(id proto.ProcID, neighbors []proto.ProcID, every sim.Time, hops func(from, to proto.ProcID) int) detector {
	if every <= 0 {
		return detector{}
	}
	d := detector{
		every:     every,
		limit:     every * DefaultHeartbeatMisses,
		neighbors: neighbors,
		in:        make([]beatLink, len(neighbors)),
	}
	for i, nb := range neighbors {
		l := &d.in[i]
		l.phase, l.flight, l.senderFirst = beatPhase(nb, every), flightTime(hops(nb, id)), nb < id
		l.until.Store(never)
	}
	return d
}

// tick returns the neighbours silent past the limit, in neighbour order; a
// neighbour is reported at every tick it stays silent, and nobody in a gap
// between epochs. The slice is valid until the next tick.
func (d *detector) tick(now sim.Time, ep epochs) []proto.ProcID {
	open, awake := ep.openAt(now)
	if !awake {
		return nil
	}
	d.silent = d.silent[:0]
	for i, nb := range d.neighbors {
		if now-d.in[i].lastHeard(d.every, now, open) > d.limit {
			d.silent = append(d.silent, nb)
		}
	}
	for i, r := range d.adopted {
		if now-d.adoptedIn[i].lastHeard(d.every, now, open) > d.limit {
			d.silent = append(d.silent, r)
		}
	}
	return d.silent
}
