package machine

import (
	"math"
	"sync/atomic"

	"repro/internal/proto"
	"repro/internal/sim"
)

// detector is one processor's heartbeat failure detector. Processors are
// fail-silent (§1: a failed processor "will no longer transmit any valid
// messages"), so a neighbour's own periodic beat is the liveness evidence:
// beats are one-way, nothing answers them, and a neighbour silent for more
// than DefaultHeartbeatMisses periods is reported. The contract is three
// clauses, each pinned by a test: accuracy (no live neighbour is ever
// reported — TestDetectorAccuracy), completeness (a crashed neighbour is
// reported within DefaultHeartbeatMisses+1 periods and a link latency of the
// crash — TestDetectorCompleteness) and cost (one message per directed
// neighbour pair per period — TestHeartbeatCostClosedForm).
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
	silent    []proto.ProcID // tick's result buffer, reused
}

// beatPhase is processor id's offset inside the heartbeat period: it beats at
// beatPhase + k·every, k ≥ 1, which spreads the machine's beats over the
// period instead of bunching them on one tick.
func beatPhase(id proto.ProcID, every sim.Time) sim.Time { return sim.Time(id) % every }

// never is a beatLink's until while its sender still beats.
const never = math.MaxInt64

// beatLink is one directed neighbour pair's heartbeat stream: the sender
// beats at phase + k·every, k ≥ 1, each beat lands flight ticks later, and
// the stream stops for good at until — the first due beat the sender does
// not send (proc.dueBeat, once it dies or suspects the watcher). The sender
// writes until once, from its own shard; a watcher on another shard only
// ever needs beats sent at least flight ≥ the lookahead horizon before its
// tick, which the window barrier has already published, so the atomic only
// keeps the race detector informed.
type beatLink struct {
	phase, flight sim.Time
	// senderFirst: the sender's id is below the watcher's, so a beat landing
	// at the watcher's tick time dispatches first (the kernel's (time, src,
	// seq) order) and counts as heard. (A tick in the watcher's first period
	// is a driver event that would dispatch before every beat, but there even
	// the seed lies within the limit, so the verdict is the same.)
	senderFirst bool
	until       atomic.Int64
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

// sent counts the beats the stream put on the wire before end: those k ≥ 1
// sent at phase + k·every < min(until, end).
func (l *beatLink) sent(every, end sim.Time) int64 {
	last := min(sim.Time(l.until.Load()), end) - 1 - l.phase
	if last < every {
		return 0
	}
	return int64(last / every)
}

// lastHeard is when a watcher ticking at now last heard the stream: the
// arrival of the latest beat k ≥ 1 sent before until that lands before now
// (or at now, if the sender dispatches first), and the phase when there is
// none — one period before the first real beat, since what refreshes a
// one-way detector is the neighbour's stagger, not the watcher's: seeded at
// 0, processor 251 of hypercube-256 reaches its second tick (t = 501) before
// neighbour 249's first beat (sent at t = 499, heard at 505) and declares a
// live processor dead.
func (l *beatLink) lastHeard(every, now sim.Time) sim.Time {
	latest := now - l.flight // the last send time whose beat has landed
	if !l.senderFirst {
		latest--
	}
	latest = min(latest, sim.Time(l.until.Load())-1)
	if latest-l.phase < every {
		return l.phase
	}
	return l.phase + (latest-l.phase)/every*every + l.flight
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
// neighbour is reported at every tick it stays silent. The slice is valid
// until the next tick.
func (d *detector) tick(now sim.Time) []proto.ProcID {
	d.silent = d.silent[:0]
	for i, nb := range d.neighbors {
		if now-d.in[i].lastHeard(d.every, now) > d.limit {
			d.silent = append(d.silent, nb)
		}
	}
	return d.silent
}
