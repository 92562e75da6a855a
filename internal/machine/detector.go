package machine

import (
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
type detector struct {
	limit     sim.Time       // silence longer than this is a failure
	neighbors []proto.ProcID // whom it watches; empty when the service is off
	last      []sim.Time     // by ProcID: when the neighbour was last heard
	silent    []proto.ProcID // tick's result buffer, reused
}

// beatPhase is processor id's offset inside the heartbeat period: it beats at
// beatPhase + k·every, k ≥ 1, which spreads the machine's beats over the
// period instead of bunching them on one tick.
func beatPhase(id proto.ProcID, every sim.Time) sim.Time { return sim.Time(id) % every }

// newDetector watches neighbors, among n processors that each beat once per
// every ticks from time 0. Each neighbour starts as if heard at its own
// phase — one period before its first real beat — because what refreshes a
// one-way detector is the neighbour's stagger, not the watcher's: seeded at
// 0, processor 251 of hypercube-256 reaches its second tick (t = 501) before
// neighbour 249's first beat (sent at t = 499, heard at 505) and declares a
// live processor dead. A disabled service (every = 0) watches nobody.
func newDetector(neighbors []proto.ProcID, n int, every sim.Time) detector {
	if every <= 0 {
		return detector{}
	}
	d := detector{
		limit:     every * DefaultHeartbeatMisses,
		neighbors: neighbors,
		last:      make([]sim.Time, n),
	}
	for _, nb := range neighbors {
		d.last[nb] = beatPhase(nb, every)
	}
	return d
}

// heard records a beat from a neighbour.
func (d *detector) heard(from proto.ProcID, now sim.Time) { d.last[from] = now }

// tick returns the neighbours silent past the limit, in neighbour order; a
// neighbour is reported at every tick it stays silent. The slice is valid
// until the next tick.
func (d *detector) tick(now sim.Time) []proto.ProcID {
	d.silent = d.silent[:0]
	for _, nb := range d.neighbors {
		if now-d.last[nb] > d.limit {
			d.silent = append(d.silent, nb)
		}
	}
	return d.silent
}
