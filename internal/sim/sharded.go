// Conservatively-synchronized sharded kernel. A Sharded ensemble runs one
// shard-local Kernel per topology region in lockstep windows [M, M+H),
// where M is the earliest pending event anywhere and H is the lookahead
// horizon — the minimum latency of any cross-shard message. Within a window
// no information can flow between shards (a cross-shard delivery lands at
// or beyond the window end by construction, enforced by AtMsgTo), so every
// shard may dispatch its window concurrently; events exchanged through the
// per-pair outboxes merge at the barrier on the total Key order.
//
// Determinism does not depend on the partition or the shard count: each
// source allocates its sequence numbers from the one kernel it schedules
// on, sequences are only compared within a source, and window boundaries
// are a function of (pending event times, horizon, deadline, pacer ticks)
// — all shard-count-invariant. The single-shard ensemble runs the same
// windowed loop inline, so it is the executable specification that the
// parallel runs are checked against (the shard-sweep tests assert
// byte-identical traces for 1, 2, 4 and 8 shards).
package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Sharded coordinates a set of shard-local kernels. All driver-facing
// methods (scheduling, running, the pacer) must be called from a single
// goroutine; shard handlers run concurrently only inside windows.
type Sharded struct {
	shards    []*Kernel
	homes     []int32 // owner -> shard index; the driver schedules onto the owner's shard
	horizon   Time
	now       Time
	driverSeq uint64
	processed uint64
	stopped   bool // driver-requested stop
	// covered is the exclusive end of the virtual time dispatched so far:
	// every event before it has run and none at or after it, at the moment a
	// run returns (a later driver event may still land before it).
	covered Time

	// pacer runs a coordinator-level callback every pacerEvery ticks at a
	// window boundary: it observes the state after every event before its
	// tick and none at or after it, at any shard count.
	pacer      func(Time)
	pacerEvery Time
	pacerNext  Time

	// Worker machinery (nil until the first multi-shard window).
	wake      []chan Time
	counts    []uint64
	remaining atomic.Int32
	closed    bool
	// sequential runs every window inline on the driver goroutine. Chosen at
	// construction when the process has a single scheduling core: window
	// results are interleaving-independent, so this changes nothing but the
	// wall clock — it just skips worker wakes and barrier spins that a lone
	// core would pay for without any overlap to win.
	sequential bool
}

// NewSharded builds an ensemble of n shard kernels over the given owner →
// shard assignment (len(homes) owners; driver-owned events live on shard
// 0). horizon is the lookahead H in ticks; n > 1 requires horizon >= 1.
func NewSharded(seed int64, n int, homes []int32, horizon Time) *Sharded {
	if n < 1 {
		panic(fmt.Sprintf("sim: shard count %d < 1", n))
	}
	if n > 1 && horizon < 1 {
		panic(fmt.Sprintf("sim: %d shards need a lookahead horizon >= 1, got %d", n, horizon))
	}
	s := &Sharded{horizon: horizon, homes: homes, sequential: runtime.GOMAXPROCS(0) == 1}
	s.shards = make([]*Kernel, n)
	for i := range s.shards {
		k := NewKernel(seed + int64(i))
		k.ens = s
		k.id = i
		k.out = make([][]*event, n)
		s.shards[i] = k
	}
	for _, h := range homes {
		if int(h) < 0 || int(h) >= n {
			panic(fmt.Sprintf("sim: owner shard %d out of range [0,%d)", h, n))
		}
	}
	return s
}

// home maps an owner to its shard; driver-owned events live on shard 0.
func (s *Sharded) home(owner int32) int {
	if owner < 0 {
		return 0
	}
	return int(s.homes[owner])
}

// Shard returns shard i's kernel. Handlers owned by shard i may use it
// freely during dispatch; the driver may touch it only between runs.
func (s *Sharded) Shard(i int) *Kernel { return s.shards[i] }

// HomeOf returns the shard index owning owner's events.
func (s *Sharded) HomeOf(owner int32) int { return s.home(owner) }

// Now returns the coordinator's virtual time: the last barrier or run
// boundary. Inside a handler, use the shard kernel's Now.
func (s *Sharded) Now() Time { return s.now }

// Covered is the exclusive end of the virtual time the ensemble has
// dispatched: the end of the last lockstep window, or deadline+1 once a run
// reached its deadline. Inside a window it is the previous barrier's value.
func (s *Sharded) Covered() Time { return s.covered }

// cover raises the covered bound to t.
func (s *Sharded) cover(t Time) { s.covered = max(s.covered, t) }

// DriverSeq is the sequence number the next driver-scheduled event gets:
// events the driver scheduled earlier dispatch before it at equal times.
func (s *Sharded) DriverSeq() uint64 { return s.driverSeq }

// Processed returns the number of events dispatched so far across all
// shards, including pacer fires.
func (s *Sharded) Processed() uint64 { return s.processed }

// SetSink installs the payload consumer on every shard.
func (s *Sharded) SetSink(fn func(any)) {
	for _, k := range s.shards {
		k.SetSink(fn)
	}
}

// Stop makes the current run return at the next window boundary.
func (s *Sharded) Stop() { s.stopped = true }

// Pending reports the number of live queued events across all shards.
func (s *Sharded) Pending() int {
	n := 0
	for _, k := range s.shards {
		n += k.Pending()
	}
	return n
}

// SetPacer installs fn to run every `every` ticks, first at tick `first`.
// Pacer fires count as dispatched events (they occupy the slot the probe
// event used to) and keep the ensemble non-quiescent, exactly like a
// self-rescheduling probe timer.
func (s *Sharded) SetPacer(first, every Time, fn func(Time)) {
	s.pacer = fn
	s.pacerEvery = every
	s.pacerNext = first
}

// AtOn schedules fn at absolute time t on owner's shard, attributed to the
// driver source. It must be called from the driver goroutine between runs.
func (s *Sharded) AtOn(t Time, owner int32, fn func()) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, s.now))
	}
	k := s.shards[s.home(owner)]
	ev := k.alloc(t)
	ev.src = DriverSrc
	ev.seq = s.driverSeq
	s.driverSeq++
	ev.owner = owner
	ev.fn = fn
	k.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// nextTime returns the earliest pending event time across shards.
func (s *Sharded) nextTime() (Time, bool) {
	var m Time
	ok := false
	for _, k := range s.shards {
		if t, live := k.peek(); live && (!ok || t < m) {
			m, ok = t, true
		}
	}
	return m, ok
}

// shardStopped reports whether any shard (or the driver) flagged a stop.
func (s *Sharded) shardStopped() bool {
	if s.stopped {
		return true
	}
	for _, k := range s.shards {
		if k.stopped {
			return true
		}
	}
	return false
}

// settle records the post-run time on the coordinator and every shard so
// later driver scheduling and reports see a consistent clock.
func (s *Sharded) settle(t Time) {
	if t > s.now {
		s.now = t
	}
	for _, k := range s.shards {
		if s.now > k.now {
			k.now = s.now
		}
	}
}

// maxShardNow returns the latest dispatched-event time across shards.
func (s *Sharded) maxShardNow() Time {
	m := s.now
	for _, k := range s.shards {
		if k.now > m {
			m = k.now
		}
	}
	return m
}

// drainOutboxes merges every per-pair queue into the destination heaps and
// runs the Wake requests. Insertion order cannot affect dispatch order (the
// heap dispatches in Key order), but iterating shard-major keeps runs
// bit-reproducible anyway.
func (s *Sharded) drainOutboxes() {
	for _, src := range s.shards {
		for i, w := range src.wakes {
			dk := s.shards[s.home(w.owner)]
			dk.cur = w.owner
			w.fn()
			dk.cur = DriverSrc
			src.wakes[i] = wake{}
		}
		src.wakes = src.wakes[:0]
		for dst, evs := range src.out {
			if len(evs) == 0 {
				continue
			}
			dk := s.shards[dst]
			for i, ev := range evs {
				dk.push(ev)
				evs[i] = nil
			}
			src.out[dst] = evs[:0]
		}
	}
}

// RunUntil dispatches events with timestamps <= deadline in lockstep
// windows, then returns. Semantics mirror Kernel.RunUntil with two
// shard-count-invariant differences: Stop takes effect at the end of the
// window that requested it, and maxEvents is enforced at window
// granularity (both boundaries are identical at every shard count).
func (s *Sharded) RunUntil(deadline Time, maxEvents uint64) RunResult {
	s.stopped = false
	for _, k := range s.shards {
		k.stopped = false
	}
	s.drainOutboxes() // wakes requested between runs
	dispatched := uint64(0)
	for {
		if s.shardStopped() {
			s.settle(s.maxShardNow())
			return RunStopped
		}
		if maxEvents > 0 && dispatched >= maxEvents {
			s.settle(s.maxShardNow())
			return RunBudgetExhausted
		}
		m, ok := s.nextTime()
		if !ok {
			if s.pacer != nil {
				if s.pacerNext <= deadline {
					s.firePacer()
					dispatched++
					continue
				}
				s.finish(deadline)
				return RunDeadline
			}
			s.finish(deadline)
			return RunQuiescent
		}
		if s.pacer != nil && s.pacerNext <= m {
			if s.pacerNext > deadline {
				s.finish(deadline)
				return RunDeadline
			}
			s.firePacer()
			dispatched++
			continue
		}
		if m > deadline {
			s.finish(deadline)
			return RunDeadline
		}
		w := m + s.horizon
		if s.pacer != nil && s.pacerNext < w {
			w = s.pacerNext
		}
		if w > deadline+1 {
			w = deadline + 1
		}
		dispatched += s.runWindow(w)
		s.cover(w)
		s.drainOutboxes()
	}
}

// finish ends a run that dispatched everything up to deadline.
func (s *Sharded) finish(deadline Time) {
	s.settle(deadline)
	s.cover(deadline + 1)
}

// Run dispatches until quiescent, stopped, or maxEvents dispatched. With a
// pacer installed, use RunUntil: the pacer never lets the ensemble drain.
func (s *Sharded) Run(maxEvents uint64) RunResult {
	const farFuture = Time(1) << 60
	res := s.RunUntil(farFuture, maxEvents)
	if res == RunDeadline {
		res = RunQuiescent
	}
	return res
}

// firePacer advances the clock to the pacer tick and runs the callback.
func (s *Sharded) firePacer() {
	t := s.pacerNext
	s.settle(t)
	s.cover(t)
	s.processed++
	s.pacerNext += s.pacerEvery
	s.pacer(t)
}

// runWindow dispatches every event before w on every shard that has one,
// in parallel when more than one shard is active.
func (s *Sharded) runWindow(w Time) uint64 {
	lead := -1
	extra := 0
	for i, k := range s.shards {
		if t, ok := k.peek(); ok && t < w {
			if lead < 0 {
				lead = i
			} else {
				extra++
			}
		}
	}
	if lead < 0 {
		return 0
	}
	if extra == 0 || s.sequential {
		var n uint64
		for _, k := range s.shards[lead:] {
			if t, ok := k.peek(); ok && t < w {
				n += k.runWindow(w)
			}
		}
		s.processed += n
		return n
	}
	if s.wake == nil {
		s.startWorkers()
	}
	s.remaining.Store(int32(extra))
	for i := lead + 1; i < len(s.shards); i++ {
		k := s.shards[i]
		if t, ok := k.peek(); ok && t < w {
			s.wake[i] <- w
		}
	}
	n := s.shards[lead].runWindow(w)
	for spins := 0; s.remaining.Load() != 0; spins++ {
		if spins&63 == 63 {
			runtime.Gosched()
		}
	}
	for i := lead + 1; i < len(s.shards); i++ {
		n += s.counts[i]
		s.counts[i] = 0
	}
	s.processed += n
	return n
}

// startWorkers launches one parked goroutine per shard beyond the first.
// Workers block on their wake channel between windows; Close releases them.
func (s *Sharded) startWorkers() {
	s.wake = make([]chan Time, len(s.shards))
	s.counts = make([]uint64, len(s.shards))
	for i := 1; i < len(s.shards); i++ {
		i := i
		s.wake[i] = make(chan Time, 1)
		go func() {
			k := s.shards[i]
			for w := range s.wake[i] {
				s.counts[i] = k.runWindow(w)
				s.remaining.Add(-1)
			}
		}()
	}
}

// Close releases the shard workers. The ensemble must not run again.
func (s *Sharded) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for i := 1; i < len(s.wake); i++ {
		if s.wake[i] != nil {
			close(s.wake[i])
		}
	}
	s.wake = nil
}
