// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event heap with stable tie-breaking, and cancellable
// timers. Every behaviour of the simulated multiprocessor is a function of
// (configuration, seed), which is what makes the recovery protocols testable
// — the paper's eight completion orderings (Figure 5) and seven spawn states
// (Figure 6) are reproduced by steering event timing, not by racing real
// goroutines.
//
// The kernel is built for the hot path: dispatch order is the total order
// Key = (time, source, sequence), so the heap implementation, event
// recycling, and the payload fast path below are pure representation
// choices — they cannot change which event runs when.
//
// The source component is what makes the order shard-stable (sharded.go):
// sequence numbers are compared only between events scheduled by the same
// source, and every source schedules from exactly one shard, so the total
// order is identical at every shard count. A standalone kernel schedules
// everything from the driver source, which collapses the key to the classic
// (time, FIFO-sequence) order.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Time is virtual time in abstract ticks.
type Time int64

// DriverSrc is the scheduling source of everything scheduled from outside
// event dispatch (the test driver, the session layer between runs). It
// sorts before every owned source at equal times, so externally injected
// events (fault plans) dispatch ahead of same-tick protocol traffic.
const DriverSrc int32 = -1

// Key is the total dispatch order of the kernel: time first, then the
// scheduling source, then that source's own FIFO sequence. Sequence numbers
// are only ever compared between keys with equal sources, so per-shard
// sequence counters (sharded.go) still yield one global order.
type Key struct {
	At  Time
	Src int32
	Seq uint64
}

// Less reports whether a dispatches before b.
func (a Key) Less(b Key) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// event is a scheduled occurrence: either a callback (fn) or a payload
// handed to the kernel's sink. Events are pooled; gen distinguishes
// incarnations so a Timer held across recycling can never cancel the
// event's successor.
type event struct {
	at    Time
	src   int32  // scheduling source (Key.Src)
	seq   uint64 // FIFO tie-break within one source
	owner int32  // whose handler runs; determines the dispatching shard
	fn    func()
	msg   any // delivered to the sink when fn is nil
	gen   uint64
	dead  bool // cancelled
	// foreign marks an event allocated for a cross-shard send. Such events
	// live their whole life as uncancellable payloads — no Timer ever points
	// at one — so they recycle through the shard-migrating xfree pool instead
	// of the handle-guarded local pool.
	foreign bool
	k       *Kernel
	idx     int // heap position; -1 once popped or removed
}

func (ev *event) key() Key { return Key{At: ev.at, Src: ev.src, Seq: ev.seq} }

// Timer is a handle to a scheduled event that can be cancelled. The zero
// Timer is valid and inert, so callers can keep timers by value.
type Timer struct {
	ev  *event
	gen uint64
}

// Stop cancels the timer if its event has not fired. It reports whether the
// call prevented the event from firing. A stopped event is removed from the
// heap immediately — cancelled timers are the common case (placement and
// result acks usually arrive long before their timeouts), and evicting them
// keeps the heap small; removing a dead event cannot affect the dispatch
// order of the live ones.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.dead {
		return false
	}
	ev.dead = true
	ev.fn = nil
	ev.msg = nil
	if ev.idx >= 0 {
		ev.k.removeAt(ev.idx)
	}
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.dead
}

// Kernel is the event loop. It is not safe for concurrent use by itself: a
// standalone kernel is the single-threaded reference implementation, and a
// sharded ensemble (sharded.go) runs one kernel per shard with all
// cross-shard exchange confined to coordinator barriers.
type Kernel struct {
	now     Time
	seq     uint64
	cur     int32 // current scheduling source; DriverSrc outside dispatch
	curKey  Key   // key of the event being dispatched (trace-merge tag)
	events  []entry
	free    []*event // recycled events (local-only; may carry stale Timer handles)
	xfree   []*event // recycled cross-shard payload events (never any handles)
	sink    func(any)
	rng     *rand.Rand
	stopped bool
	// processed counts dispatched events, as a runaway guard and a
	// determinism fingerprint for tests.
	processed uint64

	// Sharded-ensemble wiring; zero/nil for a standalone kernel.
	ens    *Sharded
	id     int        // this kernel's shard index in ens
	winEnd Time       // exclusive end of the current lockstep window
	out    [][]*event // cross-shard events buffered per destination shard
	wakes  []wake     // Wake requests, run by the coordinator at the barrier
}

// wake is a Wake request: fn runs at the next window barrier as owner.
type wake struct {
	owner int32
	fn    func()
}

// NewKernel creates a kernel with the given RNG seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed)), cur: DriverSrc}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic RNG.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Processed returns the number of events dispatched so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// CurrentKey returns the dispatch key of the event currently being
// dispatched. Shard-local trace buffers tag entries with it so the
// coordinator can merge them into the global dispatch order.
func (k *Kernel) CurrentKey() Key { return k.curKey }

// SetSink installs the payload consumer used by AtMsg/AfterMsg. A kernel
// serving payload events must have exactly one sink (the simulated machine's
// message-delivery entry point); installing it once avoids a closure
// allocation per scheduled message.
func (k *Kernel) SetSink(fn func(any)) { k.sink = fn }

// alloc takes an event from the free list (or the heap's garbage) and
// stamps it with the current source and that source's next sequence number.
// The sequence counter is per-kernel, which is per-source enough: every
// source schedules from exactly one kernel, so numbers stay monotone within
// a source, and the dispatch order never compares sequences across sources.
func (k *Kernel) alloc(t Time) *event {
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = t
	ev.src = k.cur
	ev.seq = k.seq
	ev.owner = k.cur
	ev.dead = false
	ev.k = k
	k.seq++
	return ev
}

// recycle returns a popped event to the free list. Bumping gen invalidates
// every Timer still pointing at this incarnation. Foreign (cross-shard)
// events go to the dispatching shard's xfree pool instead: nothing ever held
// a handle to them, so they may keep migrating between shards, whereas a
// local event must never leave the shard whose Timers may still point at it.
func (k *Kernel) recycle(ev *event) {
	if ev.foreign {
		ev.msg = nil
		k.xfree = append(k.xfree, ev)
		return
	}
	ev.gen++
	ev.fn = nil
	ev.msg = nil
	k.free = append(k.free, ev)
}

// At schedules fn at absolute time t (>= Now) and returns a cancellable
// handle. The event is owned by the current source, so from inside a
// handler it always lands on the caller's own shard. Scheduling in the past
// panics: it is always a simulator bug.
func (k *Kernel) At(t Time, fn func()) Timer {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, k.now))
	}
	ev := k.alloc(t)
	ev.fn = fn
	k.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn d ticks from now.
func (k *Kernel) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return k.At(k.now+d, fn)
}

// AtMsg schedules payload delivery to the sink at absolute time t, owned by
// the current source. Payload events cannot be cancelled (message transit
// is irrevocable in the machine model), which spares the Timer bookkeeping
// on the hottest schedule path.
func (k *Kernel) AtMsg(t Time, msg any) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, k.now))
	}
	ev := k.alloc(t)
	ev.msg = msg
	k.push(ev)
}

// AfterMsg schedules payload delivery d ticks from now.
func (k *Kernel) AfterMsg(d Time, msg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	k.AtMsg(k.now+d, msg)
}

// AtMsgTo schedules payload delivery at absolute time t owned by owner —
// the one scheduling call that may cross shards. A same-shard owner pushes
// straight onto this kernel's heap; a foreign owner's event is buffered on
// the per-pair queue and merged at the next coordinator barrier, which is
// only sound when the delivery lies at or beyond the lookahead horizon
// (the window end): violating that is a simulator bug and panics.
func (k *Kernel) AtMsgTo(t Time, owner int32, msg any) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, k.now))
	}
	if k.ens != nil {
		if dst := k.ens.home(owner); dst != k.id {
			if t < k.winEnd {
				panic(fmt.Sprintf("sim: cross-shard event at %d inside lookahead window ending %d", t, k.winEnd))
			}
			// Cross-shard events never come from the local free pool: a
			// pooled event may still be referenced by a stale Timer on this
			// shard, and handing it to another shard would make that Timer's
			// generation check race with the destination's recycling. They
			// draw from the handle-free xfree pool instead (fresh allocation
			// when it is empty), whose events migrate shard to shard with
			// every touch sequenced by a window barrier.
			var ev *event
			if n := len(k.xfree); n > 0 {
				ev = k.xfree[n-1]
				k.xfree[n-1] = nil
				k.xfree = k.xfree[:n-1]
			} else {
				ev = &event{foreign: true}
			}
			ev.at = t
			ev.src = k.cur
			ev.seq = k.seq
			ev.owner = owner
			ev.msg = msg
			ev.k = k
			ev.idx = -1
			k.seq++
			k.out[dst] = append(k.out[dst], ev)
			return
		}
	}
	ev := k.alloc(t)
	ev.owner = owner
	ev.msg = msg
	k.push(ev)
}

// Wake asks the ensemble's coordinator to run fn at the end of the current
// lockstep window (or at the start of the next run, when called between
// runs) as owner: on owner's shard, with everything fn schedules attributed
// to owner exactly as if one of owner's own events had scheduled it. It is
// how a handler reaches another shard's state without a message and without
// touching that shard's kernel: fn runs single-threaded between windows, and
// the barrier is a point every shard count shares, so what fn schedules is
// identical at any shard count. fn must not read the current event's key.
func (k *Kernel) Wake(owner int32, fn func()) {
	if k.ens == nil {
		panic("sim: Wake needs a Sharded ensemble")
	}
	k.wakes = append(k.wakes, wake{owner, fn})
}

// Stop makes Run return after the current event completes. Pending events
// remain queued (they are simply never dispatched). Under a sharded
// ensemble the flag is honoured at the end of the lockstep window — the
// same boundary at every shard count, including one.
func (k *Kernel) Stop() { k.stopped = true }

// Pending reports the number of live (non-cancelled) queued events.
func (k *Kernel) Pending() int {
	n := 0
	for _, e := range k.events {
		if !e.ev.dead {
			n++
		}
	}
	return n
}

// peek returns the earliest live event time, discarding dead heap tops.
func (k *Kernel) peek() (Time, bool) {
	for len(k.events) > 0 {
		next := k.events[0].ev
		if next.dead {
			k.recycle(k.pop())
			continue
		}
		return next.at, true
	}
	return 0, false
}

// entry is one heap slot: the event's Key packed into two unsigned words
// beside the pointer, so ordering two slots reads no event and (at, tie)
// compares as one 128-bit number. Times are never negative — a kernel starts
// at 0 and refuses to schedule in the past — so the conversion keeps their
// order.
type entry struct {
	at  uint64 // Key.At
	tie uint64 // Key.Src+1 above seqBits, Key.Seq below
	ev  *event
}

// seqBits splits the tie word: 2^44 sequence numbers per kernel (days of
// dispatch at any measured rate) under 2^20 sources. An event that does not
// fit is refused by pack, never wrapped into another event's place.
const (
	seqBits = 44
	maxSeq  = 1<<seqBits - 1
	maxSrc  = 1<<(64-seqBits) - 2 // source s is stored as s+1: DriverSrc is 0
)

// pack builds ev's heap slot.
func pack(ev *event) entry {
	if ev.seq > maxSeq || ev.src < DriverSrc || ev.src > maxSrc {
		panic(fmt.Sprintf("sim: event key (src %d, seq %d) does not fit the packed heap key (src <= %d, seq <= %d)",
			ev.src, ev.seq, maxSrc, uint64(maxSeq)))
	}
	return entry{at: uint64(ev.at), tie: uint64(ev.src+1)<<seqBits | ev.seq, ev: ev}
}

// before returns 1 if key (aAt, aTie) dispatches before (bAt, bTie) and 0
// otherwise: the borrow out of the 128-bit subtraction a − b. It is Key.Less
// on the packed form, computed without a branch.
func before(aAt, aTie, bAt, bTie uint64) uint64 {
	_, borrow := bits.Sub64(aTie, bTie, 0)
	_, borrow = bits.Sub64(aAt, bAt, borrow)
	return borrow
}

// push inserts an event into the heap.
func (k *Kernel) push(ev *event) {
	ev.k = k
	k.events = append(k.events, pack(ev))
	k.siftUp(len(k.events) - 1)
}

// pop removes and returns the earliest event.
func (k *Kernel) pop() *event {
	h := k.events
	ev := h[0].ev
	n := len(h) - 1
	h[0] = h[n]
	h[n] = entry{}
	k.events = h[:n]
	k.siftDown(0)
	ev.idx = -1
	return ev
}

// removeAt evicts the event at heap position i and recycles it.
func (k *Kernel) removeAt(i int) {
	h := k.events
	ev := h[i].ev
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	k.events = h[:n]
	if i < n {
		h[i] = last
		k.siftDown(i)
		k.siftUp(i)
	}
	ev.idx = -1
	k.recycle(ev)
}

// The heap is 4-ary with the keys inline. Every dispatched event is one push
// and one pop, and the pop's siftDown was most of the kernel's time — in
// branch mispredictions, not cache misses: staggered periodic services and a
// fixed hop latency make same-tick ties the common case, so a three-way key
// comparison per child is a branch the predictor cannot learn. The child
// scan therefore selects arithmetically (before's borrow, widened to a
// mask). Inline keys with the branches kept took 6 % off a kernel-only
// timer loop; without the branches, 60 %. Because
// dispatch order is the total order Key (sequence numbers are unique within
// a source), arity and layout are pure representation choices: any heap
// dispatches the same events in the same order.
const heapArity = 4

// siftUp restores the heap property upward from position i.
func (k *Kernel) siftUp(i int) {
	h := k.events
	e := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if before(e.at, e.tie, h[parent].at, h[parent].tie) == 0 {
			break
		}
		h[i] = h[parent]
		h[i].ev.idx = i
		i = parent
	}
	h[i] = e
	e.ev.idx = i
}

// siftDown restores the heap property downward from position i.
func (k *Kernel) siftDown(i int) {
	h := k.events
	n := len(h)
	if i >= n {
		return
	}
	e := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		small, at, tie := first, h[first].at, h[first].tie
		for c := first + 1; c < last; c++ {
			take := -before(h[c].at, h[c].tie, at, tie) // all ones when child c is smaller
			small ^= (small ^ c) & int(take)
			at ^= (at ^ h[c].at) & take
			tie ^= (tie ^ h[c].tie) & take
		}
		if before(at, tie, e.at, e.tie) == 0 {
			break
		}
		h[i] = h[small]
		h[i].ev.idx = i
		i = small
	}
	h[i] = e
	e.ev.idx = i
}

// dispatch runs one popped event and recycles it. The dispatching source
// becomes the event's owner, so everything the handler schedules is
// attributed to (and stays on the shard of) the code that is running.
func (k *Kernel) dispatch(ev *event) {
	k.now = ev.at
	k.cur = ev.owner
	k.curKey = ev.key()
	fn, msg := ev.fn, ev.msg
	k.processed++
	if fn != nil {
		k.recycle(ev)
		fn()
		return
	}
	k.recycle(ev)
	k.sink(msg)
}

// Run dispatches events in Key order until the queue is empty, Stop is
// called, or maxEvents events have been processed (0 = unlimited).
// It returns the reason the loop ended.
func (k *Kernel) Run(maxEvents uint64) RunResult {
	defer func() { k.cur = DriverSrc }()
	k.stopped = false
	dispatched := uint64(0)
	for len(k.events) > 0 {
		if k.stopped {
			return RunStopped
		}
		if maxEvents > 0 && dispatched >= maxEvents {
			return RunBudgetExhausted
		}
		ev := k.pop()
		if ev.dead {
			k.recycle(ev)
			continue
		}
		if ev.at < k.now {
			panic("sim: time went backwards")
		}
		dispatched++
		k.dispatch(ev)
	}
	if k.stopped {
		return RunStopped
	}
	return RunQuiescent
}

// RunUntil dispatches events with timestamps <= deadline, then returns.
// Events beyond the deadline stay queued; Now advances to at most deadline.
// maxEvents bounds the number of dispatched events (0 = unlimited).
func (k *Kernel) RunUntil(deadline Time, maxEvents uint64) RunResult {
	defer func() { k.cur = DriverSrc }()
	k.stopped = false
	dispatched := uint64(0)
	for len(k.events) > 0 {
		if k.stopped {
			return RunStopped
		}
		if maxEvents > 0 && dispatched >= maxEvents {
			return RunBudgetExhausted
		}
		next := k.events[0].ev
		if next.dead {
			k.recycle(k.pop())
			continue
		}
		if next.at > deadline {
			if k.now < deadline {
				k.now = deadline
			}
			return RunDeadline
		}
		dispatched++
		k.dispatch(k.pop())
	}
	if k.now < deadline {
		k.now = deadline
	}
	if k.stopped {
		return RunStopped
	}
	return RunQuiescent
}

// runWindow dispatches every live event with at < winEnd, ignoring the stop
// flag (a lockstep window always completes; the coordinator honours stops
// at the barrier). It returns the number of events dispatched. Now is left
// at the last dispatched event; the coordinator owns inter-window time.
func (k *Kernel) runWindow(winEnd Time) uint64 {
	k.winEnd = winEnd
	dispatched := uint64(0)
	for len(k.events) > 0 {
		next := k.events[0].ev
		if next.dead {
			k.recycle(k.pop())
			continue
		}
		if next.at >= winEnd {
			break
		}
		dispatched++
		k.dispatch(k.pop())
	}
	k.cur = DriverSrc
	return dispatched
}

// RunResult says why a Run call returned.
type RunResult int

// Run termination reasons.
const (
	// RunQuiescent: the event queue drained completely.
	RunQuiescent RunResult = iota
	// RunStopped: Stop was called from inside an event.
	RunStopped
	// RunBudgetExhausted: maxEvents events were dispatched.
	RunBudgetExhausted
	// RunDeadline: RunUntil reached its deadline with events pending.
	RunDeadline
)

func (r RunResult) String() string {
	switch r {
	case RunQuiescent:
		return "quiescent"
	case RunStopped:
		return "stopped"
	case RunBudgetExhausted:
		return "budget-exhausted"
	case RunDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("RunResult(%d)", int(r))
	}
}
