// Package admission is the bounded-admission decision of a service stream,
// stated once for every backend: a stream admits at most MaxInFlight requests
// at a time, and an offer that finds every slot busy is queued (FIFO,
// optionally bounded) or shed. The simulator's session calls the gate from
// kernel events and the wall-clock super-root under its lock; each installs
// a root on its own host when the gate admits one.
package admission

import "fmt"

// Policy is a parsed admission spec. The zero value admits everything.
type Policy struct {
	// MaxInFlight bounds concurrently admitted requests; 0 is unbounded.
	MaxInFlight int
	// Shed rejects offers over the bound instead of queueing them.
	Shed bool
	// QueueBound caps the FIFO: an offer that finds it full is shed. 0 leaves
	// it unbounded.
	QueueBound int
}

// Parse validates an admission spec — "" or "queue" (unbounded FIFO),
// "queue:N" (FIFO bounded at depth N) or "shed" — for a stream bounded at
// maxInFlight. It is the one parser every backend uses, so their
// vocabularies can never drift.
func Parse(spec string, maxInFlight int) (Policy, error) {
	p := Policy{MaxInFlight: maxInFlight}
	switch spec {
	case "", "queue":
		return p, nil
	case "shed":
		p.Shed = true
		return p, nil
	}
	if n, err := fmt.Sscanf(spec, "queue:%d", &p.QueueBound); n == 1 && err == nil &&
		fmt.Sprintf("queue:%d", p.QueueBound) == spec && p.QueueBound > 0 {
		return p, nil
	}
	return Policy{}, fmt.Errorf("admission: unknown admission policy %q (queue, queue:N, shed)", spec)
}

// Verdict is what the gate decided about one offer.
type Verdict int

// The three verdicts.
const (
	Admit Verdict = iota // a slot was free and is now taken
	Queue                // held in the FIFO until a Release hands it a slot
	Shed                 // rejected; the request never consumes a slot
)

// Gate is the admission state of one stream: the slots in use, the FIFO of
// offers waiting for one, and its high-water mark. It is not safe for
// concurrent use; callers serialize it the way they serialize the stream.
type Gate[T any] struct {
	Policy
	inflight int
	queue    []T
	depthMax int
}

// Offer decides one arrival, in arrival order.
func (g *Gate[T]) Offer(x T) Verdict {
	if g.MaxInFlight <= 0 || g.inflight < g.MaxInFlight {
		g.inflight++
		return Admit
	}
	if g.Shed || (g.QueueBound > 0 && len(g.queue) >= g.QueueBound) {
		return Shed
	}
	g.queue = append(g.queue, x)
	g.depthMax = max(g.depthMax, len(g.queue))
	return Queue
}

// Release frees the slot of a finished request and, if the FIFO holds one
// and a slot is free, hands it to the head: ok reports that next was dequeued
// and now holds the slot. On an empty queue it only frees the slot.
func (g *Gate[T]) Release() (next T, ok bool) {
	g.inflight--
	if len(g.queue) == 0 || (g.MaxInFlight > 0 && g.inflight >= g.MaxInFlight) {
		return next, false
	}
	next, g.queue = g.queue[0], g.queue[1:]
	g.inflight++
	return next, true
}

// InFlight is the number of slots in use.
func (g *Gate[T]) InFlight() int { return g.inflight }

// DepthMax is the FIFO's high-water mark over the stream.
func (g *Gate[T]) DepthMax() int { return g.depthMax }
