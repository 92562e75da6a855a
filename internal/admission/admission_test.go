package admission

import (
	"slices"
	"testing"
)

// TestGate drives the gate alone through offer/release sequences under each
// policy. A step is an offer of the next request id ('o') or a release ('r');
// after every step the verdict (or the dequeued id, -1 for none), the slots
// in use and the queue's high-water mark are pinned.
func TestGate(t *testing.T) {
	type step struct {
		op       byte
		verdict  Verdict // for 'o'
		next     int     // for 'r': the id handed the slot, -1 when none
		inflight int
		depthMax int
	}
	for _, tc := range []struct {
		name   string
		spec   string
		bound  int
		steps  []step
		closed []int // ids still queued at the end, in order
	}{
		{name: "unbounded", spec: "", bound: 0, steps: []step{
			{'o', Admit, 0, 1, 0}, {'o', Admit, 0, 2, 0}, {'o', Admit, 0, 3, 0},
			{'r', 0, -1, 2, 0}, {'r', 0, -1, 1, 0}, {'r', 0, -1, 0, 0},
		}},
		{name: "queue", spec: "queue", bound: 2, steps: []step{
			{'o', Admit, 0, 1, 0}, {'o', Admit, 0, 2, 0},
			{'o', Queue, 0, 2, 1}, {'o', Queue, 0, 2, 2}, {'o', Queue, 0, 2, 3},
			{'r', 0, 2, 2, 3}, // the head takes the freed slot: FIFO
			{'r', 0, 3, 2, 3},
			{'o', Queue, 0, 2, 3}, // depth back to 2: the mark holds
			{'r', 0, 4, 2, 3}, {'r', 0, 5, 2, 3},
			{'r', 0, -1, 1, 3}, // empty queue: the release only frees the slot
			{'r', 0, -1, 0, 3},
			{'o', Admit, 0, 1, 3},
		}},
		{name: "queue:N", spec: "queue:2", bound: 1, steps: []step{
			{'o', Admit, 0, 1, 0},
			{'o', Queue, 0, 1, 1}, {'o', Queue, 0, 1, 2},
			{'o', Shed, 0, 1, 2}, {'o', Shed, 0, 1, 2}, // the FIFO is at its bound
			{'r', 0, 1, 1, 2},
			{'o', Queue, 0, 1, 2}, // room again
			{'o', Shed, 0, 1, 2},
		}, closed: []int{2, 5}},
		{name: "shed", spec: "shed", bound: 2, steps: []step{
			{'o', Admit, 0, 1, 0}, {'o', Admit, 0, 2, 0},
			{'o', Shed, 0, 2, 0}, {'o', Shed, 0, 2, 0},
			{'r', 0, -1, 1, 0},
			{'o', Admit, 0, 2, 0},
			{'o', Shed, 0, 2, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := Parse(tc.spec, tc.bound)
			if err != nil {
				t.Fatal(err)
			}
			g := Gate[int]{Policy: pol}
			id := 0
			for i, st := range tc.steps {
				switch st.op {
				case 'o':
					if v := g.Offer(id); v != st.verdict {
						t.Fatalf("step %d: offer %d = %v, want %v", i, id, v, st.verdict)
					}
					id++
				case 'r':
					next, ok := g.Release()
					if !ok {
						next = -1
					}
					if next != st.next {
						t.Fatalf("step %d: release handed the slot to %d, want %d", i, next, st.next)
					}
				}
				if g.InFlight() != st.inflight || g.DepthMax() != st.depthMax {
					t.Fatalf("step %d: in flight %d, depth max %d; want %d and %d",
						i, g.InFlight(), g.DepthMax(), st.inflight, st.depthMax)
				}
			}
			if !slices.Equal(g.queue, tc.closed) {
				t.Fatalf("still queued %v, want %v", g.queue, tc.closed)
			}
		})
	}
}

// TestParse: the spec vocabulary, with the bound carried through and nothing
// accepted that does not re-render to itself.
func TestParse(t *testing.T) {
	for spec, want := range map[string]Policy{
		"":        {MaxInFlight: 3},
		"queue":   {MaxInFlight: 3},
		"queue:7": {MaxInFlight: 3, QueueBound: 7},
		"shed":    {MaxInFlight: 3, Shed: true},
	} {
		if got, err := Parse(spec, 3); err != nil || got != want {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
	}
	for _, spec := range []string{"lifo", "queue:", "queue:0", "queue:-1", "queue:08", "queue:2x", "shed:1"} {
		if got, err := Parse(spec, 3); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", spec, got)
		}
	}
}
