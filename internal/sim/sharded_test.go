package sim

import (
	"fmt"
	"strings"
	"testing"
)

// hopMsg is the test payload: deliver to `to`, then bounce back with one
// fewer hop until the budget runs out.
type hopMsg struct {
	to   int32
	hops int
}

const testHorizon = Time(5)

// crossTraffic runs two interleaved ping-pong chains between owners 0 and 1
// on an ensemble with the given shard count and returns a rendering of every
// delivery plus the final clocks. Owner i's log is only ever appended from
// owner i's home shard, so the multi-shard runs are write-disjoint; the
// barrier publishes both logs back to the driver.
func crossTraffic(t *testing.T, shards int, deadline Time) string {
	t.Helper()
	homes := []int32{0, int32(shards - 1)}
	s := NewSharded(1, shards, homes, testHorizon)
	defer s.Close()
	logs := make([][]string, 2)
	var pacerLines []string
	s.SetSink(func(v any) {
		m := v.(hopMsg)
		k := s.Shard(s.HomeOf(m.to))
		logs[m.to] = append(logs[m.to], fmt.Sprintf("t=%d owner=%d hops=%d", k.Now(), m.to, m.hops))
		if m.hops > 0 {
			other := 1 - m.to
			k.AtMsgTo(k.Now()+testHorizon, other, hopMsg{to: other, hops: m.hops - 1})
		}
	})
	s.SetPacer(7, 10, func(at Time) {
		pacerLines = append(pacerLines, fmt.Sprintf("pacer t=%d processed=%d", at, s.Processed()))
	})
	s.AtOn(0, 0, func() {
		k := s.Shard(s.HomeOf(0))
		k.AtMsgTo(testHorizon, 1, hopMsg{to: 1, hops: 6})
	})
	s.AtOn(0, 1, func() {
		k := s.Shard(s.HomeOf(1))
		k.AtMsgTo(testHorizon, 0, hopMsg{to: 0, hops: 5})
	})
	res := s.RunUntil(deadline, 0)
	var b strings.Builder
	fmt.Fprintf(&b, "result=%v now=%d processed=%d\n", res, s.Now(), s.Processed())
	for owner, lines := range logs {
		fmt.Fprintf(&b, "owner %d: %s\n", owner, strings.Join(lines, "; "))
	}
	fmt.Fprintf(&b, "%s\n", strings.Join(pacerLines, "; "))
	return b.String()
}

// TestShardedMatchesSingleShard is the package-level determinism pin: the
// two-shard ensemble (concurrent windows, per-pair outbox merges, worker
// goroutines) renders byte-identically to the single-shard ensemble, which
// runs the same windowed loop inline and is the executable specification.
func TestShardedMatchesSingleShard(t *testing.T) {
	ref := crossTraffic(t, 1, 60)
	if !strings.Contains(ref, "owner 0") || strings.Contains(ref, "owner 0: \n") {
		t.Fatalf("reference run produced no deliveries:\n%s", ref)
	}
	for run := 0; run < 3; run++ {
		if got := crossTraffic(t, 2, 60); got != ref {
			t.Fatalf("2-shard run %d diverged:\n--- 1 shard ---\n%s--- 2 shards ---\n%s", run, ref, got)
		}
	}
}

// TestShardedHorizonViolationPanics pins the conservative-synchronization
// guard: a handler scheduling a cross-shard delivery inside the current
// lookahead window is a simulator bug and must panic rather than silently
// break the lockstep invariant.
func TestShardedHorizonViolationPanics(t *testing.T) {
	s := NewSharded(1, 2, []int32{0, 1}, testHorizon)
	defer s.Close()
	s.SetSink(func(any) {})
	s.AtOn(0, 0, func() {
		k := s.Shard(0)
		defer func() {
			if recover() == nil {
				t.Error("cross-shard send inside the window did not panic")
			}
			k.Stop()
		}()
		k.AtMsgTo(k.Now()+1, 1, hopMsg{to: 1})
	})
	s.RunUntil(100, 0)
}

// TestShardedDriverPrecedence checks the driver source sorts ahead of owned
// traffic at equal times on a sharded ensemble, exactly as on a standalone
// kernel: fault injections must beat same-tick protocol events.
func TestShardedDriverPrecedence(t *testing.T) {
	s := NewSharded(1, 2, []int32{0, 1}, testHorizon)
	defer s.Close()
	var order []string
	s.AtOn(5, 1, func() {
		k := s.Shard(1)
		k.At(20, func() { order = append(order, "owned") })
	})
	s.AtOn(20, 1, func() { order = append(order, "driver") })
	s.Run(0)
	want := "driver,owned"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("t=20 dispatch order = %q, want %q", got, want)
	}
}

// TestShardedStopAtWindowBoundary pins the Stop semantics the coordinator
// documents: a stop requested mid-window takes effect at the window's end —
// same-window events still dispatch, later windows do not — at every shard
// count, so stopping cannot introduce shard-count-dependent behavior.
func TestShardedStopAtWindowBoundary(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s := NewSharded(1, shards, []int32{0, int32(shards - 1)}, testHorizon)
		var fired []Time
		s.AtOn(10, 0, func() {
			fired = append(fired, 10)
			s.Shard(s.HomeOf(0)).Stop()
		})
		s.AtOn(12, 0, func() { fired = append(fired, 12) }) // same window [10,15)
		s.AtOn(30, 0, func() { fired = append(fired, 30) }) // next window
		res := s.RunUntil(100, 0)
		if res != RunStopped {
			t.Fatalf("shards=%d: result = %v, want stopped", shards, res)
		}
		if len(fired) != 2 || fired[0] != 10 || fired[1] != 12 {
			t.Fatalf("shards=%d: fired = %v, want [10 12]", shards, fired)
		}
		if s.Pending() != 1 {
			t.Fatalf("shards=%d: %d events pending after stop, want 1", shards, s.Pending())
		}
		s.Close()
	}
}

// TestShardedBudgetAtWindowGranularity checks maxEvents is enforced at
// window boundaries: the budget can only be observed exhausted between
// windows, so the dispatched count is identical at every shard count even
// when it overshoots the nominal budget inside a window.
func TestShardedBudgetAtWindowGranularity(t *testing.T) {
	counts := make(map[int]uint64)
	for _, shards := range []int{1, 2} {
		s := NewSharded(1, shards, []int32{0, int32(shards - 1)}, testHorizon)
		for i := Time(0); i < 4; i++ {
			s.AtOn(10, 0, func() {})
			s.AtOn(10, 1, func() {})
		}
		if res := s.RunUntil(100, 3); res != RunBudgetExhausted {
			t.Fatalf("shards=%d: result = %v, want budget-exhausted", shards, res)
		}
		counts[shards] = s.Processed()
		s.Close()
	}
	if counts[1] != counts[2] {
		t.Fatalf("budget cut at different points: 1 shard dispatched %d, 2 shards %d", counts[1], counts[2])
	}
}

// TestWakeRunsAtTheBarrierAsOwner pins Wake: a handler on shard 0 asks for
// owner 1's state to be touched, the request runs only at the window's end —
// after every event of the window, on no shard's goroutine — and what it
// schedules is owner 1's own event on owner 1's shard, ordered by owner 1's
// source. Covered reports each run's dispatched extent. Both hold at one
// shard and at two.
func TestWakeRunsAtTheBarrierAsOwner(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s := NewSharded(1, shards, []int32{0, int32(shards - 1)}, testHorizon)
		var order []string
		k1 := s.Shard(s.HomeOf(1))
		s.AtOn(10, 0, func() {
			s.Shard(s.HomeOf(0)).Wake(1, func() {
				order = append(order, fmt.Sprintf("wake covered=%d", s.Covered()))
				k1.At(20, func() { order = append(order, fmt.Sprintf("woken src=%d", k1.CurrentKey().Src)) })
			})
		})
		s.AtOn(12, 0, func() { order = append(order, "same window") })
		s.AtOn(20, 1, func() { order = append(order, "driver at 20") })
		if res := s.RunUntil(100, 0); res != RunQuiescent || s.Covered() != 101 {
			t.Fatalf("shards=%d: %v with covered %d, want quiescent and 101", shards, res, s.Covered())
		}
		want := "same window,wake covered=15,driver at 20,woken src=1"
		if got := strings.Join(order, ","); got != want {
			t.Fatalf("shards=%d: order %q, want %q", shards, got, want)
		}
		s.Close()
	}
}
