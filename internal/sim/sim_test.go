package sim

import (
	"testing"
)

func TestRunOrderAndFIFOTieBreak(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(10, func() { order = append(order, 3) })
	k.At(5, func() { order = append(order, 1) })
	k.At(5, func() { order = append(order, 2) }) // same time: FIFO by schedule order
	res := k.Run(0)
	if res != RunQuiescent {
		t.Fatalf("Run = %v", res)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 10 {
		t.Fatalf("Now = %d, want 10", k.Now())
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var times []Time
	k.After(3, func() {
		times = append(times, k.Now())
		k.After(4, func() { times = append(times, k.Now()) })
	})
	k.Run(0)
	if len(times) != 2 || times[0] != 3 || times[1] != 7 {
		t.Fatalf("times = %v", times)
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.After(5, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer not active after scheduling")
	}
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Active() {
		t.Fatal("timer active after Stop")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	k.Run(0)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	var zeroTimer Timer
	if zeroTimer.Stop() {
		t.Fatal("zero timer Stop returned true")
	}
}

func TestStopEndsRun(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.At(1, func() { count++; k.Stop() })
	k.At(2, func() { count++ })
	if res := k.Run(0); res != RunStopped {
		t.Fatalf("Run = %v, want stopped", res)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
	// Run can resume afterwards.
	if res := k.Run(0); res != RunQuiescent {
		t.Fatalf("resumed Run = %v", res)
	}
	if count != 2 {
		t.Fatalf("count after resume = %d", count)
	}
}

func TestRunBudget(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var reschedule func()
	reschedule = func() { count++; k.After(1, reschedule) }
	k.After(1, reschedule)
	if res := k.Run(100); res != RunBudgetExhausted {
		t.Fatalf("Run = %v", res)
	}
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for _, at := range []Time{2, 4, 6, 8} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	if res := k.RunUntil(5, 0); res != RunDeadline {
		t.Fatalf("RunUntil = %v", res)
	}
	if len(fired) != 2 || k.Now() != 5 {
		t.Fatalf("fired=%v now=%d", fired, k.Now())
	}
	if res := k.RunUntil(100, 0); res != RunQuiescent {
		t.Fatalf("second RunUntil = %v", res)
	}
	if len(fired) != 4 || k.Now() != 100 {
		t.Fatalf("fired=%v now=%d", fired, k.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run(0)
}

func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestDeterministicRNG(t *testing.T) {
	a, b := NewKernel(7), NewKernel(7)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewKernel(8)
	same := true
	a2 := NewKernel(7)
	for i := 0; i < 10; i++ {
		if a2.Rand().Int63() != c.Rand().Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		k := NewKernel(3)
		var log []Time
		var tick func()
		n := 0
		tick = func() {
			log = append(log, k.Now())
			n++
			if n < 50 {
				k.After(Time(1+k.Rand().Intn(5)), tick)
			}
		}
		k.After(0, tick)
		k.Run(0)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
