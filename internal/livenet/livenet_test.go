package livenet

import (
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/node"
)

func TestFaultFreeLiveRun(t *testing.T) {
	prog := lang.Fib()
	c, err := New(node.Spec{Procs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	r, err := c.Root().Submit(prog, "fib", []expr.Value{expr.VInt(14)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Wait(30*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(expr.VInt(377)) {
		t.Fatalf("fib(14) = %v, want 377", v)
	}
	got := c.Root().Snapshot()
	if got.Spawned == 0 {
		t.Error("no tasks spawned")
	}
	if got.Reissued != 0 {
		t.Errorf("fault-free run reissued %d packets", got.Reissued)
	}
}

func TestLiveRunSurvivesKill(t *testing.T) {
	prog := lang.Fib()
	c, err := New(node.Spec{Procs: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	r, err := c.Root().Submit(prog, "fib", []expr.Value{expr.VInt(17)})
	if err != nil {
		t.Fatal(err)
	}
	// Let the tree unfold a little, then crash a node under real load.
	time.Sleep(5 * time.Millisecond)
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	v, err := r.Wait(60*time.Second, nil)
	if err != nil {
		t.Fatalf("no answer after kill: %v (%+v)", err, c.Root().Snapshot())
	}
	if !v.Equal(expr.VInt(1597)) {
		t.Fatalf("fib(17) = %v, want 1597", v)
	}
}

func TestLiveRunSurvivesRootNodeKill(t *testing.T) {
	prog := lang.Fib()
	c, err := New(node.Spec{Procs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	r, err := c.Root().Submit(prog, "fib", []expr.Value{expr.VInt(15)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	// Node 0 hosts the root: the cluster (super-root) must reissue it.
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	v, err := r.Wait(60*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(expr.VInt(610)) {
		t.Fatalf("fib(15) = %v, want 610", v)
	}
}

func TestLiveRunSurvivesTwoKills(t *testing.T) {
	prog := lang.TreeSum(3)
	c, err := New(node.Spec{Procs: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	r, err := c.Root().Submit(prog, "tree", []expr.Value{expr.VInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Millisecond)
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Millisecond)
	if err := c.Kill(4); err != nil {
		t.Fatal(err)
	}
	v, err := r.Wait(60*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(expr.VInt(2187)) { // 3^7
		t.Fatalf("tree(7) = %v, want 2187", v)
	}
}

func TestKillValidation(t *testing.T) {
	c, err := New(node.Spec{Procs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Kill(9); err == nil {
		t.Error("out-of-range kill accepted")
	}
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(1); err == nil {
		t.Error("double kill accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(node.Spec{Procs: 1, Seed: 1}); err == nil {
		t.Error("single-node cluster accepted")
	}
	c, err := New(node.Spec{Procs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Root().Submit(lang.Fib(), "nosuch", nil); err == nil {
		t.Error("unknown function accepted")
	}
}

// TestShutdownEndsASoleSurvivorThatNeverFinishes: with one node left every
// placement draws it, so a program that never ends is one endless in-place
// run. The node yields to its inbox every few thousand deliveries, which is
// where the goroutine sees the shutdown; it must not take a finished request
// to end a machine.
func TestShutdownEndsASoleSurvivorThatNeverFinishes(t *testing.T) {
	c, err := New(node.Spec{Procs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	r, err := c.Root().Submit(lang.MustParse("fn spin(n) = spin(n + 1)"), "spin", []expr.Value{expr.VInt(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(50*time.Millisecond, nil); err == nil {
		t.Fatal("a divergent program answered")
	}
	done := make(chan struct{})
	go func() {
		c.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown still waiting for node 0's handler after 10s")
	}
	if got := c.Root().Snapshot(); got.InPlace == 0 || got.Messages < 3 {
		t.Fatalf("in place %d, messages %d: the run neither stayed home nor ever yielded", got.InPlace, got.Messages)
	}
}
