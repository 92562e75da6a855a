package livenet

import (
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/node"
)

// TestLiveKillSoak drives the kill/recover cycle across many seeds and kill
// instants; it exists because the livenet wedge class (orphan-lineage
// reissues colliding with main-lineage incarnations) only shows under
// scheduling variety.
func TestLiveKillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is slow")
	}
	for iter := 0; iter < 12; iter++ {
		prog := lang.Fib()
		c, err := New(node.Spec{Procs: 6, Seed: int64(iter)*31 + 2})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Root().Submit(prog, "fib", []expr.Value{expr.VInt(15)})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(iter%7) * time.Millisecond)
		if err := c.Kill(2); err != nil {
			t.Fatal(err)
		}
		v, err := r.Wait(10*time.Second, nil)
		if err != nil {
			got := c.Root().Snapshot()
			c.Shutdown()
			t.Fatalf("iter %d hung: %v (%+v)", iter, err, got)
		}
		if !v.Equal(expr.VInt(610)) {
			t.Fatalf("iter %d: wrong answer %v", iter, v)
		}
		c.Shutdown()
	}
}
