package livenet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
)

func TestFaultFreeLiveRun(t *testing.T) {
	prog := lang.Fib()
	c, err := New(node.Spec{Procs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Root().Submit(prog, "fib", []expr.Value{expr.VInt(14)})
	if err != nil {
		c.Shutdown()
		t.Fatal(err)
	}
	v, err := r.Wait(30*time.Second, nil)
	c.Shutdown() // what the nodes sent is folded into the totals here
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(expr.VInt(377)) {
		t.Fatalf("fib(14) = %v, want 377", v)
	}
	got, _ := c.Root().Metrics()
	if got.TasksSpawned == 0 {
		t.Error("no tasks spawned")
	}
	if got.Reissues != 0 {
		t.Errorf("fault-free run reissued %d packets", got.Reissues)
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
		got, _ := c.Root().Metrics()
		t.Fatalf("no answer after kill: %v (%q)", err, got.Rows())
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
// run. The node's goroutine looks at its mailbox between budgets of 4 096
// events, which is where it sees the shutdown; it must not take a finished
// request to end a machine. Every pass of the spin is one event and spawns
// one packet in place, so the node ran at least one whole budget.
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
	if got, _ := c.Root().Metrics(); got.TasksInPlace < 1<<12 {
		t.Fatalf("in place %d: the run never stayed home for a whole budget", got.TasksInPlace)
	}
}

// TestStreamEndsClean: after a fault-free stream has shut down, every
// processor holds no resident task and no checkpoint, and nothing its free
// lists made was left to the collector. Tasks and hole records are back on
// the list of the processor that made them, and packets, which a child hands
// back with its result, on their parent's — the super-root's processor
// included, whose root packets come back with the roots' answers. A result
// goes back on the list of the processor that consumed it, so results
// balance across the machine, but for the one per request the super-root
// took. A stream with an evaluation error in it, with or without a kill,
// ends with every surviving processor holding no task and no checkpoint —
// the failed request's tree was torn down — and the super-root as clean: no
// request record, no pseudo-task, no checkpoint, and no root packet missing
// but those a dead node or the failed request's tree may still hold.
func TestStreamEndsClean(t *testing.T) {
	specs := []string{"fib:14", "tree:3,5", "tak:9,5,2"}
	stream := func(t *testing.T, fail, kill bool) (c *Cluster, failed int) {
		c, err := New(node.Spec{Procs: 6, Seed: 3, Eval: "compiled"})
		if err != nil {
			t.Fatal(err)
		}
		div := lang.MustParse("fn f(x) = 10 / x\nfn main(n) = f(n) + f(n - 1) + f(n - 2)")
		var reqs []*node.Request
		for i := range 24 {
			w, err := core.StandardWorkload(specs[i%len(specs)])
			if err != nil {
				t.Fatal(err)
			}
			if fail && i == 5 {
				w = core.Workload{Program: div, Fn: "main", Args: []expr.Value{expr.VInt(2)}}
			}
			r, err := c.Root().Submit(w.Program, w.Fn, w.Args)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, r)
			if kill && i == 11 {
				if err := c.Kill(1); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, r := range reqs {
			if _, err := r.Wait(30*time.Second, nil); errors.Is(err, lang.ErrEval) && fail && i == 5 {
				failed++
			} else if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
		if fail && failed != 1 {
			t.Fatalf("the request that divides by zero answered")
		}
		c.Shutdown()
		return c, failed
	}
	// superRoot checks the super-root's end state; at most lost root packets
	// may be missing from its list.
	superRoot := func(t *testing.T, c *Cluster, lost int64) {
		n, h := c.Root().Held()
		if n != 0 || h.Tasks != 0 || h.Checkpoints != 0 {
			t.Errorf("super-root: %d requests recorded, %d tasks resident, %d checkpoints retained", n, h.Tasks, h.Checkpoints)
		}
		if h.Made[0] != h.Free[0] || h.Made[1] != h.Free[1] || h.Made[2] < h.Free[2] || int64(h.Made[2]-h.Free[2]) > lost {
			t.Errorf("super-root: of tasks, hole records and packets made %v, back %v; at most %d packets may be out", h.Made[:3], h.Free[:3], lost)
		}
		if h.Made[0] == 0 || h.Made[2] == 0 {
			t.Errorf("super-root: free lists made %v: it installed nothing", h.Made)
		}
	}
	// survivors checks that every processor but dead holds no task and no
	// checkpoint.
	survivors := func(t *testing.T, c *Cluster, dead proto.ProcID) {
		for _, p := range c.procs {
			if h := p.w.Held(); p.id != dead && (h.Tasks != 0 || h.Checkpoints != 0) {
				t.Errorf("processor %d: %d tasks resident, %d checkpoints retained", p.id, h.Tasks, h.Checkpoints)
			}
		}
	}
	t.Run("fault-free", func(t *testing.T) {
		c, _ := stream(t, false, false)
		survivors(t, c, -1)
		var made, free [4]int
		for _, p := range c.procs {
			h := p.w.Held()
			for i := range made {
				made[i], free[i] = made[i]+h.Made[i], free[i]+h.Free[i]
			}
			if h.Made[0] != h.Free[0] || h.Made[1] != h.Free[1] || h.Made[2] != h.Free[2] {
				t.Errorf("processor %d: of tasks, hole records and packets made %v, back %v", p.id, h.Made[:3], h.Free[:3])
			}
		}
		if made[3] != free[3]+24 {
			t.Errorf("%d results made, %d back: want all but the 24 the super-root took", made[3], free[3])
		}
		if made[0] == 0 || made[2] == 0 {
			t.Errorf("free lists made %v: the stream ran nothing", made)
		}
		superRoot(t, c, 0)
	})
	t.Run("eval-error", func(t *testing.T) {
		c, failed := stream(t, true, false)
		survivors(t, c, -1)
		superRoot(t, c, int64(failed))
	})
	t.Run("eval-error-and-kill", func(t *testing.T) {
		c, failed := stream(t, true, true)
		survivors(t, c, 1)
		m, byNode := c.Root().Metrics()
		own := m.Reissues
		for _, r := range byNode {
			own -= r
		}
		superRoot(t, c, own+int64(failed))
	})
}
