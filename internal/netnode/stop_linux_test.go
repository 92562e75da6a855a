package netnode

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/node"
)

// TestSIGSTOPWedgesToday pins a known defect as today's behaviour: a node
// process that stops without dying (SIGSTOP) keeps its socket open, so the
// super-root is never told of it and nothing placed on it is reissued. The
// node is stopped before the request is submitted, so the outcome does not
// depend on timing: fib(21) on 6 nodes places packets on it wherever the
// seed draws, and the request runs out of its deadline with no answer, no
// error and no reissue. A failure detector at the root flips this test: the
// stopped node is declared dead, its work reissued, and the request answers.
func TestSIGSTOPWedgesToday(t *testing.T) {
	const deadline = time.Second
	w, err := core.StandardWorkload("fib:21")
	if err != nil {
		t.Fatal(err)
	}
	var c *Cluster
	sess, err := node.Open("net", core.Config{Procs: 6, Seed: 3, Deadline: int64(deadline / node.DefaultTimescale)},
		func(spec node.Spec) (node.Machine, error) {
			var err error
			c, err = New(spec)
			return c, err
		})
	if err != nil {
		t.Fatal(err)
	}
	pids := c.Pids()
	defer requireAllDead(t, pids)
	if err := syscall.Kill(pids[1], syscall.SIGSTOP); err != nil {
		sess.Close()
		t.Fatal(err)
	}
	var o core.Outcome
	req, err := sess.Submit(w)
	if err == nil {
		o = req.Wait()
	}
	// Close waits for every node's goodbye, the stopped one's too.
	if err := syscall.Kill(pids[1], syscall.SIGCONT); err != nil {
		t.Error(err)
	}
	if _, err := sess.Close(); err != nil {
		t.Error(err)
	}
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if o.Request < 0 || o.Answer != nil || o.Err != nil {
		t.Errorf("outcome %+v with node 1 stopped, want an admitted request with no answer and no error: a timeout", o)
	}
	if got := totals(c).Reissued; got != 0 {
		t.Errorf("%d reissues: somebody was told of the stopped node", got)
	}
}
