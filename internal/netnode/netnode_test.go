package netnode

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
)

// testParentEnv marks a re-exec of the test binary as the disposable parent
// for TestNoOrphansAfterParentSIGKILL: bring up a cluster, print the node
// pids, and hang until killed.
const testParentEnv = "APSIM_NETNODE_TEST_PARENT"

// TestMain is the re-exec hook: a spawned node process enters ChildMain and
// never reaches the test runner — exactly the wiring cmd/apsim uses.
func TestMain(m *testing.M) {
	ChildMain()
	if os.Getenv(testParentEnv) == "1" {
		testParentMain()
	}
	os.Exit(m.Run())
}

func testParentMain() {
	c, err := New(node.Spec{Procs: 3, Seed: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	parts := make([]string, 0, 3)
	for _, pid := range c.Pids() {
		parts = append(parts, strconv.Itoa(pid))
	}
	fmt.Println(strings.Join(parts, " "))
	select {} // wait for the SIGKILL; teardown must come from the kernel
}

// procAlive reports whether pid names a running (non-zombie) process, via
// /proc so a zombie a slow init has not yet reaped still counts as dead.
func procAlive(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 || i+2 >= len(b) {
		return false
	}
	return b[i+2] != 'Z'
}

// requireAllDead polls until every pid is gone — the no-orphans acceptance
// assertion.
func requireAllDead(t *testing.T, pids []int) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("orphan check reads /proc")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		alive := 0
		for _, pid := range pids {
			if procAlive(pid) {
				alive++
			}
		}
		if alive == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d node processes still alive after teardown (pids %v)", alive, pids)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestNetBackendRegistered(t *testing.T) {
	b, err := core.ByName("net")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "net" {
		t.Fatalf("name = %q", b.Name())
	}
}

func TestClusterFaultFree(t *testing.T) {
	prog := lang.Fib()
	c, err := New(node.Spec{Procs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pids := c.Pids()
	defer requireAllDead(t, pids)
	r, err := c.Root().Submit(prog, "fib", []expr.Value{expr.VInt(12)})
	if err != nil {
		c.Shutdown()
		t.Fatal(err)
	}
	v, err := r.Wait(30*time.Second, nil)
	c.Shutdown() // the nodes' goodbyes carry the last of what they counted
	if err != nil {
		t.Fatal(err)
	}
	want, err := lang.RefEval(prog, "fib", []expr.Value{expr.VInt(12)})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(want) {
		t.Fatalf("fib(12) = %v over processes, want %v", v, want)
	}
	// Counts that repeat exactly: fib(12) is 465 tasks wherever they run. A
	// packet placed on its parent's node is spawned and is no message, nor
	// is its result; every other packet, the root's included, is one frame
	// through the hub and one frame back.
	got := c.Root().Snapshot()
	if got.Spawned != 465 || got.InPlace == 0 || got.Messages != 2*(got.Spawned-got.InPlace) || got.Drained != 0 {
		t.Errorf("spawned %d (%d in place), %d messages, %d drained; want 465 spawned, some in place, and two messages for each of the rest",
			got.Spawned, got.InPlace, got.Messages, got.Drained)
	}
	if got.Reissued != 0 {
		t.Errorf("fault-free run reissued %d packets", got.Reissued)
	}
	if got.Messages == 0 || got.MsgBytes <= got.Messages*proto.FrameHeaderSize/2 {
		t.Errorf("byte accounting implausible: %d msgs, %d bytes", got.Messages, got.MsgBytes)
	}
}

// TestClusterSurvivesTwoSIGKILLs crashes two node processes with SIGKILL
// while the task tree is mid-flight; the answer must still match the
// sequential reference — §2.1 determinacy across real process deaths.
func TestClusterSurvivesTwoSIGKILLs(t *testing.T) {
	prog := lang.Fib()
	c, err := New(node.Spec{Procs: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pids := c.Pids()
	defer requireAllDead(t, pids)
	defer c.Shutdown()
	r, err := c.Root().Submit(prog, "fib", []expr.Value{expr.VInt(16)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := c.Kill(4); err != nil {
		t.Fatal(err)
	}
	v, err := r.Wait(60*time.Second, nil)
	if err != nil {
		t.Fatalf("no answer after SIGKILLs: %v (%+v)", err, c.Root().Snapshot())
	}
	if !v.Equal(expr.VInt(987)) {
		t.Fatalf("fib(16) = %v after two SIGKILLs, want 987", v)
	}
	// The killed pids must already be gone — SIGKILL plus the eager reaper.
	if runtime.GOOS == "linux" {
		for _, id := range []int{1, 4} {
			if procAlive(pids[id]) {
				t.Errorf("SIGKILLed node %d (pid %d) still alive", id, pids[id])
			}
		}
	}
}

// TestEvalErrorKillsNoNodeProcess: a task that divides by zero fails its
// request at the super-root with the evaluator's typed error, carried as a
// flagged result frame, and every node process is still running afterwards —
// under rollback a node that died of it would have had the packet reissued to
// the next, and that one after it. The cluster then answers another request.
func TestEvalErrorKillsNoNodeProcess(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("liveness check reads /proc")
	}
	prog := lang.MustParse("fn f(x) = 10 / x\nfn main(n) = f(n) + f(n - 1)")
	c, err := New(node.Spec{Procs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pids := c.Pids()
	defer requireAllDead(t, pids)
	defer c.Shutdown()
	bad, err := c.Root().Submit(prog, "main", []expr.Value{expr.VInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Wait(30*time.Second, nil); !errors.Is(err, lang.ErrEval) || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("main(1): err = %v, want lang.ErrEval's division by zero", err)
	}
	good, err := c.Root().Submit(prog, "main", []expr.Value{expr.VInt(5)})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := good.Wait(30*time.Second, nil); err != nil || !v.Equal(expr.VInt(4)) {
		t.Fatalf("main(5) after the failure = %v, %v; want 4", v, err)
	}
	for i, pid := range pids {
		if !procAlive(pid) {
			t.Errorf("node %d (pid %d) died of an evaluation error", i, pid)
		}
	}
	if got := c.Root().Snapshot(); got.Reissued != 0 {
		t.Errorf("%d reissues: a node was taken for dead", got.Reissued)
	}
}

func TestKillValidation(t *testing.T) {
	c, err := New(node.Spec{Procs: 2, Seed: 7})
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
	// Death detection is the broken socket; give the router a moment.
	deadline := time.Now().Add(5 * time.Second)
	for c.Kill(1) == nil {
		if time.Now().After(deadline) {
			t.Fatal("double kill still accepted after 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNoOrphansAfterClose opens a net session the way Backend.Open does,
// runs a request, closes — and requires every node process gone.
func TestNoOrphansAfterClose(t *testing.T) {
	var c *Cluster
	sess, err := node.Open("net", core.Config{Procs: 4, Seed: 1, Deadline: int64(20 * time.Second / node.DefaultTimescale)},
		func(spec node.Spec) (node.Machine, error) {
			var err error
			c, err = New(spec)
			return c, err
		})
	if err != nil {
		t.Fatal(err)
	}
	pids := c.Pids()
	w, err := core.StandardWorkload("fib:10")
	if err != nil {
		t.Fatal(err)
	}
	req, err := sess.Submit(w)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := req.Wait()
	if err != nil || !rep.Completed {
		t.Fatalf("request failed: %v %+v", err, rep)
	}
	// A result for a task node 0 never had is drained there, and only the
	// node knows: the count comes home in its goodbye, the stats frame the
	// node must flush before it exits.
	if !c.push(c.children[0], proto.AppendFrame(nil, orphanResult(0))) {
		t.Fatal("node 0 refused a frame")
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.Root().Snapshot().Drained; got != 1 {
		t.Errorf("drained = %d after Close, want the 1 node 0 reported at shutdown", got)
	}
	requireAllDead(t, pids)
}

// TestNoOrphansAfterParentSIGKILL crashes the *parent* with SIGKILL — the
// case where no Go cleanup runs — and requires the kernel's pdeathsig to
// take the node processes down with it.
func TestNoOrphansAfterParentSIGKILL(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("pdeathsig is linux-only; elsewhere the socket watchdog covers parent *exit* only")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), testParentEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("parent never reported pids: %v", err)
	}
	var pids []int
	for _, f := range strings.Fields(strings.TrimSpace(line)) {
		pid, err := strconv.Atoi(f)
		if err != nil {
			t.Fatalf("bad pid line %q", line)
		}
		pids = append(pids, pid)
	}
	if len(pids) != 3 {
		t.Fatalf("pid line %q, want 3 pids", line)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	requireAllDead(t, pids)
}

// TestNetMatchesSimAnswer runs the same workload on the simulator and the
// process cluster and requires identical answers — the cross-substrate
// determinacy claim internal/node's TestSubstrateParity generalizes.
func TestNetMatchesSimAnswer(t *testing.T) {
	w, err := core.StandardWorkload("tak:8,5,2")
	if err != nil {
		t.Fatal(err)
	}
	simRep, err := core.Config{Procs: 4, Seed: 3}.Run(w, nil)
	if err != nil || !simRep.Completed {
		t.Fatalf("sim run failed: %v %+v", err, simRep)
	}
	netRep, err := core.Config{Procs: 4, Seed: 3}.RunOn("net", w, nil)
	if err != nil || !netRep.Completed {
		t.Fatalf("net run failed: %v %+v", err, netRep)
	}
	if !netRep.Answer.Equal(simRep.Answer) {
		t.Fatalf("answers diverge: sim %v, net %v", simRep.Answer, netRep.Answer)
	}
	if simRep.MsgBytes == 0 || netRep.MsgBytes == 0 {
		t.Fatalf("byte accounting missing: sim %d, net %d", simRep.MsgBytes, netRep.MsgBytes)
	}
	if len(netRep.ReissuesByNode) != 4 {
		t.Fatalf("per-node stats = %v, want 4 entries", netRep.ReissuesByNode)
	}
}
