package netnode

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"repro/internal/node"
)

// managedProc wraps one node process with eager reaping: a goroutine Waits
// on the process from the moment it starts, so a SIGKILLed node can never
// linger as a zombie mid-run, and Shutdown only has to wait on a channel.
type managedProc struct {
	cmd    *exec.Cmd
	waited chan struct{}
	once   sync.Once
}

// startNodeProc re-execs the current binary as node i. Configuration
// travels in the environment (the APSIM_NETNODE_* contract ChildMain
// reads); argv carries only the cosmetic marker so `ps` reads honestly and
// `pkill -f apsim-netnode` catches strays.
func startNodeProc(i int, spec node.Spec, addr string) (*managedProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, ArgvMarker, fmt.Sprintf("apsim-netnode-%d", i))
	cmd.Env = append(os.Environ(),
		NodeEnvID+"="+strconv.Itoa(i),
		NodeEnvProcs+"="+strconv.Itoa(spec.Procs),
		NodeEnvSeed+"="+strconv.FormatInt(spec.Seed, 10),
		NodeEnvAddr+"="+addr,
		NodeEnvEval+"="+spec.Eval,
	)
	// Children must not write the parent's stdout — artifact output is
	// byte-compared — but their panics should reach the operator.
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	setPdeathsig(cmd)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &managedProc{cmd: cmd, waited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.waited)
	}()
	return p, nil
}

// Pid is the node's OS process id.
func (p *managedProc) Pid() int { return p.cmd.Process.Pid }

// Kill SIGKILLs the process — abrupt disappearance, no cooperative path.
// Idempotent; killing an already-reaped process is a no-op.
func (p *managedProc) Kill() error {
	var err error
	p.once.Do(func() { err = p.cmd.Process.Kill() })
	return err
}

// WaitTimeout waits for the process to be reaped, up to d; false means it
// is still running.
func (p *managedProc) WaitTimeout(d time.Duration) bool {
	select {
	case <-p.waited:
		return true
	case <-time.After(d):
		return false
	}
}
