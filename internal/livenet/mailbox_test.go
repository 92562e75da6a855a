package livenet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/stamp"
)

// TestMailbox: senders push while a receiver takes whole batches and waits
// only on an empty queue, as a node's loop does. Every message arrives exactly
// once and in its sender's order, and no wakeup is lost — neither under
// contention nor for a lone message pushed into an empty queue, where a lost
// one leaves the receiver waiting. Once killed, the mailbox reports what it
// held and refuses every later push.
func TestMailbox(t *testing.T) {
	const senders, each = 8, 5000
	c := &Cluster{}
	p := &proc{c: c}
	p.wake.L = &p.mu
	p.alive.Store(true)
	got := make(chan mail, 64)
	go func() {
		defer close(got)
		for batch, ok := p.take(nil, true); ok; batch, ok = p.take(batch, true) {
			for _, m := range batch {
				got <- m
			}
		}
	}()
	recv := func() int {
		select {
		case m := <-got:
			return int(m.from)
		case <-time.After(10 * time.Second):
			t.Fatal("no message for 10s with one queued: a lost wakeup")
			return 0
		}
	}

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// from carries the sender and its sequence number.
				if !p.push(mail{from: proto.ProcID(s*each + i)}) {
					t.Error("a live mailbox refused a push")
					return
				}
			}
		}()
	}
	next := make([]int, senders)
	for range senders * each {
		m := recv()
		if s, i := m/each, m%each; i != next[s] {
			t.Fatalf("sender %d: message %d arrived when %d was due", s, i, next[s])
		}
		next[m/each]++
	}
	wg.Wait()
	for i := range 1000 { // one at a time, so a push mostly finds the receiver waiting
		p.push(mail{from: proto.ProcID(i)})
		if m := recv(); m != i {
			t.Fatalf("lone message %d arrived as %d", i, m)
		}
	}
	c.stopping.Store(true)
	p.mu.Lock()
	p.wake.Signal()
	p.mu.Unlock()
	for m := range got {
		t.Fatalf("message %d arrived beyond those sent", m.from)
	}

	for range 3 {
		p.push(mail{from: 1})
	}
	if n, ok := p.kill(); n != 3 || !ok {
		t.Errorf("kill swallowed %d queued messages (%v), want 3 (true)", n, ok)
	}
	if p.push(mail{from: 1}) {
		t.Error("a dead mailbox accepted a push")
	}
	if n, ok := p.kill(); n != 0 || ok {
		t.Errorf("a second kill swallowed %d (%v), want 0 (false)", n, ok)
	}
	if batch, _ := p.take(nil, true); len(batch) != 0 {
		t.Errorf("a dead mailbox handed out %d messages", len(batch))
	}
}

// TestKillCountsWhatTheDeadSwallowed: the host streams leaf tasks at node 1
// and kills it midway, while it is working through its mailbox. Each leaf
// node 1 handled sent one result to node 0, so every one of the rest — still
// queued at the kill, taken but not yet handled, or sent after it — must be
// counted in fault.blackholed.
func TestKillCountsWhatTheDeadSwallowed(t *testing.T) {
	const n = 20000
	prog := lang.MustParse("fn leaf(x) = x + 1")
	for round := 0; round < 4; round++ {
		c, err := New(node.Spec{Procs: 2, Seed: int64(round)})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadProgram(0, prog); err != nil {
			c.Shutdown()
			t.Fatal(err)
		}
		parent := proto.Addr{Proc: 0, Task: proto.TaskKey{Stamp: stamp.FromPath(0)}}
		for i := 0; i < n; i++ {
			if i == n/2 {
				if err := c.Kill(1); err != nil {
					c.Shutdown()
					t.Fatal(err)
				}
			}
			c.Send(proto.Msg{Type: proto.MsgTask, From: proto.HostID, To: 1, Task: &proto.TaskPacket{Key: proto.TaskKey{Stamp: stamp.FromPath(0, uint32(i))},
				Fn: "leaf", Args: []expr.Value{expr.VInt(int64(i))}, Parent: parent, HoleID: i}})
		}
		c.Shutdown()
		m, _ := c.Root().Metrics()
		if m.MsgTask != n || m.MsgResult > n/2 {
			t.Fatalf("round %d: %d packets and %d results sent, want %d and at most %d", round, m.MsgTask, m.MsgResult, n, n/2)
		}
		if m.Blackholed != n-m.MsgResult {
			t.Errorf("round %d: node 1 handled %d of %d packets and %d were counted swallowed, want %d",
				round, m.MsgResult, n, m.Blackholed, n-m.MsgResult)
		}
	}
}
