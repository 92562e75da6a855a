package machine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/balance"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestMessageAccounting is the contract of send, the one place a message is
// counted: a message is what was put on the wire, so it travelled at least
// one hop — exactly one where every pair of processors is adjacent — and a
// machine that places every task on the processor that spawned it sends task
// and result traffic over the host link only. Every topology kind at two
// sizes, fault-free and through one announced and one silent crash (an
// announced crash's dying gasp was once counted twice). Rollback places
// directly with the detector on, so a task costs its packet and its result
// and nothing acknowledges either: fault-free, no ack is sent at all, and at
// most one packet and one result per spawned task.
func TestMessageAccounting(t *testing.T) {
	prog, args := lang.Fib(), []expr.Value{expr.VInt(12)}
	for _, kind := range topology.Kinds() {
		for _, n := range []int{16, 64} {
			victims := faults.Crash(proto.ProcID(n/2), 150, true).Merge(faults.Crash(proto.ProcID(n-1), 250, false))
			for _, tc := range []struct {
				name string
				plan *faults.Plan
			}{{"fault-free", nil}, {"two crashes", victims}} {
				t.Run(fmt.Sprintf("%s-%d/%s", kind, n, tc.name), func(t *testing.T) {
					cfg := Config{Topo: mustTopo(t, kind, n), Scheme: recovery.Rollback(), Seed: 3, Deadline: 20_000}
					rep := runMachine(t, cfg, prog, "fib", args, tc.plan)
					m := rep.Metrics
					if tc.plan != nil && m.Failures != 2 {
						t.Fatalf("%d of the 2 crashes landed inside the run (makespan %d)", m.Failures, rep.Makespan)
					}
					msgs := m.TotalMessages()
					if m.HopsOnWire < msgs || (kind == "complete" && m.HopsOnWire != msgs) {
						t.Errorf("%d messages travelled %d hops: every message crosses at least one link, and exactly one on complete", msgs, m.HopsOnWire)
					}
					if tc.plan == nil && (m.MsgTaskAck != 0 || m.MsgResultAck != 0 || m.MsgTask > m.TasksSpawned || m.MsgResult > m.TasksSpawned) {
						t.Errorf("task/ack/result/ack = %d/%d/%d/%d for %d tasks, want at most one packet and one result each and no ack",
							m.MsgTask, m.MsgTaskAck, m.MsgResult, m.MsgResultAck, m.TasksSpawned)
					}

					cfg.Placement = balance.NewLocal()
					m = runMachine(t, cfg, prog, "fib", args, tc.plan).Metrics
					if m.MsgTask != 1 || m.MsgTaskAck != 0 || m.MsgResult != 1 || m.MsgResultAck != 0 {
						t.Errorf("local placement: task/ack/result/ack = %d/%d/%d/%d, want 1/0/1/0 (the root's trip over the host link; %d tasks stayed home)",
							m.MsgTask, m.MsgTaskAck, m.MsgResult, m.MsgResultAck, m.TasksSpawned)
					}
					if msgs := m.TotalMessages(); m.HopsOnWire < msgs {
						t.Errorf("local placement: %d messages travelled %d hops", msgs, m.HopsOnWire)
					}
				})
			}
		}
	}
}

// TestAcksOnlyWhereNeeded pins Config.acked on fault-free runs: a placement
// and a result are acknowledged only where the parent cannot know the
// destination as it sends (gradient), where no detector watches (heartbeats
// off) or where the scheme salvages orphan results (splice), and then every
// result once; elsewhere nothing is.
func TestAcksOnlyWhereNeeded(t *testing.T) {
	prog, args := lang.Fib(), []expr.Value{expr.VInt(10)}
	for _, tc := range []struct {
		name  string
		cfg   Config
		acked bool
	}{
		{"rollback", Config{Scheme: recovery.Rollback()}, false},
		{"incremental", Config{Scheme: recovery.Incremental()}, false},
		{"none", Config{}, false},
		{"splice", Config{Scheme: recovery.Splice()}, true},
		{"rollback/gradient", Config{Scheme: recovery.Rollback(), Placement: balance.NewGradient()}, true},
		{"rollback/no heartbeats", Config{Scheme: recovery.Rollback(), HeartbeatEvery: -1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Topo, tc.cfg.Seed = mustTopo(t, "mesh", 16), 5
			m := runMachine(t, tc.cfg, prog, "fib", args, nil).Metrics
			if acked := m.MsgTaskAck > 0 && m.MsgResultAck == m.MsgResult; acked != tc.acked || !acked && m.MsgTaskAck+m.MsgResultAck != 0 {
				t.Errorf("task/ack/result/ack = %d/%d/%d/%d, want acknowledged %v",
					m.MsgTask, m.MsgTaskAck, m.MsgResult, m.MsgResultAck, tc.acked)
			}
		})
	}
}

// TestHeartbeatCostClosedForm is the cost clause of the failure detector's
// contract: a machine with no request sends, per heartbeat period, one beat
// per directed neighbour pair and nothing else — k periods cost exactly
// k·Σdeg(p). The boundary: processor i first ticks at period+i and then once
// a period, so the run stops one tick short of processor 0's (k+1)-th tick,
// when every processor has ticked k times.
func TestHeartbeatCostClosedForm(t *testing.T) {
	const k = 7
	for _, kind := range []string{"mesh", "torus", "ring", "star", "complete"} {
		t.Run(kind, func(t *testing.T) {
			m, s := startIdle(t, kind, balance.NewRandom())
			every := m.cfg.HeartbeatEvery
			if sim.Time(m.n) > every {
				t.Fatalf("%d staggered processors do not fit one %d-tick period", m.n, every)
			}
			m.kern.RunUntil((k+1)*every-1, 0)
			got := s.Finish().Metrics

			var pairs int64 // Σdeg(p): directed neighbour pairs
			for p := 0; p < m.n; p++ {
				pairs += int64(len(m.cfg.Topo.Neighbors(topology.NodeID(p))))
			}
			if want := k * pairs; got.MsgHeartbeat != want || got.TotalMessages() != want || got.HopsOnWire != want {
				t.Errorf("%d idle periods: msg.heartbeat %d, all messages %d, hops %d; want %d·%d = %d each",
					k, got.MsgHeartbeat, got.TotalMessages(), got.HopsOnWire, k, pairs, want)
			}
		})
	}
}

// TestQuietGapCostClosedForm is the cost clause across a quiet gap: an idle
// gap costs exactly n quiet frames, n wake frames and no beat. Two requests
// with the machine idle between them send, beside their task traffic, those
// 2n frames and exactly the beats that fall inside the two epochs, walked
// here from each processor's schedule; the epochs close one hop after the
// host's quiet frame leaves, a hop after the first request settles, and open
// one hop after the second is installed. Lengthening the gap by whole periods
// moves no count.
func TestQuietGapCostClosedForm(t *testing.T) {
	const hop = DefaultMsgOverhead + DefaultHopCost
	for _, kind := range []string{"mesh", "torus", "ring", "star", "complete"} {
		t.Run(kind, func(t *testing.T) {
			var counts []int64
			for _, idle := range []sim.Time{4 * DefaultHeartbeatEvery, 12 * DefaultHeartbeatEvery} {
				m, s := startIdle(t, kind, balance.NewRandom())
				every := m.cfg.HeartbeatEvery
				reqs := serveIdling(t, m, s, 10, 1, idle)
				reqs = append(reqs, serveIdling(t, m, s, 10, 1, 0)...)
				want := epochs{0, reqs[0].DoneAt() + 2*hop, reqs[1].Arrival() + hop}
				if !slices.Equal(hb(m).epochs, want) {
					t.Fatalf("epochs %v, want %v", hb(m).epochs, want)
				}
				var beats int64
				for _, p := range m.procs {
					for sent := beatPhase(p.id, every) + every; sent < m.kern.Covered(); sent += every {
						if sent < want[1] || sent >= want[2] {
							beats += int64(len(p.neighbors))
						}
					}
				}
				got := s.Finish().Metrics.MsgHeartbeat
				if frames := got - beats; frames != 2*int64(m.n) {
					t.Errorf("idle %d: msg.heartbeat %d = %d beats + %d frames, want %d quiet and wake frames", idle, got, beats, frames, 2*m.n)
				}
				counts = append(counts, got)
			}
			if counts[0] != counts[1] {
				t.Errorf("msg.heartbeat %d with a gap of 4 periods, %d with 12", counts[0], counts[1])
			}
		})
	}
}
