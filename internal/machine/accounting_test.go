package machine

import (
	"fmt"
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
// announced crash's dying gasp was once counted twice).
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

					cfg.Placement = balance.NewLocal()
					m = runMachine(t, cfg, prog, "fib", args, tc.plan).Metrics
					if m.MsgTask != 1 || m.MsgTaskAck != 1 || m.MsgResult != 1 || m.MsgResultAck != 1 {
						t.Errorf("local placement: task/ack/result/ack = %d/%d/%d/%d, want 1/1/1/1 (the root's trip over the host link; %d tasks stayed home)",
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
