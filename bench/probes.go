package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/balance"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/topology"
	"repro/internal/workload"
)

// A probe times one layer through its exported API, on inputs taken from
// the workloads, with nothing else running. Each timing is the best of
// probeReps repetitions: like the faster-half rule for passes, the fastest
// repetition is the one the scheduler disturbed least.
const probeReps = 5

// bestOf returns the shortest of probeReps runs of fn, in calibrated
// nanoseconds (see calib.go): the reference loop is read on both sides.
func bestOf(fn func()) float64 {
	before := calibrate(1)
	best := time.Duration(1<<63 - 1)
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		fn()
		best = min(best, time.Since(t))
	}
	return float64(best.Nanoseconds()) * scaleOf([]reading{before, calibrate(1)}).wall
}

// perOp is the best-of time of fn, which performs n operations, in ns/op.
func perOp(n int, fn func()) float64 { return bestOf(fn) / float64(n) }

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// drive evaluates fn(args) sequentially through the partial-reduction API
// the machine uses — Flatten, then Resume with every demand's value — over
// the whole call tree, returning the answer and Σ Outcome.Steps.
func drive(ep lang.EvalProgram, fn string, args []expr.Value) (expr.Value, int, error) {
	nextID := 0
	out, st, err := ep.Flatten(fn, args, &nextID)
	if err != nil {
		return nil, 0, err
	}
	steps := out.Steps
	for !out.Done {
		if len(out.Demands) == 0 {
			return nil, steps, fmt.Errorf("%s blocked with no demands", fn)
		}
		fills := make(map[int]expr.Value, len(out.Demands))
		for _, d := range out.Demands {
			v, s, err := drive(ep, d.Fn, d.Args)
			if err != nil {
				return nil, steps, err
			}
			fills[d.ID] = v
			steps += s
		}
		if out, st, err = ep.Resume(st, fills, &nextID); err != nil {
			return nil, steps, err
		}
		steps += out.Steps
	}
	return out.Value, steps, nil
}

// probeLang times both evaluators on the call tree of binom:16,8 and the
// compile and reference-evaluation costs set-up pays.
func probeLang(specs []string, out map[string]float64) error {
	w, err := core.StandardWorkload("binom:16,8")
	if err != nil {
		return err
	}
	want, err := lang.RefEval(w.Program, w.Fn, w.Args)
	if err != nil {
		return err
	}
	for _, name := range []string{"compiled", "interp"} {
		ev, err := lang.EvaluatorByName(name)
		if err != nil {
			return err
		}
		ep, err := ev.Compile(w.Program)
		if err != nil {
			return err
		}
		got, steps, err := drive(ep, w.Fn, w.Args)
		if err != nil {
			return err
		}
		if !got.Equal(want) {
			return fmt.Errorf("lang probe: %s driver answered %v, reference %v", name, got, want)
		}
		out["lang."+name+".ns_per_step"] = perOp(steps, func() { sink, _, _ = drive(ep, w.Fn, w.Args) })
	}

	compiled, err := lang.EvaluatorByName(evalName)
	if err != nil {
		return err
	}
	// Fresh programs each repetition: Compile memoises by program identity.
	out["lang.compile_us"] = perOp(1, func() {
		shape, _, err := workload.Build(workload.Uniform(4, 5, 200))
		if err != nil {
			panic(err) // a fixed, valid shape
		}
		for _, p := range []*lang.Program{lang.Fib(), lang.NQueens(), shape} {
			sink, _ = compiled.Compile(p)
		}
	}) / 1e3 / 3
	var ws []core.Workload
	for _, s := range specs {
		w, err := core.StandardWorkload(s)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	out["lang.refeval_us"] = perOp(len(ws), func() {
		for _, w := range ws {
			sink, _ = lang.RefEval(w.Program, w.Fn, w.Args)
		}
	}) / 1e3
	return nil
}

// probeSim times the event kernel alone: 64 owners × 4 self-rescheduling
// no-op timers, so the heap holds what a 64-processor machine's heartbeat
// timers put there, and every event is one pop, one dispatch and one push.
func probeSim(out map[string]float64) {
	const owners, degree, events = 64, 4, 400_000
	period := func(i int) sim.Time { return sim.Time(40 + i%13) }
	out["sim.ns_per_event"] = perOp(events, func() {
		k := sim.NewKernel(1)
		for i := 0; i < owners*degree; i++ {
			d := period(i)
			var tick func()
			tick = func() { k.After(d, tick) }
			k.After(d, tick)
		}
		k.Run(events)
		sink = k.Processed()
	})
	out["sim.sharded2.ns_per_event"] = perOp(events, func() {
		homes := make([]int32, owners)
		for i := range homes {
			homes[i] = int32(i * 2 / owners)
		}
		s := sim.NewSharded(1, 2, homes, 8)
		defer s.Close()
		for i := 0; i < owners*degree; i++ {
			d, k := period(i), s.Shard(s.HomeOf(int32(i/degree)))
			var tick func()
			tick = func() { k.After(d, tick) }
			s.AtOn(d, int32(i/degree), tick)
		}
		s.Run(events)
		sink = s.Processed()
	})
}

// fakeView is a fault-free 64-node machine as a placement policy sees it.
// Like the machine's own view it keeps a faulty count, so PickDest takes the
// path a fault-free run takes.
type fakeView struct{ rng *rand.Rand }

func (fakeView) FaultyCount() int { return 0 }

func (fakeView) Self() proto.ProcID                { return 0 }
func (fakeView) Size() int                         { return 64 }
func (fakeView) QueueLen() int                     { return 0 }
func (fakeView) Neighbors() []proto.ProcID         { return nil }
func (fakeView) NeighborGradient(proto.ProcID) int { return balance.MaxGradient }
func (fakeView) IsFaulty(proto.ProcID) bool        { return false }
func (v fakeView) Rand() *rand.Rand                { return v.rng }

// probeMachine times what surrounds the evaluator on the fault-free path:
// building a machine, placing a task, stamping it, and retaining, settling
// and releasing its checkpoint.
func probeMachine(out map[string]float64) error {
	w, err := core.StandardWorkload("fib:18")
	if err != nil {
		return err
	}
	cfg := core.Config{Procs: 64, Topology: "mesh", Recovery: "rollback", Seed: 1, Eval: evalName, Shards: 1}
	if _, err := cfg.Build(w.Program); err != nil {
		return err
	}
	out["machine.build_us"] = perOp(1, func() { sink, _ = cfg.Build(w.Program) }) / 1e3

	const n = 100_000
	view, pol := fakeView{rand.New(rand.NewSource(1))}, balance.NewRandom()
	out["balance.pick_ns"] = perOp(n, func() {
		var d proto.ProcID
		for i := 0; i < n; i++ {
			d += pol.PickDest(view, proto.TaskKey{})
		}
		sink = d
	})

	out["topology.build_us"] = perOp(3, func() {
		sink, _ = topology.Mesh2D(8, 8)
		sink, _ = topology.Torus(8, 8)
		sink, _ = topology.Hypercube(6)
	}) / 1e3
	torus, err := topology.Torus(8, 8)
	if err != nil {
		return err
	}
	out["topology.partition_us"] = perOp(1, func() { sink = topology.Partition(torus, 2) }) / 1e3

	// 1 024 packets stamped as a 4-ary tree four levels deep below the
	// root — the shape of the checkpoints a parent processor retains.
	pkts := make([]*proto.TaskPacket, 0, 1024)
	for i := 0; len(pkts) < cap(pkts); i++ {
		path := []uint32{uint32(i & 3), uint32(i >> 2 & 3), uint32(i >> 4 & 3), uint32(i >> 6 & 3), uint32(i >> 8)}
		pkts = append(pkts, &proto.TaskPacket{
			Key: proto.TaskKey{Stamp: stamp.FromPath(path[:1+i%len(path)]...), Rep: proto.Rep(i)},
			Fn:  "fib", Args: []expr.Value{expr.VInt(int64(i))},
		})
	}
	out["checkpoint.retain_release_ns"] = perOp(len(pkts), func() {
		s := checkpoint.NewStore()
		for _, p := range pkts {
			s.Retain(p)
			s.Settle(p.Key, 3)
		}
		for _, p := range pkts {
			s.Release(p.Key)
		}
		sink = s
	})
	store := checkpoint.NewStore()
	for _, p := range pkts {
		store.Retain(p)
		store.Settle(p.Key, 3)
	}
	out["checkpoint.topmost_us"] = perOp(1, func() { sink, _ = store.TopmostFor(3) }) / 1e3

	deep := stamp.FromPath(1, 2, 3, 4, 5, 6, 7, 8)
	out["stamp.child_ns"] = perOp(n, func() {
		var c stamp.Stamp
		for i := 0; i < n; i++ {
			c = deep.Child(uint32(i))
		}
		sink = c
	})
	leaf := deep.Child(9)
	out["stamp.ancestor_ns"] = perOp(n, func() {
		hits := 0
		for i := 0; i < n; i++ {
			if deep.IsAncestorOf(leaf) {
				hits++
			}
		}
		sink = hits
	})
	return nil
}

// probeCodec times the wire formats the net backend really encodes: a spawn
// frame (program index + task packet), a result frame and a heartbeat, built
// from the request mix; and the value codec on ints and a 64-element list.
func probeCodec(out map[string]float64) error {
	arg := []expr.Value{expr.VInt(12)}
	key := proto.TaskKey{Stamp: stamp.FromPath(3, 1, 0, 2)}
	parent := proto.Addr{Proc: 2, Task: proto.TaskKey{Stamp: stamp.FromPath(3, 1, 0)}}
	pkt := &proto.TaskPacket{Key: key, Gen: 1, Fn: "fib", Args: arg, Parent: parent, HoleID: 2, Replicas: 1}
	res := &proto.Result{Child: key, ParentTask: parent.Task, HoleID: 2, Value: expr.VInt(144)}
	encode := []func() *proto.Frame{
		func() *proto.Frame {
			return &proto.Frame{Type: proto.FrameSpawn, From: 2, To: 1, Payload: append([]byte{0, 0}, proto.EncodePacket(pkt)...)}
		},
		func() *proto.Frame {
			return &proto.Frame{Type: proto.FrameResult, From: 1, To: 2, Payload: proto.EncodeResult(res)}
		},
		func() *proto.Frame { return &proto.Frame{Type: proto.FrameHeartbeat, From: 1, To: proto.HostID} },
	}
	var wire [][]byte
	var total int
	for _, e := range encode {
		b := proto.AppendFrame(nil, e())
		wire = append(wire, b)
		total += len(b)
	}
	out["proto.bytes_per_frame"] = float64(total) / float64(len(wire))

	const n = 20_000
	buf := make([]byte, 0, 256)
	out["proto.encode_ns_per_frame"] = perOp(n*len(encode), func() {
		for i := 0; i < n; i++ {
			for _, e := range encode {
				buf = proto.AppendFrame(buf[:0], e())
			}
		}
	})
	var decodeErr error
	out["proto.decode_ns_per_frame"] = perOp(n*len(wire), func() {
		for i := 0; i < n; i++ {
			for _, b := range wire {
				f, err := proto.ReadFrame(bytes.NewReader(b))
				if err != nil {
					decodeErr = err
					return
				}
				switch f.Type {
				case proto.FrameSpawn:
					sink, err = proto.DecodePacket(f.Payload[2:])
				case proto.FrameResult:
					sink, err = proto.DecodeResult(f.Payload)
				}
				if err != nil {
					decodeErr = err
					return
				}
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("proto probe: %w", decodeErr)
	}

	xs := make([]int64, 64)
	for i := range xs {
		xs[i] = int64(i * 7919)
	}
	vals := []expr.Value{expr.VInt(12), expr.VInt(-1 << 40), expr.IntList(xs...)}
	var encoded [][]byte
	for _, v := range vals {
		encoded = append(encoded, expr.EncodeValue(v))
	}
	out["expr.encode_ns_per_value"] = perOp(n*len(vals), func() {
		for i := 0; i < n; i++ {
			for _, v := range vals {
				buf = expr.AppendValue(buf[:0], v)
			}
		}
	})
	out["expr.decode_ns_per_value"] = perOp(n*len(encoded), func() {
		for i := 0; i < n; i++ {
			for _, b := range encoded {
				if sink, _, decodeErr = expr.DecodeValue(b); decodeErr != nil {
					return
				}
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("expr probe: %w", decodeErr)
	}
	return nil
}

// probeB1 times the two B1 profile targets the way internal/experiments'
// B1WallTime calls them (compiled evaluator, one shard), so the BENCH_4→8
// trajectory continues in this benchmark's output.
func probeB1(out map[string]float64) error {
	w, err := core.StandardWorkload("fib:13")
	if err != nil {
		return err
	}
	cell := func() error {
		rep, err := core.Config{Procs: 64, Seed: 1, Recovery: "rollback", Topology: "mesh",
			Shards: 1, Eval: evalName}.Run(w, nil)
		if err == nil && (rep.Err != nil || !rep.Completed) {
			err = fmt.Errorf("B1 S1-64 cell incomplete")
		}
		return err
	}
	// The stream driver builds its configs internally, so B1 passes the
	// evaluator in on the process default; so does this probe.
	saved := core.DefaultEval
	core.DefaultEval = evalName
	defer func() { core.DefaultEval = saved }()
	stream := func() error {
		_, err := experiments.L3StreamThroughput("sim", 1)
		return err
	}
	for _, t := range []struct {
		name string
		run  func() error
	}{{"experiments.b1_s1_cell_ms", cell}, {"experiments.b1_l3_stream_ms", stream}} {
		if err := t.run(); err != nil { // warm-up, as B1 does
			return err
		}
		var runErr error
		out[t.name] = perOp(1, func() {
			if err := t.run(); err != nil {
				runErr = err
			}
		}) / 1e6
		if runErr != nil {
			return runErr
		}
	}
	return nil
}

// runProbes fills out with every probe metric.
func runProbes(specs []string, out map[string]float64) error {
	if err := probeLang(specs, out); err != nil {
		return err
	}
	probeSim(out)
	if err := probeMachine(out); err != nil {
		return err
	}
	if err := probeCodec(out); err != nil {
		return err
	}
	return probeB1(out)
}
