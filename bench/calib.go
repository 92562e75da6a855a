package main

import (
	"sync"
	"time"
)

// The sandbox this benchmark was sized on changes speed under it: the best
// of many back-to-back runs of a fixed 10 ms loop drifts between 8 and 14 ms
// over tens of seconds, in CPU time as much as in wall time, so it is the
// machine executing slower (shared cores and caches), not the process
// waiting. No estimator inside a 15 s run can average that away, and two
// commits measured a minute apart would differ by more than any bound.
//
// So every host-time metric is reported in calibrated time: a fixed
// reference loop — integer arithmetic plus random access over 4 MiB, the mix
// the simulator's heap and the evaluator present to the machine — is timed
// beside each pass, each set-up and each probe, and the measured time is
// scaled by (the loop's time on a quiet sandbox ÷ its time just now). A
// calibrated second is a second on the quiet sandbox. The raw times and the
// scale factors are written to the results file next to the calibrated ones.

// calibWords sizes the reference loop's working set: 4 MiB, past the L2.
const calibWords = 1 << 19

// calibThreadsMax bounds how many copies of the loop one reading runs side
// by side, each on its own buffer.
const calibThreadsMax = 2

var calibBufs [calibThreadsMax][calibWords]uint64

// calibReps loops make one reading; calibNominal is what a reading takes on
// the quiet sandbox (the fastest tenth of readings over several minutes).
const (
	calibReps    = 16
	calibNominal = 22 * time.Millisecond
	// calibEvery is how much measured work may pass between readings.
	calibEvery = 300 * time.Millisecond
)

// calibLoop is the reference work: one xorshift step and one dependent
// read-modify-write per word.
func calibLoop(buf *[calibWords]uint64) {
	x := uint64(88172645463325252)
	for range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&(calibWords-1)] += x
	}
}

// reading is one timing of the reference loop: wall time until every thread
// has finished, CPU time per thread.
type reading struct{ wall, cpu time.Duration }

// calibrate reads the reference loop on `threads` goroutines at once. A
// single-threaded simulator pass is read with one. The closed loops keep
// both cores busy (ten goroutines, or four processes and a hub), and lose
// half their throughput whenever the host withholds one core — which a
// one-thread reading cannot see and a two-thread reading does.
func calibrate(threads int) reading {
	u0, t0 := readUsage(), time.Now()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(buf *[calibWords]uint64) {
			defer wg.Done()
			for i := 0; i < calibReps; i++ {
				calibLoop(buf)
			}
		}(&calibBufs[t])
	}
	wg.Wait()
	return reading{time.Since(t0), (readUsage().self - u0.self) / time.Duration(threads)}
}

// scale is the factor that turns a time measured beside the readings into
// calibrated time, for wall and for CPU time.
type scale struct{ wall, cpu float64 }

func scaleOf(rs []reading) scale {
	var w, c time.Duration
	for _, r := range rs {
		w += r.wall
		c += r.cpu
	}
	n := time.Duration(len(rs))
	return scale{float64(calibNominal) / float64(w/n), float64(calibNominal) / float64(c/n)}
}
