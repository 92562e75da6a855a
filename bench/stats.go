package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// fasterHalfMedian is the headline estimator for wall- and CPU-time metrics:
// the median of the better half of the per-pass values. On a shared box a
// pass is either undisturbed or slowed — by a stolen core as much as 2× —
// and never sped up, so the slow half carries the noise and the fast half
// the program. higherBetter picks which end is "fast" (true for rates,
// false for durations).
func fasterHalfMedian(vals []float64, higherBetter bool) float64 {
	s := slices.Sorted(slices.Values(vals))
	if higherBetter {
		slices.Reverse(s)
	}
	return median(s[:(len(s)+1)/2])
}

// median of vals (mean of the middle two for an even count); vals need not
// be sorted.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vals))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// rank is the 1-based nearest-rank index of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank percentile of an ascending slice (0 when
// empty).
func percentile[T int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond is how many of n samples lie above the nearest-rank percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentiles are the candidates for "the highest percentile the sample
// supports", highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// supportedTail is the highest candidate percentile with at least ten
// samples beyond it, or 50 when the sample supports none: a tail read off
// fewer than ten samples is one scheduler hiccup, not a property.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// usage is one getrusage reading of this process and its reaped children.
type usage struct {
	self, children time.Duration // user+sys CPU
	selfRSSMB      float64       // ru_maxrss of this process
	childRSSMB     float64       // largest ru_maxrss among reaped children
}

func (u usage) cpu() time.Duration { return u.self + u.children }

func readUsage() usage {
	var s, c syscall.Rusage
	// Getrusage cannot fail for these two constants on a valid struct.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &s)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &c)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{
		self:       tv(s.Utime) + tv(s.Stime),
		children:   tv(c.Utime) + tv(c.Stime),
		selfRSSMB:  float64(s.Maxrss) / 1024, // linux reports KiB
		childRSSMB: float64(c.Maxrss) / 1024,
	}
}

// subSeed derives the i-th independent stream seed from the run seed
// (splitmix64), positive and non-zero because core.Config treats 0 as
// "default".
func subSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1
}
