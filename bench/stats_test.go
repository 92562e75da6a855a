package main

import "testing"

func TestFasterHalfMedian(t *testing.T) {
	durations := []float64{13, 60, 10, 50, 12, 11}
	if got := fasterHalfMedian(durations, false); got != 11 {
		t.Errorf("lower-better: median of the faster half of %v = %v, want 11 (of 10 11 12)", durations, got)
	}
	if got := fasterHalfMedian(durations, true); got != 50 {
		t.Errorf("higher-better: got %v, want 50 (of 60 50 13)", got)
	}
	// An odd count keeps the middle pass in the faster half.
	if got := fasterHalfMedian([]float64{5, 1, 4, 2, 3}, false); got != 2 {
		t.Errorf("five passes: got %v, want 2 (of 1 2 3)", got)
	}
	if got := fasterHalfMedian([]float64{7}, false); got != 7 {
		t.Errorf("one pass: got %v, want 7", got)
	}
	if got := fasterHalfMedian(nil, false); got != 0 {
		t.Errorf("no pass: got %v, want 0", got)
	}
	if durations[0] != 13 {
		t.Error("the estimator reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd count: got %v, want 5", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 1152)
	for i := range s {
		s[i] = int64(i + 1)
	}
	// ceil(0.99 × 1152) = 1141: eleven samples lie beyond the p99.
	if got := percentile(s, 99); got != 1141 {
		t.Errorf("p99 of 1..1152 = %d, want 1141", got)
	}
	if got := beyond(len(s), 99); got != 11 {
		t.Errorf("beyond p99 of 1152 = %d, want 11", got)
	}
	if got := percentile(s, 50); got != 576 {
		t.Errorf("p50 of 1..1152 = %d, want 576", got)
	}
	if got := percentile(s[:8], 99); got != 8 {
		t.Errorf("p99 of 8 samples = %d, want the maximum", got)
	}
	if got := percentile([]float64(nil), 50); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{8, 50},       // nothing has ten samples beyond it
		{100, 90},     // p90 leaves exactly ten
		{150, 90},     // p95 would leave seven
		{1152, 99},    // eleven beyond p99, one beyond p99.9
		{1500, 99},    // fifteen beyond p99
		{20000, 99.9}, // twenty beyond p99.9
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSubSeed(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, 2, -5, 1 << 40} {
		for i := 0; i < 16; i++ {
			s := subSeed(seed, i)
			if s <= 0 {
				t.Fatalf("subSeed(%d, %d) = %d, want > 0 (core.Config reads 0 as the default)", seed, i, s)
			}
			if seen[s] {
				t.Fatalf("subSeed(%d, %d) = %d repeats an earlier stream", seed, i, s)
			}
			seen[s] = true
		}
	}
	if subSeed(7, 3) != subSeed(7, 3) {
		t.Error("subSeed is not a function of its arguments")
	}
}
