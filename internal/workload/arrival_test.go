package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestParseArrival is the table-driven parser test: every accepted form,
// every malformed-spec error path.
func TestParseArrival(t *testing.T) {
	cases := []struct {
		spec    string
		want    Arrival
		wantErr string
	}{
		{spec: "arrive:poisson:0.02", want: Arrival{Spec: "arrive:poisson:0.02", Kind: ArrivePoisson, Rate: 0.02}},
		{spec: "arrive:poisson:1", want: Arrival{Spec: "arrive:poisson:1", Kind: ArrivePoisson, Rate: 1}},
		{spec: "arrive:uniform:150", want: Arrival{Spec: "arrive:uniform:150", Kind: ArriveUniform, Gap: 150}},
		{spec: "arrive:burst:4:800", want: Arrival{Spec: "arrive:burst:4:800", Kind: ArriveBurst, Size: 4, Gap: 800}},

		{spec: "poisson:0.02", want: Arrival{Spec: "arrive:poisson:0.02", Kind: ArrivePoisson, Rate: 0.02}},
		{spec: "burst:4:800", want: Arrival{Spec: "arrive:burst:4:800", Kind: ArriveBurst, Size: 4, Gap: 800}},

		{spec: "arrive", wantErr: `unknown arrival kind "arrive" in "arrive:arrive"`},
		{spec: "", wantErr: `unknown arrival kind "" in "arrive:"`},
		{spec: "arrive:zipf:2", wantErr: "unknown arrival kind"},
		{spec: "arrive:poisson", wantErr: "wants arrive:poisson:RATE"},
		{spec: "arrive:poisson:0.02:9", wantErr: "wants arrive:poisson:RATE"},
		{spec: "arrive:poisson:fast", wantErr: "bad rate"},
		{spec: "arrive:poisson:0", wantErr: "rate must be > 0"},
		{spec: "arrive:poisson:-1", wantErr: "rate must be > 0"},
		{spec: "arrive:poisson:NaN", wantErr: "bad rate"},
		{spec: "arrive:uniform", wantErr: "wants arrive:uniform:GAP"},
		{spec: "arrive:uniform:12.5", wantErr: "bad gap"},
		{spec: "arrive:uniform:0", wantErr: "gap must be > 0"},
		{spec: "arrive:uniform:-5", wantErr: "gap must be > 0"},
		{spec: "arrive:burst:4", wantErr: "wants arrive:burst:SIZE:GAP"},
		{spec: "arrive:burst:4:800:1", wantErr: "wants arrive:burst:SIZE:GAP"},
		{spec: "arrive:burst:0:800", wantErr: "bad burst size"},
		{spec: "arrive:burst:x:800", wantErr: "bad burst size"},
		{spec: "arrive:burst:4:0", wantErr: "bad burst gap"},
		{spec: "arrive:burst:4:y", wantErr: "bad burst gap"},
	}
	for _, c := range cases {
		got, err := ParseArrival(c.spec)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseArrival(%q) error = %v, want containing %q", c.spec, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseArrival(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseArrival(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

// schedule materializes the first n offsets Next yields for the seed.
func schedule(a Arrival, n int, seed int64) []int64 {
	next := a.Next(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

// TestScheduleDeterminism: the same (spec, seed) yields byte-identical
// schedules across repeated generations, and different seeds diverge for
// the stochastic process.
func TestScheduleDeterminism(t *testing.T) {
	specs := []string{"arrive:poisson:0.01", "arrive:uniform:120", "arrive:burst:4:900"}
	for _, spec := range specs {
		a, err := ParseArrival(spec)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			ref := fmt.Sprint(schedule(a, 64, seed))
			for rep := 0; rep < 3; rep++ {
				if got := fmt.Sprint(schedule(a, 64, seed)); got != ref {
					t.Fatalf("%s seed %d rep %d: schedule diverged\n%s\nvs\n%s", spec, seed, rep, ref, got)
				}
			}
		}
	}
	a, _ := ParseArrival("arrive:poisson:0.01")
	if fmt.Sprint(schedule(a, 64, 1)) == fmt.Sprint(schedule(a, 64, 2)) {
		t.Error("poisson schedules identical across seeds")
	}
}

// TestScheduleShape: offsets start at 0 and never decrease; uniform and
// burst schedules are exactly their closed forms.
func TestScheduleShape(t *testing.T) {
	for _, spec := range []string{"arrive:poisson:0.05", "arrive:uniform:50", "arrive:burst:3:200"} {
		a, err := ParseArrival(spec)
		if err != nil {
			t.Fatal(err)
		}
		sched := schedule(a, 32, 7)
		if sched[0] != 0 {
			t.Errorf("%s: first arrival at %d, want 0", spec, sched[0])
		}
		for i := 1; i < len(sched); i++ {
			if sched[i] < sched[i-1] {
				t.Errorf("%s: offsets decrease at %d: %v", spec, i, sched)
			}
		}
	}
	u, _ := ParseArrival("arrive:uniform:50")
	for i, at := range schedule(u, 10, 3) {
		if at != int64(i)*50 {
			t.Errorf("uniform offset %d = %d, want %d", i, at, i*50)
		}
	}
	b, _ := ParseArrival("arrive:burst:3:200")
	for i, at := range schedule(b, 12, 3) {
		if want := int64(i/3) * 200; at != want {
			t.Errorf("burst offset %d = %d, want %d", i, at, want)
		}
	}
}

// TestPoissonEmpiricalMean: over ≥3 seeds, the empirical mean inter-arrival
// gap of a long Poisson schedule lands within tolerance of 1/rate.
func TestPoissonEmpiricalMean(t *testing.T) {
	const rate = 0.01 // mean gap 100
	a, err := ParseArrival("arrive:poisson:0.01")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	for seed := int64(1); seed <= 4; seed++ {
		sched := schedule(a, n, seed)
		mean := float64(sched[n-1]) / float64(n-1)
		if want := 1 / rate; math.Abs(mean-want) > 0.1*want {
			t.Errorf("seed %d: empirical mean gap %.2f outside ±10%% of %.2f", seed, mean, want)
		}
	}
}
