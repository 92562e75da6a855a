// Open-loop arrival generation: seeded schedules of request admission
// offsets in stream-clock units. A closed-loop driver submits the next
// request when the previous one answers, so it can never push the system
// past its own latency; an open-loop generator admits on a schedule that
// ignores completions — the discipline saturation experiments need to find
// the knee of the load curve. Schedules are pure functions of (spec, seed),
// so every backend and every shard count sees the identical offered load.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// ArrivalKind names an arrival process.
type ArrivalKind string

// The three arrival processes.
const (
	// ArrivePoisson draws i.i.d. exponential inter-arrival gaps with the
	// given rate (requests per stream-clock unit).
	ArrivePoisson ArrivalKind = "poisson"
	// ArriveUniform spaces arrivals a fixed gap apart.
	ArriveUniform ArrivalKind = "uniform"
	// ArriveBurst admits size-request bursts a fixed gap apart.
	ArriveBurst ArrivalKind = "burst"
)

// Arrival is a parsed arrival spec: an open-loop admission process whose
// schedule is a deterministic function of the seed.
type Arrival struct {
	// Spec is the canonical spec string the arrival was parsed from.
	Spec string
	// Kind selects the process.
	Kind ArrivalKind
	// Rate is the Poisson arrival rate in requests per stream-clock unit
	// (poisson only).
	Rate float64
	// Gap is the fixed inter-arrival (uniform) or inter-burst (burst) gap in
	// stream-clock units.
	Gap int64
	// Size is the burst size (burst only).
	Size int
}

// ParseArrival parses an arrival spec, with or without its "arrive:" prefix:
//
//	arrive:poisson:RATE     exponential gaps at RATE req/unit (RATE > 0)
//	arrive:uniform:GAP      one request every GAP units (GAP > 0)
//	arrive:burst:SIZE:GAP   SIZE requests at once, bursts GAP apart
//
// Every malformed form is an error: wrong field count, non-numeric or
// non-positive parameters, unknown kinds, and trailing garbage all fail
// loudly rather than silently shaping the load. Errors and Arrival.Spec
// quote the spec with its prefix.
func ParseArrival(spec string) (Arrival, error) {
	spec = "arrive:" + strings.TrimPrefix(spec, "arrive:")
	fields := strings.Split(spec, ":")
	a := Arrival{Spec: spec, Kind: ArrivalKind(fields[1])}
	switch a.Kind {
	case ArrivePoisson:
		if len(fields) != 3 {
			return Arrival{}, fmt.Errorf("workload: arrival spec %q wants arrive:poisson:RATE", spec)
		}
		rate, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || math.IsNaN(rate) || math.IsInf(rate, 0) {
			return Arrival{}, fmt.Errorf("workload: arrival spec %q: bad rate %q", spec, fields[2])
		}
		if rate <= 0 {
			return Arrival{}, fmt.Errorf("workload: arrival spec %q: rate must be > 0", spec)
		}
		a.Rate = rate
	case ArriveUniform:
		if len(fields) != 3 {
			return Arrival{}, fmt.Errorf("workload: arrival spec %q wants arrive:uniform:GAP", spec)
		}
		gap, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return Arrival{}, fmt.Errorf("workload: arrival spec %q: bad gap %q", spec, fields[2])
		}
		if gap <= 0 {
			return Arrival{}, fmt.Errorf("workload: arrival spec %q: gap must be > 0", spec)
		}
		a.Gap = gap
	case ArriveBurst:
		if len(fields) != 4 {
			return Arrival{}, fmt.Errorf("workload: arrival spec %q wants arrive:burst:SIZE:GAP", spec)
		}
		size, err := strconv.Atoi(fields[2])
		if err != nil || size <= 0 {
			return Arrival{}, fmt.Errorf("workload: arrival spec %q: bad burst size %q", spec, fields[2])
		}
		gap, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || gap <= 0 {
			return Arrival{}, fmt.Errorf("workload: arrival spec %q: bad burst gap %q", spec, fields[3])
		}
		a.Size, a.Gap = size, gap
	default:
		return Arrival{}, fmt.Errorf("workload: unknown arrival kind %q in %q (poisson, uniform, burst)", fields[1], spec)
	}
	return a, nil
}

// Next returns a stateful generator of arrival offsets for the seed: each
// call yields the next request's admission offset in stream-clock units,
// starting at 0. The sequence is a pure function of (arrival, seed) — the
// determinism contract the admission schedules rely on.
func (a Arrival) Next(seed int64) func() int64 {
	rng := rand.New(rand.NewSource(seed))
	var t int64
	n := 0
	return func() int64 {
		cur := t
		switch a.Kind {
		case ArrivePoisson:
			gap := int64(math.Round(rng.ExpFloat64() / a.Rate))
			if gap < 0 { // overflow guard on absurd draws
				gap = math.MaxInt64 / 4
			}
			t += gap
		case ArriveUniform:
			t += a.Gap
		case ArriveBurst:
			n++
			if n%a.Size == 0 {
				t += a.Gap
			}
		}
		return cur
	}
}
