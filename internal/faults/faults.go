// Package faults describes fault plans for the simulated machine. The paper
// assumes fail-silent processors (§1): a faulty node either voluntarily
// declares itself faulty (announced crash) or keeps silent and is identified
// by other processors via timeouts (silent crash). For the §5.3 replicated-
// task experiments a node may also corrupt computed values ("a faulty node
// may answer an inquiry with an invalid message") while otherwise behaving.
//
// A Plan is a list of (time, processor, kind) injections. Beyond hand-built
// single crashes, the builders in builders.go generate stress regimes the
// paper's experiments never reach: Burst (k simultaneous crashes drawn from
// a seed), Cascade (a failure spreading wave by wave along the interconnect
// with a per-neighbor spread probability), and Correlated (every processor
// within a hop radius of a center — a board or rack loss). Builders are
// pure functions of their arguments, so a seed pins the whole plan; Merge
// composes independently built plans into one.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/proto"
)

// Kind is the failure mode of one fault.
type Kind int

// Fault kinds.
const (
	// CrashAnnounced: the node halts and floods a fault announcement first
	// ("A faulty processor must voluntarily declare itself faulty" — §1).
	CrashAnnounced Kind = iota
	// CrashSilent: the node simply stops transmitting valid messages;
	// peers must detect it by heartbeat/ack timeout.
	CrashSilent
	// Corrupt: the node keeps running but perturbs every result value it
	// produces from the fault time on. Only majority voting (§5.3) can
	// mask it; the crash-recovery schemes are not designed for it.
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case CrashAnnounced:
		return "crash-announced"
	case CrashSilent:
		return "crash-silent"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one scheduled processor fault.
type Fault struct {
	At   int64 // virtual time
	Proc proto.ProcID
	Kind Kind
}

func (f Fault) String() string {
	return fmt.Sprintf("%v@t=%d:%v", f.Proc, f.At, f.Kind)
}

// Plan is a set of faults to inject during a run. *Plan is a flag.Value:
// Set reads a plan's command-line form and String writes it.
type Plan struct {
	Faults []Fault
}

// Set replaces the plan with the one spec lists, comma-separated:
// PROC@TIME is an announced crash, PROC@TIMEs a silent one and PROC@TIMEc
// value corruption from TIME on. The empty spec is the empty plan.
func (p *Plan) Set(spec string) error {
	if spec == "" {
		p.Faults = nil
		return nil
	}
	var plan []Fault
	for part := range strings.SplitSeq(spec, ",") {
		kind := CrashAnnounced
		if rest, ok := strings.CutSuffix(part, "s"); ok {
			part, kind = rest, CrashSilent
		} else if rest, ok := strings.CutSuffix(part, "c"); ok {
			part, kind = rest, Corrupt
		}
		procText, atText, ok := strings.Cut(part, "@")
		if !ok {
			return fmt.Errorf("bad fault %q (want PROC@TIME[s|c])", part)
		}
		proc, err := strconv.Atoi(procText)
		if err != nil {
			return fmt.Errorf("bad fault processor %q: %v", procText, err)
		}
		at, err := strconv.ParseInt(atText, 10, 64)
		if err != nil {
			return fmt.Errorf("bad fault time %q: %v", atText, err)
		}
		plan = append(plan, Fault{At: at, Proc: proto.ProcID(proc), Kind: kind})
	}
	p.Faults = plan
	return nil
}

// String is the spec Set reads back into the same plan: its faults in plan
// order, so every builder's plan has a command-line form.
func (p *Plan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = fmt.Sprintf("%d@%d%s", f.Proc, f.At, map[Kind]string{CrashSilent: "s", Corrupt: "c"}[f.Kind])
	}
	return strings.Join(parts, ",")
}

// None returns an empty plan.
func None() *Plan { return &Plan{} }

// Crash returns a plan with a single crash of proc at time t.
func Crash(proc proto.ProcID, t int64, announced bool) *Plan {
	k := CrashSilent
	if announced {
		k = CrashAnnounced
	}
	return &Plan{Faults: []Fault{{At: t, Proc: proc, Kind: k}}}
}

// Add appends a fault and returns the plan for chaining.
func (p *Plan) Add(f Fault) *Plan {
	p.Faults = append(p.Faults, f)
	return p
}

// Sorted returns the faults ordered by time (then processor) for
// deterministic injection.
func (p *Plan) Sorted() []Fault {
	out := append([]Fault(nil), p.Faults...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// Validate rejects plans that fault the host pseudo-processor or a
// processor index outside [0, n).
func (p *Plan) Validate(n int) error {
	for _, f := range p.Faults {
		if f.Proc < 0 || int(f.Proc) >= n {
			return fmt.Errorf("faults: processor %d out of range [0,%d)", f.Proc, n)
		}
		if f.At < 0 {
			return fmt.Errorf("faults: negative fault time %d", f.At)
		}
	}
	return nil
}
