package faults

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/proto"
	"repro/internal/topology"
)

func TestCrashPlan(t *testing.T) {
	p := Crash(3, 100, true)
	if len(p.Faults) != 1 {
		t.Fatalf("faults = %d", len(p.Faults))
	}
	f := p.Faults[0]
	if f.Proc != 3 || f.At != 100 || f.Kind != CrashAnnounced {
		t.Fatalf("fault = %+v", f)
	}
	p = Crash(2, 50, false)
	if p.Faults[0].Kind != CrashSilent {
		t.Fatal("silent crash kind wrong")
	}
}

func TestAddChainsAndSorted(t *testing.T) {
	p := None().
		Add(Fault{At: 300, Proc: 1, Kind: CrashSilent}).
		Add(Fault{At: 100, Proc: 2, Kind: CrashAnnounced}).
		Add(Fault{At: 100, Proc: 0, Kind: Corrupt})
	s := p.Sorted()
	if len(s) != 3 {
		t.Fatalf("sorted = %d", len(s))
	}
	if s[0].Proc != 0 || s[1].Proc != 2 || s[2].Proc != 1 {
		t.Fatalf("order wrong: %v", s)
	}
	// Sorted must not mutate the original.
	if p.Faults[0].At != 300 {
		t.Fatal("Sorted mutated the plan")
	}
}

func TestValidate(t *testing.T) {
	ok := Crash(3, 10, true)
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := ok.Validate(3); err == nil {
		t.Error("out-of-range processor accepted")
	}
	bad := None().Add(Fault{At: -1, Proc: 0})
	if err := bad.Validate(4); err == nil {
		t.Error("negative time accepted")
	}
	neg := None().Add(Fault{At: 5, Proc: -1})
	if err := neg.Validate(4); err == nil {
		t.Error("negative processor accepted")
	}
}

func TestStrings(t *testing.T) {
	if !strings.Contains(CrashAnnounced.String(), "announced") {
		t.Error(CrashAnnounced.String())
	}
	if !strings.Contains(CrashSilent.String(), "silent") {
		t.Error(CrashSilent.String())
	}
	if Corrupt.String() != "corrupt" {
		t.Error(Corrupt.String())
	}
	if !strings.HasPrefix(Kind(99).String(), "Kind(") {
		t.Error("unknown kind fallback missing")
	}
	f := Fault{At: 7, Proc: 2, Kind: CrashSilent}
	if !strings.Contains(f.String(), "t=7") {
		t.Error(f.String())
	}
}

// TestPlanFlagForm: Set reads a spec in plan order and String writes it back,
// for a literal spec and for every builder's plan.
func TestPlanFlagForm(t *testing.T) {
	var p Plan
	if err := p.Set("2@3000,1@4000s,5@100c"); err != nil {
		t.Fatal(err)
	}
	want := []Fault{{3000, 2, CrashAnnounced}, {4000, 1, CrashSilent}, {100, 5, Corrupt}}
	if !slices.Equal(p.Faults, want) || p.String() != "2@3000,1@4000s,5@100c" {
		t.Fatalf("Set gave %v, printed %q", p.Faults, p.String())
	}
	torus, err := topology.ByName("torus", 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, built := range []*Plan{
		None(),
		Burst(64, 12, 3000, CrashSilent, 33),
		Cascade(torus, 10, 2000, 1000, 2, 0.5, CrashSilent, 141),
		Correlated(torus, 5, 1, 700, CrashAnnounced),
		Crash(3, 9, true).Merge(Burst(16, 2, 40, Corrupt, 1)),
	} {
		var again Plan
		if err := again.Set(built.String()); err != nil || !slices.Equal(again.Faults, built.Faults) {
			t.Errorf("%q reads back as %v, %v; want %v", built.String(), again.Faults, err, built.Faults)
		}
	}
}

// FuzzPlanSet: any spec is an error or a plan that String writes back into
// itself, and so is any plan with one more fault of any kind.
func FuzzPlanSet(f *testing.F) {
	f.Add("10@2000s,9@3000s,11@3000s,14@3000s,2@4000s,7@4000s,13@4000s,15@4000s", int32(7), int64(4000), uint8(1))
	f.Add("30@3000s,57@3000s,53@3000s,6@3000s,61@3000s,17@3000s,9@3000s,52@3000s,62@3000s,15@3000s,41@3000s,40@3000s", int32(0), int64(0), uint8(2))
	f.Add("", int32(-1), int64(-5), uint8(0))
	f.Add("+3@-0c,2-3000", int32(1<<30), int64(1)<<62, uint8(5))
	f.Fuzz(func(t *testing.T, spec string, proc int32, at int64, kind uint8) {
		var p Plan
		if p.Set(spec) != nil {
			p = Plan{}
		}
		for _, plan := range []Plan{p, {Faults: append(slices.Clone(p.Faults), Fault{at, proto.ProcID(proc), Kind(kind % 3)})}} {
			var again Plan
			if err := again.Set(plan.String()); err != nil || !slices.Equal(again.Faults, plan.Faults) {
				t.Fatalf("%q: %q reads back as %v, %v; want %v", spec, plan.String(), again.Faults, err, plan.Faults)
			}
		}
	})
}
