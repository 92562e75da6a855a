package faults

import (
	"strings"
	"testing"
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
