package core

import (
	"testing"

	"repro/internal/expr"
)

// This file pins the recovery-window accounting of ServiceReport's
// DuringRecovery/OutsideRecovery counters against the edge cases a stream
// of real faults produces: overlapping windows, faults stamped after the
// last completion, and single requests spanning several disjoint windows.
// The tickets are synthetic (fakeStreamReq), so each case controls the
// request intervals and fault stamps exactly.

// fakeStreamReq resolves a ticket with a canned outcome.
type fakeStreamReq struct{ out Outcome }

func (f fakeStreamReq) Wait() Outcome { return f.out }

// completedTicket fabricates a completed request with the given stream
// interval.
func completedTicket(req int, arrived, done int64) *Ticket {
	return &Ticket{req: fakeStreamReq{out: Outcome{
		Request: req, Offered: arrived, Installed: arrived, Settled: done, Answer: expr.VInt(1),
	}}}
}

// windowReport folds synthetic tickets and fault stamps through the real
// report builder.
func windowReport(tickets []*Ticket, stamps []int64) *ServiceReport {
	c := &Cluster{backend: "sim", unit: Ticks, tickets: tickets, stamps: stamps}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buildServiceReportLocked(nil)
}

// TestWindowAccountingOverlap: two overlapping recovery windows (fault
// stamps 100 and 120) inside one request's service interval count the
// request once, not once per stamp.
func TestWindowAccountingOverlap(t *testing.T) {
	sr := windowReport([]*Ticket{
		completedTicket(0, 90, 150),  // spans both stamps
		completedTicket(1, 105, 115), // between the stamps, contains neither
		completedTicket(2, 118, 130), // spans only the second
	}, []int64{100, 120})
	if sr.DuringRecovery != 2 || sr.OutsideRecovery != 1 {
		t.Fatalf("during/outside = %d/%d, want 2/1\n%s",
			sr.DuringRecovery, sr.OutsideRecovery, sr.Render())
	}
	if sr.DuringRecovery+sr.OutsideRecovery != sr.Completed {
		t.Fatalf("window counters %d+%d do not partition %d completed",
			sr.DuringRecovery, sr.OutsideRecovery, sr.Completed)
	}
}

// TestWindowAccountingFaultAfterLastCompletion: a fault stamped after every
// request has completed opens no window anyone was served during.
func TestWindowAccountingFaultAfterLastCompletion(t *testing.T) {
	sr := windowReport([]*Ticket{
		completedTicket(0, 0, 200),
		completedTicket(1, 150, 400),
	}, []int64{500})
	if sr.DuringRecovery != 0 || sr.OutsideRecovery != 2 {
		t.Fatalf("during/outside = %d/%d, want 0/2\n%s",
			sr.DuringRecovery, sr.OutsideRecovery, sr.Render())
	}
	// The stamp still appears in the report — the fault happened, it just
	// intersected nobody's service interval.
	if len(sr.FaultStamps) != 1 || sr.FaultStamps[0] != 500 {
		t.Fatalf("fault stamps = %v", sr.FaultStamps)
	}
}

// TestWindowAccountingSpansTwoDisjointWindows: a request whose interval
// contains two widely separated faults is one during-recovery completion,
// and the partition During+Outside = Completed still holds.
func TestWindowAccountingSpansTwoDisjointWindows(t *testing.T) {
	sr := windowReport([]*Ticket{
		completedTicket(0, 50, 350), // spans stamps 100 and 300
		completedTicket(1, 150, 250),
	}, []int64{300, 100}) // deliberately unsorted: the builder sorts
	if sr.Completed != 2 {
		t.Fatalf("completed = %d, want 2", sr.Completed)
	}
	if sr.DuringRecovery != 1 || sr.OutsideRecovery != 1 {
		t.Fatalf("during/outside = %d/%d, want 1/1 (no double count)\n%s",
			sr.DuringRecovery, sr.OutsideRecovery, sr.Render())
	}
	if sr.FaultStamps[0] != 100 || sr.FaultStamps[1] != 300 {
		t.Fatalf("fault stamps not sorted: %v", sr.FaultStamps)
	}
}

// TestWindowAccountingBoundaryStamps: window membership is inclusive on
// both ends — a fault at the admission tick or the completion tick counts.
func TestWindowAccountingBoundaryStamps(t *testing.T) {
	sr := windowReport([]*Ticket{
		completedTicket(0, 100, 200), // stamp exactly at admission
		completedTicket(1, 300, 400), // stamp exactly at completion
		completedTicket(2, 201, 299), // strictly between windows
	}, []int64{100, 400})
	if sr.DuringRecovery != 2 || sr.OutsideRecovery != 1 {
		t.Fatalf("during/outside = %d/%d, want 2/1\n%s",
			sr.DuringRecovery, sr.OutsideRecovery, sr.Render())
	}
}
