package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestAdmissionQueuePolicy: a MaxInFlight-1 stream with the "queue" policy
// serializes a same-tick batch — every request completes, admissions are
// strictly ordered, and the queue's high-water mark is visible on the
// report.
func TestAdmissionQueuePolicy(t *testing.T) {
	cl, err := OpenOn("sim", Config{Procs: 8, Seed: 3, Recovery: "rollback",
		MaxInFlight: 1, Admission: "queue"})
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"fib:9", "fib:10", "fib:11"}
	for _, spec := range specs {
		if _, err := cl.SubmitSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != len(specs) || sr.Failed != 0 || sr.Shed != 0 {
		t.Fatalf("completed/failed/shed = %d/%d/%d\n%s",
			sr.Completed, sr.Failed, sr.Shed, sr.Render())
	}
	if sr.Offered != 3 || sr.Admitted != 3 {
		t.Fatalf("offered/admitted = %d/%d", sr.Offered, sr.Admitted)
	}
	if sr.QueueDepthMax != 2 {
		t.Fatalf("queue depth max = %d, want 2 (two held behind one slot)", sr.QueueDepthMax)
	}
	// One slot means strictly serial service: each admission at or after the
	// previous completion.
	reqs := sr.PerRequest
	for i := 1; i < len(reqs); i++ {
		if reqs[i].ArrivedAt < reqs[i-1].DoneAt {
			t.Fatalf("request %d admitted at %d before predecessor finished at %d\n%s",
				i, reqs[i].ArrivedAt, reqs[i-1].DoneAt, sr.Render())
		}
	}
}

// TestAdmissionShedPolicy: with one slot and the "shed" policy, a same-tick
// batch of three admits exactly one; the other two resolve immediately with
// the typed ErrShed, carry the Shed marker, and the ledger reconciles.
func TestAdmissionShedPolicy(t *testing.T) {
	cl, err := OpenOn("sim", Config{Procs: 8, Seed: 3, Recovery: "rollback",
		MaxInFlight: 1, Admission: "shed"})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for _, spec := range []string{"fib:9", "fib:10", "fib:11"} {
		tk, err := cl.SubmitSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	shed := 0
	for _, tk := range tickets {
		rep, err := tk.Wait()
		if errors.Is(err, ErrShed) {
			shed++
			if rep == nil || !rep.Shed || rep.Completed {
				t.Fatalf("shed report = %+v", rep)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if shed != 2 {
		t.Fatalf("shed tickets = %d, want 2", shed)
	}
	// Shedding is data, not a Drain error.
	if err := cl.Drain(); err != nil {
		t.Fatalf("Drain surfaced shed: %v", err)
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Offered != 3 || sr.Admitted != 1 || sr.Shed != 2 || sr.Completed != 1 || sr.Failed != 0 {
		t.Fatalf("ledger offered/admitted/shed/completed/failed = %d/%d/%d/%d/%d\n%s",
			sr.Offered, sr.Admitted, sr.Shed, sr.Completed, sr.Failed, sr.Render())
	}
	if sr.QueueDepthMax != 0 {
		t.Fatalf("queue depth max = %d under shed policy", sr.QueueDepthMax)
	}
	if got := strings.Count(sr.Render(), " shed"); got < 2 {
		t.Fatalf("Render shows %d shed markers, want >= 2:\n%s", got, sr.Render())
	}
}

// TestServiceReportReconciles is the Render regression test: every offered
// request — completed, shed, or failed before a report existed (submission
// error) — gets a PerRequest row, and the printed ledger always reconciles
// (Offered = Admitted + Shed, Admitted = Completed + Failed).
func TestServiceReportReconciles(t *testing.T) {
	cl, err := OpenOn("sim", Config{Procs: 8, Seed: 5, Recovery: "rollback",
		MaxInFlight: 1, Admission: "shed"})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"fib:9", "fib:10", "fib:11"} {
		if _, err := cl.SubmitSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	w, err := StandardWorkload("fib:9")
	if err != nil {
		t.Fatal(err)
	}
	// A submission error: resolves on the ticket with no report at all — the
	// case Render used to drop silently.
	bad := cl.Submit(Workload{Program: w.Program, Fn: "nosuch"})
	if _, err := bad.Wait(); err == nil {
		t.Fatal("bad submission succeeded")
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Offered != sr.Admitted+sr.Shed {
		t.Fatalf("offered %d != admitted %d + shed %d", sr.Offered, sr.Admitted, sr.Shed)
	}
	if sr.Admitted != sr.Completed+sr.Failed {
		t.Fatalf("admitted %d != completed %d + failed %d", sr.Admitted, sr.Completed, sr.Failed)
	}
	if sr.Offered != 4 || sr.Shed != 2 || sr.Failed != 1 || sr.Completed != 1 {
		t.Fatalf("ledger = offered %d shed %d failed %d completed %d\n%s",
			sr.Offered, sr.Shed, sr.Failed, sr.Completed, sr.Render())
	}
	if len(sr.PerRequest) != sr.Offered {
		t.Fatalf("%d rows for %d offered requests", len(sr.PerRequest), sr.Offered)
	}
	render := sr.Render()
	if got := strings.Count(render, "  req "); got != sr.Offered {
		t.Fatalf("Render has %d request rows, want %d:\n%s", got, sr.Offered, render)
	}
	if !strings.Contains(render, "admission  : 4 offered = 2 admitted + 2 shed") {
		t.Fatalf("Render ledger line missing:\n%s", render)
	}
	if !strings.Contains(render, "error: ") {
		t.Fatalf("Render drops the submission-error row:\n%s", render)
	}
}

// TestArrivalStreamSchedule: an explicit arrival spec places request i at
// the schedule's i-th offset on the stream clock.
func TestArrivalStreamSchedule(t *testing.T) {
	cl, err := OpenOn("sim", Config{Procs: 8, Seed: 3, Recovery: "rollback",
		Arrival: "arrive:uniform:100"})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"fib:8", "fib:9", "fib:10", "fib:11"} {
		if _, err := cl.SubmitSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != 4 {
		t.Fatalf("stream incomplete:\n%s", sr.Render())
	}
	for i, rep := range sr.PerRequest {
		if want := int64(i) * 100; rep.ArrivedAt != want {
			t.Fatalf("request %d admitted at %d, want %d\n%s", i, rep.ArrivedAt, want, sr.Render())
		}
	}
}

// TestServiceSpecValidation: malformed arrival and admission specs fail the
// Open (and the one-shot Run) on both backends, not the first request.
func TestServiceSpecValidation(t *testing.T) {
	if _, err := OpenOn("sim", Config{Arrival: "arrive:zipf:2"}); err == nil ||
		!strings.Contains(err.Error(), "unknown arrival kind") {
		t.Fatalf("sim Open bad arrival: %v", err)
	}
	if _, err := OpenOn("sim", Config{Admission: "drop"}); err == nil ||
		!strings.Contains(err.Error(), "unknown admission policy") {
		t.Fatalf("sim Open bad admission: %v", err)
	}
	w, err := StandardWorkload("fib:8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Config{Arrival: "arrive:poisson:0"}).Run(w, nil); err == nil {
		t.Fatal("one-shot Run accepted a bad arrival spec")
	}
	// Arrival specs are not workloads; the parser points at Config.Arrival.
	if _, err := StandardWorkload("arrive:poisson:0.02"); err == nil ||
		!strings.Contains(err.Error(), "arrival spec, not a workload") {
		t.Fatalf("StandardWorkload on an arrival spec: %v", err)
	}
}

// admissionStreamRender is the S5-style admission stream for the shard
// sweep: a 32-processor torus under a seeded Poisson arrival schedule with
// bounded in-flight admission (shed policy) and a mid-stream crash. The
// rendered report pins the admit/shed decisions, stamps, and aggregates.
func admissionStreamRender(t *testing.T, shards int, parallel bool) string {
	t.Helper()
	cl, err := OpenOn("sim", Config{Procs: 32, Topology: "torus", Seed: 11,
		Recovery: "rollback", Arrival: "arrive:poisson:0.02",
		MaxInFlight: 3, Admission: "shed", Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if parallel {
		var wg sync.WaitGroup
		for _, spec := range determinismSpecs {
			wg.Add(1)
			go func(spec string) {
				defer wg.Done()
				if _, err := cl.SubmitSpec(spec); err != nil {
					t.Error(err)
				}
			}(spec)
		}
		wg.Wait()
	} else {
		for _, spec := range determinismSpecs {
			if _, err := cl.SubmitSpec(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Inject(CrashPlan(3, 900, true)); err != nil {
		t.Fatal(err)
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed == 0 || sr.Shed == 0 {
		t.Fatalf("shards=%d stream needs both completions and sheds to pin the admission path:\n%s",
			shards, sr.Render())
	}
	if sr.Offered != sr.Admitted+sr.Shed || sr.Admitted != sr.Completed+sr.Failed {
		t.Fatalf("shards=%d ledger broken:\n%s", shards, sr.Render())
	}
	return sr.Render()
}

// TestAdmissionShardSweep: the admission stream renders byte-identically at
// every shard count — arrival schedules, shed decisions and queue
// accounting are all shard-count-invariant.
func TestAdmissionShardSweep(t *testing.T) {
	ref := admissionStreamRender(t, 1, false)
	for _, shards := range []int{2, 4, 8} {
		if got := admissionStreamRender(t, shards, false); got != ref {
			t.Fatalf("shards=%d admission stream diverged:\n--- 1 shard ---\n%s--- %d shards ---\n%s",
				shards, ref, shards, got)
		}
	}
}

// TestAdmissionBoundedQueue: "queue:N" holds at most N requests behind the
// in-flight bound and sheds past that depth. With one slot and a depth-1
// queue, a same-tick batch of three admits one, queues one, sheds one —
// and the queued request's time in the FIFO lands in QueuedFor and the
// report's queue-wait percentiles, separate from its service latency.
func TestAdmissionBoundedQueue(t *testing.T) {
	cl, err := OpenOn("sim", Config{Procs: 8, Seed: 3, Recovery: "rollback",
		MaxInFlight: 1, Admission: "queue:1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"fib:9", "fib:10", "fib:11"} {
		if _, err := cl.SubmitSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Offered != 3 || sr.Admitted != 2 || sr.Shed != 1 || sr.Completed != 2 {
		t.Fatalf("ledger offered/admitted/shed/completed = %d/%d/%d/%d\n%s",
			sr.Offered, sr.Admitted, sr.Shed, sr.Completed, sr.Render())
	}
	if sr.QueueDepthMax != 1 {
		t.Fatalf("queue depth max = %d, want 1 (the bound)\n%s", sr.QueueDepthMax, sr.Render())
	}
	var direct, queued *Report
	for _, rep := range sr.PerRequest {
		if !rep.Completed {
			continue
		}
		if rep.QueuedFor == 0 {
			direct = rep
		} else {
			queued = rep
		}
	}
	if direct == nil || queued == nil {
		t.Fatalf("want one direct and one queued completion:\n%s", sr.Render())
	}
	// The queued request waited exactly one service interval (one slot means
	// it was installed when the direct request finished), and that wait is
	// not part of its service latency: the latency clock starts at install.
	if queued.QueuedFor != direct.DoneAt-direct.ArrivedAt {
		t.Fatalf("queued wait %d != predecessor service interval %d\n%s",
			queued.QueuedFor, direct.DoneAt-direct.ArrivedAt, sr.Render())
	}
	if queued.ArrivedAt != direct.DoneAt {
		t.Fatalf("queued request installed at %d, want predecessor completion %d",
			queued.ArrivedAt, direct.DoneAt)
	}
	if sr.QueueWaitP99 != queued.QueuedFor || sr.QueueWaitP50 != 0 {
		t.Fatalf("queue-wait percentiles p50=%d p99=%d, want 0 and %d\n%s",
			sr.QueueWaitP50, sr.QueueWaitP99, queued.QueuedFor, sr.Render())
	}
	if !strings.Contains(sr.Render(), "queue wait :") {
		t.Fatalf("Render misses the queue-wait line:\n%s", sr.Render())
	}
}

// TestBoundedQueueSpecValidation: malformed queue:N specs fail the Open
// with the policy vocabulary, on both backends (the livenet mirror lives in
// that package's tests).
func TestBoundedQueueSpecValidation(t *testing.T) {
	for _, spec := range []string{"queue:0", "queue:-2", "queue:abc", "queue:08", "queue:"} {
		if _, err := OpenOn("sim", Config{Admission: spec}); err == nil ||
			!strings.Contains(err.Error(), "unknown admission policy") {
			t.Fatalf("sim Open accepted admission %q: %v", spec, err)
		}
	}
	if _, err := OpenOn("sim", Config{Admission: "queue:16"}); err != nil {
		t.Fatalf("sim Open rejected a well-formed bound: %v", err)
	}
}

// TestConcurrentSubmitWithShedding is the -race stress for the bounded
// admission path: requests raced in from eight goroutines against a 4-shard
// kernel must produce the byte-identical report of the sequential
// single-shard stream — including exactly which requests were shed.
func TestConcurrentSubmitWithShedding(t *testing.T) {
	ref := admissionStreamRender(t, 1, false)
	wantShed := strings.Count(ref, " shed")
	for run := 0; run < 3; run++ {
		got := admissionStreamRender(t, 4, true)
		if got != ref {
			t.Fatalf("concurrent shedding stream diverged (run %d):\n--- sequential/1 ---\n%s--- parallel/4 ---\n%s",
				run, ref, got)
		}
		if strings.Count(got, " shed") != wantShed {
			t.Fatalf("shed accounting drifted (run %d):\n%s", run, got)
		}
	}
}
