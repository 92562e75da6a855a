package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Cluster is a long-lived service stream on one substrate: Open brings the
// backend's network up and keeps it alive across requests, Submit enqueues a
// workload and returns a future, Inject schedules faults against the
// stream's clock so crashes land mid-traffic (between and inside requests),
// and Drain/Close finish the stream. One-shot Run is the degenerate case:
// Open → Submit → Close with a single request.
type Cluster struct {
	backend string
	sess    Session
	unit    TimeUnit

	mu       sync.Mutex
	tickets  []*Ticket
	stamps   []int64
	closed   bool
	closeRep *ServiceReport
	closeErr error
}

// OpenOn starts a service stream on the named backend ("" = the simulator).
func OpenOn(backend string, cfg Config) (*Cluster, error) {
	if backend == "" {
		backend = "sim"
	}
	b, err := ByName(backend)
	if err != nil {
		return nil, err
	}
	sess, err := b.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{backend: backend, sess: sess, unit: sess.Unit()}, nil
}

// Ticket is the future of one submitted request.
type Ticket struct {
	w    Workload
	req  SessionRequest
	err0 error

	once sync.Once
	rep  *Report
	err  error
}

// Workload returns what the ticket was submitted for.
func (t *Ticket) Workload() Workload { return t.w }

// Wait blocks until the request resolves. The report is the per-request
// view; a request that timed out its budget reports Completed false with a
// nil error. Wait is idempotent and safe from several goroutines.
func (t *Ticket) Wait() (*Report, error) {
	t.once.Do(func() {
		if t.err0 != nil {
			t.err = t.err0
			return
		}
		t.rep, t.err = t.req.Wait()
	})
	return t.rep, t.err
}

// Verify waits for the request and checks its answer against the sequential
// reference evaluator — the per-request form of VerifyOn's determinacy
// check (§2.1).
func (t *Ticket) Verify() (*Report, error) {
	rep, err := t.Wait()
	if err != nil {
		return rep, err
	}
	return rep, verifyReport(rep, t.w)
}

// Submit enqueues a request. Submission never blocks on the stream; errors
// (closed cluster, unknown entry function) surface on the ticket's Wait.
func (c *Cluster) Submit(w Workload) *Ticket {
	t := &Ticket{w: w}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		t.err0 = errors.New("core: cluster closed")
		return t
	}
	req, err := c.sess.Submit(w)
	t.req, t.err0 = req, err
	c.tickets = append(c.tickets, t)
	return t
}

// SubmitSpec is Submit for a StandardWorkload spec.
func (c *Cluster) SubmitSpec(spec string) (*Ticket, error) {
	w, err := StandardWorkload(spec)
	if err != nil {
		return nil, err
	}
	return c.Submit(w), nil
}

// Inject schedules the plan's faults on the stream clock and records their
// stream stamps for the recovery-window accounting of the final
// ServiceReport.
func (c *Cluster) Inject(plan *FaultPlan) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("core: cluster closed")
	}
	stamps, err := c.sess.Inject(plan)
	c.stamps = append(c.stamps, stamps...)
	return err
}

// Drain waits for every submitted request and returns the first submission
// or stream error. Requests that merely timed out are not errors, and
// neither are shed ones — both are expected outcomes of a loaded stream
// and count in the service report's Failed and Shed columns instead.
func (c *Cluster) Drain() error {
	c.mu.Lock()
	tickets := append([]*Ticket(nil), c.tickets...)
	c.mu.Unlock()
	var firstErr error
	for _, t := range tickets {
		if _, err := t.Wait(); err != nil && !errors.Is(err, ErrShed) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// VerifyAll waits for every submitted request in submission order and
// checks each completed answer against the sequential reference evaluator
// (§2.1 — a wrong answer fails loudly), returning how many verified, timed
// out their budget, and were shed by admission control. Shed and timed-out
// requests are data unless strict, which requires every request to
// complete. The first failure closes the cluster and is returned naming the
// request.
func (c *Cluster) VerifyAll(strict bool) (verified, timedOut, shed int, err error) {
	c.mu.Lock()
	tickets := append([]*Ticket(nil), c.tickets...)
	c.mu.Unlock()
	for i, t := range tickets {
		rep, err := t.Wait()
		done := err == nil && rep.Completed
		if done {
			_, err = t.Verify()
		}
		switch {
		case done && err == nil:
			verified++
			continue
		case !strict && errors.Is(err, ErrShed):
			shed++
			continue
		case !strict && !done && err == nil:
			timedOut++
			continue
		}
		name := fmt.Sprintf("request %d", i)
		if t.w.Spec != "" {
			name += " (" + t.w.Spec + ")"
		}
		if err == nil {
			err = fmt.Errorf("%s did not complete within its budget", name)
		} else {
			err = fmt.Errorf("%s: %w", name, err)
		}
		_, _ = c.Close()
		return verified, timedOut, shed, err
	}
	return verified, timedOut, shed, nil
}

// Close drains the stream, tears the substrate down, and returns the
// stream-level service report. Per-request failures (bad submissions,
// timeouts) are data — the report's Failed count and PerRequest rows — not
// Close errors; only a substrate-level failure errors. Idempotent.
func (c *Cluster) Close() (*ServiceReport, error) {
	c.mu.Lock()
	tickets := append([]*Ticket(nil), c.tickets...)
	c.mu.Unlock()
	for _, t := range tickets {
		_, _ = t.Wait()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.closeRep, c.closeErr
	}
	c.closed = true
	totals, err := c.sess.Close()
	if err != nil {
		c.closeErr = err
		return nil, err
	}
	c.closeRep = c.buildServiceReportLocked(totals)
	return c.closeRep, nil
}

// buildServiceReportLocked folds ticket reports, fault stamps and the
// substrate totals into the stream-level report.
func (c *Cluster) buildServiceReportLocked(totals *Report) *ServiceReport {
	sr := &ServiceReport{
		Backend:     c.backend,
		Unit:        c.unit,
		Requests:    len(c.tickets),
		Offered:     len(c.tickets),
		FaultStamps: append([]int64(nil), c.stamps...),
		Totals:      totals,
	}
	if totals != nil {
		sr.Procs = totals.Procs
		sr.Scheme = totals.Scheme
		sr.Placement = totals.Placement
		sr.Counters = totals.Counters
		sr.QueueDepthMax = totals.QueueDepthMax
	}
	sort.Slice(sr.FaultStamps, func(i, j int) bool { return sr.FaultStamps[i] < sr.FaultStamps[j] })
	var latencies, queueWaits []int64
	var first, last int64
	for _, t := range c.tickets {
		rep, err := t.Wait()
		if err == nil && rep != nil && rep.Err == nil && !rep.Shed && rep.Request >= 0 {
			// Every admitted request spent a (possibly zero) spell in the
			// admission FIFO, whether it later completed or timed out; shed
			// and never-admitted requests have no queue spell to report.
			queueWaits = append(queueWaits, rep.QueuedFor)
		}
		if err != nil || rep == nil || rep.Err != nil || !rep.Completed {
			// Every offered request gets a row, even the ones that never
			// produced a report (submission errors): the counters below must
			// reconcile against the rows.
			if rep == nil {
				rep = &Report{Backend: c.backend, Unit: c.unit, Request: -1, Err: err}
			}
			sr.PerRequest = append(sr.PerRequest, rep)
			if errors.Is(err, ErrShed) || rep.Shed {
				sr.Shed++
			} else {
				sr.Failed++
			}
			continue
		}
		sr.PerRequest = append(sr.PerRequest, rep)
		sr.Completed++
		latencies = append(latencies, rep.Makespan)
		if sr.Completed == 1 || rep.ArrivedAt < first {
			first = rep.ArrivedAt
		}
		if rep.DoneAt > last {
			last = rep.DoneAt
		}
		during := false
		for _, s := range sr.FaultStamps {
			if s >= rep.ArrivedAt && s <= rep.DoneAt {
				during = true
				break
			}
		}
		if during {
			sr.DuringRecovery++
		} else {
			sr.OutsideRecovery++
		}
	}
	sr.Admitted = sr.Offered - sr.Shed
	sort.Slice(sr.PerRequest, func(i, j int) bool {
		a, b := sr.PerRequest[i], sr.PerRequest[j]
		if a.Request != b.Request {
			return a.Request < b.Request
		}
		return a.ArrivedAt < b.ArrivedAt
	})
	if sr.Completed > 0 {
		sr.Span = last - first
		if sr.Span > 0 {
			sr.Throughput = float64(sr.Completed) * 1e6 / float64(sr.Span)
		}
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum int64
		for _, l := range latencies {
			sum += l
		}
		sr.LatencyMean = sum / int64(len(latencies))
		sr.LatencyP50 = percentile(latencies, 50)
		sr.LatencyP99 = percentile(latencies, 99)
	}
	if len(queueWaits) > 0 {
		sort.Slice(queueWaits, func(i, j int) bool { return queueWaits[i] < queueWaits[j] })
		var sum int64
		for _, q := range queueWaits {
			sum += q
		}
		sr.QueueWaitMean = sum / int64(len(queueWaits))
		sr.QueueWaitP50 = percentile(queueWaits, 50)
		sr.QueueWaitP99 = percentile(queueWaits, 99)
	}
	return sr
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p*n/100)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// ServiceReport is the stream-level outcome of a service-mode cluster: what
// a substrate serving traffic under faults can be judged by. Latencies and
// the span are in Unit; Throughput is requests per 1e6 units of stream time
// — exactly requests/second on the live backend (µs) and requests per
// megatick on the simulator.
type ServiceReport struct {
	// Backend, Unit, Procs, Scheme, Placement echo the configuration.
	Backend           string
	Unit              TimeUnit
	Procs             int
	Scheme, Placement string

	// Requests counts submissions; Completed the requests that finished with
	// an answer inside their budget; Failed the admitted rest (submission
	// errors, evaluation errors, timeouts).
	Requests, Completed, Failed int

	// Admission accounting. Offered equals Requests (every submission is an
	// offer); Shed counts offers bounded admission rejected; Admitted is
	// Offered − Shed. The ledger always reconciles:
	//
	//	Offered  = Admitted + Shed
	//	Admitted = Completed + Failed
	//
	// QueueDepthMax is the admission queue's high-water mark ("queue"
	// policy; 0 with "shed" or unbounded admission).
	Offered, Admitted, Shed, QueueDepthMax int

	// Span is the stream time from the first completed request's admission
	// to the last completion; Throughput is Completed per 1e6 units of Span.
	Span       int64
	Throughput float64

	// Latency aggregates over completed requests (service latency =
	// completion − admission), nearest-rank percentiles.
	LatencyMean, LatencyP50, LatencyP99 int64

	// Queue-wait aggregates over admitted requests: the time each spent in
	// the admission FIFO before it got a slot (0 for directly admitted
	// requests). Measured separately from service latency, whose clock
	// starts at the install.
	QueueWaitMean, QueueWaitP50, QueueWaitP99 int64

	// DuringRecovery counts completed requests whose service interval
	// contained at least one injected fault — they were answered while the
	// system was crashing and recovering around them; OutsideRecovery is the
	// rest. FaultStamps are the injected stream stamps, sorted.
	DuringRecovery, OutsideRecovery int
	FaultStamps                     []int64

	// Counters are the stream totals from the substrate.
	Counters

	// PerRequest holds the per-request reports in stream order; Totals is
	// the substrate's aggregate report (Sim detail on the simulator).
	PerRequest []*Report
	Totals     *Report
}

// ThroughputLabel names the throughput unit for the report's clock.
func (sr *ServiceReport) ThroughputLabel() string {
	if sr.Unit == WallMicros {
		return "req/s"
	}
	return "req/Mtick"
}

// Render is the deterministic textual form of the report: the header, the
// stream aggregates, and one line per offered request — completed, timed
// out, shed, and errored requests all get a row, so the admission ledger
// printed above them can be checked against the rows by eye. Tests compare
// these bytes to assert the sequential and concurrent submission schedules
// are identical.
func (sr *ServiceReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "service stream on %s: %d procs, %s/%s\n",
		sr.Backend, sr.Procs, sr.Scheme, sr.Placement)
	fmt.Fprintf(&b, "requests   : %d submitted, %d completed, %d failed\n",
		sr.Requests, sr.Completed, sr.Failed)
	fmt.Fprintf(&b, "admission  : %d offered = %d admitted + %d shed (queue depth max %d)\n",
		sr.Offered, sr.Admitted, sr.Shed, sr.QueueDepthMax)
	fmt.Fprintf(&b, "stream     : span %d %s, throughput %.3f %s\n",
		sr.Span, sr.Unit, sr.Throughput, sr.ThroughputLabel())
	fmt.Fprintf(&b, "latency    : mean %d, p50 %d, p99 %d (%s)\n",
		sr.LatencyMean, sr.LatencyP50, sr.LatencyP99, sr.Unit)
	fmt.Fprintf(&b, "queue wait : mean %d, p50 %d, p99 %d (%s)\n",
		sr.QueueWaitMean, sr.QueueWaitP50, sr.QueueWaitP99, sr.Unit)
	fmt.Fprintf(&b, "recovery   : %d completed during recovery, %d outside (fault stamps %v)\n",
		sr.DuringRecovery, sr.OutsideRecovery, sr.FaultStamps)
	fmt.Fprintf(&b, "counters   : %d messages (%d bytes), %s, %d reissued, %d drained, %d recoveries\n",
		sr.Messages, sr.MsgBytes, sr.SpawnedLabel(), sr.Reissued, sr.Drained, sr.Recoveries)
	for _, rep := range sr.PerRequest {
		status := "ok " + fmt.Sprint(rep.Answer)
		switch {
		case rep.Shed:
			status = "shed"
		case rep.Err != nil:
			status = "error: " + rep.Err.Error()
		case !rep.Completed:
			status = "timeout"
		}
		fmt.Fprintf(&b, "  req %-3d arrived %-8d done %-8d latency %-8d %s\n",
			rep.Request, rep.ArrivedAt, rep.DoneAt, rep.Makespan, status)
	}
	return b.String()
}
