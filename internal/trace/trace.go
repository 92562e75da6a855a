// Package trace records what the simulated machine does: a structured event
// log for scenario tests (which must observe, e.g., that task B5 was *not*
// reissued — §3's "not fruitful" case) and aggregate metrics for the
// benchmark harness (message counts and bytes, task accounting, checkpoint
// storage, recovery latencies).
package trace

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"unsafe"
)

// Kind classifies events.
type Kind int

// Event kinds, in rough lifecycle order.
const (
	KSpawn        Kind = iota // parent created a task packet (DEMAND_IT)
	KPlace                    // task settled on a processor
	KStart                    // processor began executing a task pass
	KBlock                    // task suspended waiting for child results
	KComplete                 // task reduced to a value
	KResult                   // result delivered to parent
	KDupResult                // duplicate result ignored (Figure 5 cases 6/7)
	KLateResult               // result for an unknown task discarded (case 8)
	KCheckpoint               // functional checkpoint recorded
	KCkptRelease              // checkpoint released after child completion
	KFail                     // processor failed
	KDetect                   // a processor learned of a failure
	KReissue                  // rollback: topmost checkpoint reissued
	KSuppress                 // rollback: shadowed checkpoint not reissued
	KAbort                    // task aborted (orphan / doomed subtree)
	KTwin                     // splice: twin (step-parent) task created
	KOrphanResult             // splice: orphan result forwarded to ancestor
	KRelay                    // splice: ancestor relayed orphan result to twin
	KPrefill                  // splice: twin consumed an inherited result without spawning
	KStrand                   // splice: orphan had no live ancestor (stranded)
	KVote                     // redundancy: majority vote decided
	KVoteMismatch             // redundancy: corrupt value outvoted
	KRootDone                 // the program's answer reached the super-root
	KDemandQueue              // incremental: lost checkpoint queued for paced reissue
)

var kindNames = map[Kind]string{
	KSpawn: "spawn", KPlace: "place", KStart: "start", KBlock: "block",
	KComplete: "complete", KResult: "result", KDupResult: "dup-result",
	KLateResult: "late-result", KCheckpoint: "checkpoint",
	KCkptRelease: "ckpt-release", KFail: "fail", KDetect: "detect",
	KReissue: "reissue", KSuppress: "suppress", KAbort: "abort",
	KTwin: "twin", KOrphanResult: "orphan-result", KRelay: "relay",
	KPrefill: "prefill", KStrand: "strand", KVote: "vote",
	KVoteMismatch: "vote-mismatch", KRootDone: "root-done",
	KDemandQueue: "demand-queue",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	Time int64  // virtual time
	Proc int32  // processor where it happened (-1 = super-root/host)
	Kind Kind   //
	Task string // stamp text of the task concerned, if any
	Note string // free-form detail
}

func (e Event) String() string {
	return fmt.Sprintf("t=%-8d p=%-3d %-13s %-14s %s", e.Time, e.Proc, e.Kind, e.Task, e.Note)
}

// Log collects events. A nil *Log is valid and records nothing, so the
// machine can run with tracing disabled at zero cost.
type Log struct {
	Events []Event
}

// NewLog creates an empty log.
func NewLog() *Log { return &Log{} }

// Add appends an event if the log is non-nil.
func (l *Log) Add(e Event) {
	if l == nil {
		return
	}
	l.Events = append(l.Events, e)
}

// Count returns the number of events of kind k.
func (l *Log) Count(k Kind) int {
	if l == nil {
		return 0
	}
	n := 0
	for _, e := range l.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// String renders the whole log, one event per line.
func (l *Log) String() string {
	if l == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range l.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Metrics aggregates counters across a run. All fields are plain int64s and
// this struct is their one declaration: Add, TotalMessages and Rows walk the
// fields, a `row` tag is the counter's report name (a field without one is
// accumulated but not reported), and the "msg." rows are the message
// counters TotalMessages sums.
type Metrics struct {
	// Messages by category.
	MsgTask      int64 `row:"msg.task"`       // task packets sent (incl. migration hops)
	MsgTaskAck   int64 `row:"msg.task-ack"`   // placement acknowledgements
	MsgResult    int64 `row:"msg.result"`     // result packets parent-ward
	MsgResultAck int64 `row:"msg.result-ack"` // result acknowledgements
	MsgGrand     int64 `row:"msg.grand"`      // orphan results sent to ancestors (splice)
	MsgAbort     int64 `row:"msg.abort"`      // abort/kill packets
	MsgFault     int64 `row:"msg.fault"`      // failure announcements
	MsgHeartbeat int64 `row:"msg.heartbeat"`  // one-way neighbour heartbeats
	MsgLoad      int64 `row:"msg.load"`       // gradient-model load exchanges
	BytesOnWire  int64 `row:"bytes.wire"`     // payload bytes of all of the above
	HopsOnWire   int64 `row:"hops.wire"`      // Σ hop counts of all messages

	// Task lifecycle.
	TasksSpawned   int64 `row:"tasks.spawned"`   // packets created, incl. reissues/twins/replicas
	TasksCompleted int64 `row:"tasks.completed"` // reduced to a value
	TasksAborted   int64 `row:"tasks.aborted"`   // orphaned or killed
	TasksLost      int64 `row:"tasks.lost"`      // resident on a processor when it failed
	TasksLeaked    int64 `row:"tasks.leaked"`    // still resident at end of run
	StepsExecuted  int64 `row:"steps.executed"`  // reduction steps performed
	StepsWasted    int64 `row:"steps.wasted"`    // steps by tasks that later aborted or were lost

	// Checkpointing.
	Checkpoints     int64 `row:"ckpt.count"`             // functional checkpoints recorded
	CheckpointBytes int64 `row:"ckpt.bytes"`             // peak retained checkpoint storage, bytes
	Reissues        int64 `row:"recover.reissues"`       // rollback reissues
	PacedReissues   int64 `row:"recover.paced"`          // incremental: reissues that went through the paced queue
	Suppressed      int64 `row:"recover.suppressed"`     // shadowed checkpoints skipped (topmost rule)
	Twins           int64 `row:"recover.twins"`          // splice twins created
	OrphanResults   int64 `row:"recover.orphan-results"` // orphan results forwarded to ancestors
	Relayed         int64 `row:"recover.relayed"`        // orphan results relayed to twins
	Prefills        int64 `row:"recover.prefills"`       // twin demands satisfied from inherited results
	Stranded        int64 `row:"recover.stranded"`       // orphans with no live ancestor
	DupResults      int64 `row:"results.dup"`            // duplicate results ignored
	LateResults     int64 `row:"results.late"`           // results for unknown tasks discarded

	// Redundancy.
	Votes          int64 `row:"vote.count"`    // majority votes decided
	VoteMismatches int64 `row:"vote.mismatch"` // corrupt values outvoted

	// Failure handling.
	Failures         int64 `row:"fault.failures"`         // processor failures injected
	Detections       int64 `row:"fault.detections"`       // distinct (observer, failed) detections
	FalseSuspicions  int64 `row:"fault.false_suspicions"` // detections of a processor alive when declared
	DetectLatencySum int64 // Σ (detect time − fail time) over first detections
	FirstDetections  int64 // number of first detections (for the average)

	// Wall-clock only: the simulator leaves these zero.
	TasksInPlace int64 `row:"tasks.in-place"`   // spawned packets a node placed on itself, never a message
	Blackholed   int64 `row:"fault.blackholed"` // messages a dead node swallowed
}

// metricRows is the row name of each Metrics field, by field index.
var metricRows = func() []string {
	t := reflect.TypeOf(Metrics{})
	rows := make([]string, t.NumField())
	for i := range rows {
		rows[i] = t.Field(i).Tag.Get("row")
	}
	return rows
}()

// Add accumulates counters from another Metrics, walking both as the array
// of int64 that their fields lay out.
func (m *Metrics) Add(o *Metrics) {
	type counters = [unsafe.Sizeof(Metrics{}) / 8]int64
	a, b := (*counters)(unsafe.Pointer(m)), (*counters)(unsafe.Pointer(o))
	for i := range a {
		a[i] += b[i]
	}
}

// TotalMessages sums every message counter.
func (m *Metrics) TotalMessages() int64 {
	var sum int64
	mv := reflect.ValueOf(m).Elem()
	for i, row := range metricRows {
		if strings.HasPrefix(row, "msg.") {
			sum += mv.Field(i).Int()
		}
	}
	return sum
}

// Rows renders the metrics as sorted "name value" rows for reports,
// omitting zero counters to keep tables focused.
func (m *Metrics) Rows() []string {
	var out []string
	mv := reflect.ValueOf(m).Elem()
	for i, row := range metricRows {
		if v := mv.Field(i).Int(); row != "" && v != 0 {
			out = append(out, fmt.Sprintf("%-24s %d", row, v))
		}
	}
	sort.Strings(out)
	return out
}

// String renders the non-zero counters, one per line.
func (m *Metrics) String() string { return strings.Join(m.Rows(), "\n") }
