package trace

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(Event{Kind: KSpawn}) // must not panic
	if l.Count(KSpawn) != 0 {
		t.Fatal("nil log Count != 0")
	}
	if l.String() != "" {
		t.Fatal("nil log String != empty")
	}
}

func TestLogAddFilterCount(t *testing.T) {
	l := NewLog()
	l.Add(Event{Time: 1, Kind: KSpawn, Task: "1"})
	l.Add(Event{Time: 2, Kind: KFail, Proc: 3})
	l.Add(Event{Time: 3, Kind: KSpawn, Task: "1.0"})
	if l.Count(KSpawn) != 2 || l.Count(KFail) != 1 || l.Count(KAbort) != 0 {
		t.Fatalf("counts wrong: %v", l.Events)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 42, Proc: 2, Kind: KTwin, Task: "1.0", Note: "for B2"}
	s := e.String()
	for _, want := range []string{"42", "twin", "1.0", "for B2"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q missing %q", s, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := KSpawn; k <= KRootDone; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if !strings.HasPrefix(Kind(999).String(), "Kind(") {
		t.Error("unknown kind should use fallback rendering")
	}
}

func TestMetricsAddAndTotal(t *testing.T) {
	a := &Metrics{MsgTask: 2, MsgResult: 3, TasksSpawned: 5, BytesOnWire: 100}
	b := &Metrics{MsgTask: 1, MsgHeartbeat: 7, Checkpoints: 4}
	a.Add(b)
	if a.MsgTask != 3 || a.MsgHeartbeat != 7 || a.Checkpoints != 4 || a.TasksSpawned != 5 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if got := a.TotalMessages(); got != 3+3+7 {
		t.Fatalf("TotalMessages = %d", got)
	}
}

func TestMetricsRowsOmitZeros(t *testing.T) {
	m := &Metrics{MsgTask: 1, Twins: 2}
	rows := m.Rows()
	if len(rows) != 2 {
		t.Fatalf("Rows = %v", rows)
	}
	s := m.String()
	if !strings.Contains(s, "msg.task") || !strings.Contains(s, "recover.twins") {
		t.Fatalf("String = %q", s)
	}
	if strings.Contains(s, "vote.count") {
		t.Fatal("zero counter rendered")
	}
}

// TestMetricsDerivedFromOneDeclaration pins what Add, TotalMessages and Rows
// derive from the struct: with field i holding i+1, Add doubles every field
// (the two untagged ones included), TotalMessages is the nine "msg." rows, and
// Rows is byte-for-byte the hand-enumerated table this replaced plus
// fault.false_suspicions — 35 rows, none for DetectLatencySum or
// FirstDetections.
func TestMetricsDerivedFromOneDeclaration(t *testing.T) {
	var m, sum Metrics
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	if v.NumField() != 37 || m.TotalMessages() != 45 {
		t.Fatalf("%d fields, TotalMessages %d; want 37 and 45", v.NumField(), m.TotalMessages())
	}
	sum.Add(&m)
	sum.Add(&m)
	for i := 0; i < v.NumField(); i++ {
		if got := reflect.ValueOf(sum).Field(i).Int(); got != int64(2*(i+1)) {
			t.Errorf("Add: field %s = %d, want %d", v.Type().Field(i).Name, got, 2*(i+1))
		}
	}
	want := []string{
		"bytes.wire               10", "ckpt.bytes               20", "ckpt.count               19",
		"fault.detections         34", "fault.failures           33", "fault.false_suspicions   35",
		"hops.wire                11",
		"msg.abort                6", "msg.fault                7", "msg.grand                5",
		"msg.heartbeat            8", "msg.load                 9", "msg.result               3",
		"msg.result-ack           4", "msg.task                 1", "msg.task-ack             2",
		"recover.orphan-results   25", "recover.paced            22", "recover.prefills         27",
		"recover.reissues         21", "recover.relayed          26", "recover.stranded         28",
		"recover.suppressed       23", "recover.twins            24", "results.dup              29",
		"results.late             30", "steps.executed           17", "steps.wasted             18",
		"tasks.aborted            14", "tasks.completed          13", "tasks.leaked             16",
		"tasks.lost               15", "tasks.spawned            12", "vote.count               31",
		"vote.mismatch            32",
	}
	if got := m.Rows(); !slices.Equal(got, want) {
		t.Fatalf("Rows = %q\nwant   %q", got, want)
	}
}
