package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call — the program itself carries no instrumentation. Parent is the span
// that caused it (0 = none); Req groups the spans of one request (-1 = not
// request-scoped). Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured passes pay one nil
// check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 from a nil tracer).
func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time by id: its duration minus the part
// of its interval its direct children cover. Children may overlap one
// another (two clients under one stream span), so the covered part is the
// union of their intervals clipped to the parent, not their sum.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		at := s.Start // everything before at is already counted
		for _, c := range cs {
			lo, hi := max(c.Start, at), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count      int
	Total, Own int64 // Σ duration and Σ self time, ns
}

func (s spanStat) mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Count)
}

// byName folds spans into per-name totals.
func byName(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	out := map[string]spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.End - s.Start
		st.Own += self[s.ID]
		out[s.Name] = st
	}
	return out
}
