package main

import "testing"

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "pass", Start: 0, End: 100},
		// Two clients under the pass overlap on [30,40]: the union covers
		// [10,60], not 30+30.
		{ID: 2, Parent: 1, Name: "client", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "client", Start: 30, End: 60},
		// A child that outlives its parent is clipped to it.
		{ID: 4, Parent: 1, Name: "close", Start: 90, End: 130},
		// A grandchild takes from its own parent only.
		{ID: 5, Parent: 2, Name: "verify", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 40, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	st := byName(spans)["client"]
	if st.Count != 2 || st.Total != 60 || st.Own != 55 {
		t.Errorf("client spans fold to %+v, want count 2, total 60, self 55", st)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, -1)
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.start("pass", 0, -1)
	kid := tr.start("core.submit", root, 17)
	tr.end(kid)
	tr.end(root)
	got := tr.spans[kid-1]
	if got.Parent != root || got.Req != 17 || got.Name != "core.submit" || got.End < got.Start {
		t.Errorf("recorded %+v", got)
	}
	if r := tr.spans[root-1]; r.End < got.End {
		t.Errorf("root ended at %d, before its child at %d", r.End, got.End)
	}
}
