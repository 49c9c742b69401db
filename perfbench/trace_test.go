package main

import (
	"testing"
	"time"
)

func TestSelfTimesHandBuiltTree(t *testing.T) {
	const u = time.Millisecond
	// root [0,100] has children a [10,40], b [30,60] (overlapping a) and
	// c [90,120] (running past root's end). a has child a1 [15,25].
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100 * u},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * u, End: 40 * u},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * u, End: 60 * u},
		{ID: 4, Parent: 1, Name: "c", Start: 90 * u, End: 120 * u},
		{ID: 5, Parent: 2, Name: "a1", Start: 15 * u, End: 25 * u},
		{ID: 6, Parent: 1, Name: "open", Start: 70 * u, End: -1},
	}
	got := SelfTimes(spans)
	want := map[int]time.Duration{
		1: 100*u - (50*u + 10*u), // covered: [10,60] ∪ [90,100]
		2: 30*u - 10*u,
		3: 30 * u,
		4: 30 * u,
		5: 10 * u,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self = %v, want %v", id, got[id], w)
		}
	}
	if _, ok := got[6]; ok {
		t.Errorf("unfinished span got a self time")
	}
}

func TestLayerTimesMediansPerRoot(t *testing.T) {
	const u = time.Millisecond
	var spans []Span
	add := func(parent int, name string, start, end time.Duration) int {
		spans = append(spans, Span{ID: len(spans) + 1, Parent: parent, Name: name, Start: start, End: end})
		return len(spans)
	}
	// Three units; the layer takes 2, 4 and 9 ms of self time in them
	// (the third unit calls it twice).
	r := add(0, "unit", 0, 10*u)
	add(r, "lang.parse", 0, 2*u)
	r = add(0, "unit", 10*u, 20*u)
	add(r, "lang.parse", 10*u, 14*u)
	r = add(0, "unit", 20*u, 40*u)
	p := add(r, "lang.parse", 20*u, 27*u)
	add(p, "inner", 21*u, 22*u) // 1 ms of the first call is its child's
	add(r, "lang.parse", 30*u, 33*u)
	got := LayerTimes(spans)
	if got["lang.parse"] != 4*u {
		t.Errorf("lang.parse = %v, want the median 4ms", got["lang.parse"])
	}
	if got["inner"] != u {
		t.Errorf("inner = %v, want 1ms", got["inner"])
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", "", 0)
	tr.End(id)
	if id != 0 || tr.Spans() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
}
