package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer's public
// function. Parent is the ID of the span that caused it (0 for a root);
// Req names the defect, request or package the call served. Start and End
// are offsets from the tracer's epoch.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay only a nil check per boundary.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) Begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans)
}

// End closes the span with the given ID.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
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

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (concurrent calls), so their intervals are merged before subtracting,
// and each is clipped to the parent's interval. Unfinished spans (End < 0)
// get no self time and cover nothing.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals within
// [lo, hi].
func covered(lo, hi time.Duration, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, p := range iv {
		if p[0] > curB {
			total += curB - curA
			curA, curB = p[0], p[1]
			continue
		}
		curB = max(curB, p[1])
	}
	return total + curB - curA
}

// LayerTimes aggregates self time per span name within each root span's
// tree, then takes, per name, the median across the roots whose tree
// contains that name. The result is the self time a layer costs per unit
// of work (one sweep, one analysis, one lint pass, one request).
func LayerTimes(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	root := make(map[int]int, len(spans))
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var rootOf func(id int) int
	rootOf = func(id int) int {
		if r, ok := root[id]; ok {
			return r
		}
		s := byID[id]
		r := id
		if s.Parent != 0 {
			r = rootOf(s.Parent)
		}
		root[id] = r
		return r
	}
	perRoot := map[string]map[int]time.Duration{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		m := perRoot[s.Name]
		if m == nil {
			m = map[int]time.Duration{}
			perRoot[s.Name] = m
		}
		m[rootOf(s.ID)] += self[s.ID]
	}
	out := make(map[string]time.Duration, len(perRoot))
	for name, m := range perRoot {
		vals := make([]float64, 0, len(m))
		for _, d := range m {
			vals = append(vals, float64(d))
		}
		out[name] = time.Duration(quantile(vals, 0.5))
	}
	return out
}

// traceFile is where a traced run leaves its spans, relative to the
// checkout root.
func traceFile(outDir, workload string, seed int64) string {
	return filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
