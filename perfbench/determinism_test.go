package main

import (
	"testing"

	"dprle/internal/corpus"
)

// countKeys are the counts later changes may rest claims on: they must
// repeat exactly for the same seed.
var countKeys = []string{"budget.states", "budget.steps", "symexec.constraints", "nfa.dfa_states", "nfa.min_states", "strlang.discharged"}

func compareCounts(t *testing.T, workload string, a, b map[string]float64) {
	t.Helper()
	seen := 0
	for _, k := range countKeys {
		va, oka := a[k]
		vb, okb := b[k]
		if oka != okb || va != vb {
			t.Errorf("%s: %s = %v then %v", workload, k, va, vb)
		}
		if oka {
			seen++
		}
	}
	if seen == 0 {
		t.Errorf("%s: no named count was measured", workload)
	}
}

// fig12Counts runs one traced unit and the constant pass of a fresh bench.
func fig12Counts(t *testing.T, ds []corpus.Defect) map[string]float64 {
	t.Helper()
	b, err := newFig12Bench(3, ds, len(ds) > 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	o := &outcome{}
	lc := b.unit(tr, o)
	if o.Failed > 0 {
		t.Fatalf("traced unit: %d of %d failed", o.Failed, o.Attempted)
	}
	out, _ := b.layers(tr)
	out.Layer["budget.states"] = float64(lc.states)
	out.Layer["budget.steps"] = float64(lc.steps)
	out.Layer["symexec.constraints"] = float64(lc.constraints)
	return out.Layer
}

func TestCountsRepeatFig12(t *testing.T) {
	var ds []corpus.Defect
	for _, d := range corpus.Defects() {
		if !d.Big {
			ds = append(ds, d)
		}
	}
	compareCounts(t, "fig12", fig12Counts(t, ds), fig12Counts(t, ds))
}

func TestCountsRepeatSecure(t *testing.T) {
	if testing.Short() {
		t.Skip("warp/secure takes tens of seconds")
	}
	d, _ := corpus.DefectByName("warp/secure")
	ds := []corpus.Defect{d}
	compareCounts(t, "secure", fig12Counts(t, ds), fig12Counts(t, ds))
}

func TestCountsRepeatServe(t *testing.T) {
	counts := func() map[string]float64 {
		b := &serveBench{seed: 3, oracle: newWitnessOracle()}
		o, err := b.layers(newTracer())
		if err != nil || o.Failed > 0 {
			t.Fatalf("direct pass: err %v, %d of %d failed", err, o.Failed, o.Attempted)
		}
		return o.Layer
	}
	compareCounts(t, "serve", counts(), counts())
}

func TestCountsRepeatLint(t *testing.T) {
	counts := func() map[string]float64 {
		bb, err := setupLint(3, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b := bb.(*lintBench)
		defer b.close()
		o, err := b.measure(0, newTracer())
		if err != nil || o.Failed > 0 {
			t.Fatalf("traced pass: err %v, %d of %d failed", err, o.Failed, o.Attempted)
		}
		return o.Layer
	}
	compareCounts(t, "lint", counts(), counts())
}
