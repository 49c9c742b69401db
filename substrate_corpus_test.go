package dprle_test

// Corpus-wide gate for the zero-copy/bitset NFA substrate (DESIGN.md §11):
// solves over the whole Figure 12 corpus must stay deterministic and
// independently verifiable, and concurrent solves sharing the same machine
// pointers — the situation the lock-free ε-closure and seam-free memo
// caches exist for — must agree with a single-threaded pass. The race CI
// job runs this file under -race, which turns any unsynchronized cache
// publication into a hard failure.

import (
	"context"
	"sync"
	"testing"

	"dprle/internal/core"
	"dprle/internal/nfa"
)

// TestSubstrateCorpusGate solves two independently built copies of the
// corpus and demands observational agreement — same satisfiability, same
// disjunct count, language-equivalent assignment per variable — with every
// full-solve disjunct verified against the constraint checker. Views and
// bitset kernels are invisible at this level by construction; a substrate
// bug that survives the unit differentials (wrong closure memo, torn view
// state) would surface here as a corpus-level mismatch.
func TestSubstrateCorpusGate(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the corpus twice")
	}
	opts := core.Options{}
	first := corpusSystems(t)
	second := corpusSystems(t)
	for i, ps := range first {
		a, err := core.SolveForCtx(context.Background(), ps.Sys, ps.Inputs, opts)
		if err != nil {
			t.Fatalf("%s: first solve: %v", ps.Sink.Kind, err)
		}
		b, err := core.SolveForCtx(context.Background(), second[i].Sys, second[i].Inputs, opts)
		if err != nil {
			t.Fatalf("%s: second solve: %v", ps.Sink.Kind, err)
		}
		if a.Sat() != b.Sat() || len(a.Assignments) != len(b.Assignments) {
			t.Fatalf("%s: independent solves disagree: sat=%v/%d vs sat=%v/%d",
				ps.Sink.Kind, a.Sat(), len(a.Assignments), b.Sat(), len(b.Assignments))
		}
		for d := range a.Assignments {
			for _, v := range ps.Sys.Vars() {
				if !nfa.Equivalent(a.Assignments[d].Lookup(v), b.Assignments[d].Lookup(v)) {
					t.Fatalf("%s: disjunct %d, variable %s: independent solves assign different languages",
						ps.Sink.Kind, d, v)
				}
			}
		}
		full, err := core.SolveCtx(context.Background(), ps.Sys, opts)
		if err != nil {
			t.Fatalf("%s: full solve: %v", ps.Sink.Kind, err)
		}
		for d, asg := range full.Assignments {
			if !core.Satisfies(ps.Sys, asg) {
				t.Fatalf("%s: full-solve disjunct %d does not satisfy the system", ps.Sink.Kind, d)
			}
		}
	}
}

// TestConcurrentSolvesSharedMachines runs the corpus from several
// goroutines over ONE set of systems — every goroutine holds the same *NFA
// pointers, so the ε-closure, canonical-key, and seam-free memos are
// populated and read concurrently, exactly as concurrent server solves over
// interned machines do. Results must match a single-threaded baseline.
func TestConcurrentSolvesSharedMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the corpus once per goroutine")
	}
	opts := core.Options{}
	systems := corpusSystems(t)
	baseline := make([]bool, len(systems))
	disjuncts := make([]int, len(systems))
	for i, ps := range systems {
		res, err := core.SolveForCtx(context.Background(), ps.Sys, ps.Inputs, opts)
		if err != nil {
			t.Fatalf("%s: baseline solve: %v", ps.Sink.Kind, err)
		}
		baseline[i] = res.Sat()
		disjuncts[i] = len(res.Assignments)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, ps := range systems {
				res, err := core.SolveForCtx(context.Background(), ps.Sys, ps.Inputs, opts)
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, ps.Sink.Kind, err)
					return
				}
				if res.Sat() != baseline[i] || len(res.Assignments) != disjuncts[i] {
					t.Errorf("goroutine %d, %s: sat=%v/%d, baseline sat=%v/%d",
						g, ps.Sink.Kind, res.Sat(), len(res.Assignments), baseline[i], disjuncts[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
