package nfa_test

import (
	"testing"

	"dprle/internal/core"
	"dprle/internal/experiments"
	"dprle/internal/nfa"
)

// constants appends every constant language e mentions.
func constants(out []*nfa.NFA, e core.Expr) []*nfa.NFA {
	switch e := e.(type) {
	case *core.Const:
		return append(out, e.Lang)
	case core.Cat:
		return constants(constants(out, e.Left), e.Right)
	case core.Or:
		return constants(constants(out, e.Left), e.Right)
	}
	return out
}

// corpusConstants returns every distinct constant of the Figure 12 corpus,
// warp/secure's multi-kilobyte constants included, in order of first
// appearance.
func corpusConstants(t *testing.T) []*nfa.NFA {
	t.Helper()
	systems, err := experiments.CorpusSystems(false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []*nfa.NFA
	for _, ps := range systems {
		var consts []*nfa.NFA
		for _, c := range ps.Sys.Constraints() {
			consts = constants(append(consts, c.Rhs.Lang), c.Lhs)
		}
		for _, m := range consts {
			if key := m.Key(); !seen[key] {
				seen[key] = true
				out = append(out, m)
			}
		}
	}
	return out
}

// TestMinimizeMatchesMooreOnCorpus minimizes the determinized form of every
// corpus constant and requires the result to be identical to Moore's.
func TestMinimizeMatchesMooreOnCorpus(t *testing.T) {
	consts := corpusConstants(t)
	largest := 0
	for _, m := range consts {
		d := nfa.Determinize(m)
		largest = max(largest, d.NumStates())
		if msg := nfa.MooreMismatch(d); msg != "" {
			t.Fatalf("constant with %d DFA states: %s", d.NumStates(), msg)
		}
	}
	// warp/secure's largest constant determinizes to thousands of states.
	if largest < 1000 {
		t.Fatalf("largest constant DFA has %d states; warp/secure missing?", largest)
	}
	t.Logf("%d distinct constants, largest DFA %d states", len(consts), largest)
}

// TestDeterminizeMatchesReferenceOnCorpus requires the sparse subset
// construction and the direct ToNFA to reproduce their references exactly
// on every corpus constant.
func TestDeterminizeMatchesReferenceOnCorpus(t *testing.T) {
	largest := 0
	for _, m := range corpusConstants(t) {
		largest = max(largest, m.NumStates())
		if msg := nfa.DeterminizeMismatch(m); msg != "" {
			t.Fatalf("constant with %d states: %s", m.NumStates(), msg)
		}
	}
	if largest < 6000 {
		t.Fatalf("largest constant has %d states; warp/secure missing?", largest)
	}
}
