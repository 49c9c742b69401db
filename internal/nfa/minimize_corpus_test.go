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

// TestMinimizeMatchesMooreOnCorpus minimizes the determinized form of every
// constant of the Figure 12 corpus, warp/secure's multi-kilobyte constants
// included, and requires the result to be identical to Moore's.
func TestMinimizeMatchesMooreOnCorpus(t *testing.T) {
	systems, err := experiments.CorpusSystems(false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	largest := 0
	for _, ps := range systems {
		var consts []*nfa.NFA
		for _, c := range ps.Sys.Constraints() {
			consts = constants(append(consts, c.Rhs.Lang), c.Lhs)
		}
		for _, m := range consts {
			key := m.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			d := nfa.Determinize(m)
			largest = max(largest, d.NumStates())
			if msg := nfa.MooreMismatch(d); msg != "" {
				t.Fatalf("%s constant with %d DFA states: %s", ps.Sink.Kind, d.NumStates(), msg)
			}
		}
	}
	// warp/secure's largest constant determinizes to thousands of states.
	if largest < 1000 {
		t.Fatalf("largest constant DFA has %d states; warp/secure missing?", largest)
	}
	t.Logf("%d distinct constants, largest DFA %d states", len(seen), largest)
}
