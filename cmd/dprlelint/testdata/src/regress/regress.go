// Package regress deliberately re-introduces the bug class PR 1 removed:
// an un-budgeted Determinize call inside a budgeted solver path. The
// multichecker test asserts dprlelint fails on it, which is what keeps the
// CI lint gate meaningful.
package regress

import (
	"budget"
	"nfa"
)

func SolveB(bud *budget.Budget, m *nfa.NFA) (*nfa.DFA, error) {
	return nfa.Determinize(m), nil // budgetflow must flag this line
}

// CloneMachine seeds the guaranteed nil dereference the nilness analyzer
// exists to catch: on the branch below m is provably nil, and *m panics on
// every execution reaching it.
func CloneMachine(m *nfa.NFA) nfa.NFA {
	if m == nil {
		return *m // nilness must flag this line
	}
	return *m // clean: m is non-nil on this path
}

type machine struct{ states int }

// stateCount dereferences its parameter unconditionally; its summary is
// what makes the seeded call below visible to interprocedural nilness.
func stateCount(m *machine) int {
	return m.states
}

// CountStates seeds the cross-function nil flow N3 exists to catch: the
// nil literal panics one call deep, inside stateCount, which only the
// summary-based layer can see.
func CountStates() int {
	return stateCount(nil) // interprocedural nilness must flag this line
}
