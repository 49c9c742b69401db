package nfa

import (
	"strconv"

	"dprle/internal/budget"
)

// SubsetB reports whether L(a) ⊆ L(b), decided as L(a) ∩ (Σ* \ L(b)) = ∅.
// The complement (determinization) and the product-pair exploration are
// both accounted against bud. The emptiness side runs through IntersectsB,
// which builds no product machine and exits on the first counterexample
// path.
func SubsetB(bud *budget.Budget, a, b *NFA) (bool, error) {
	nb, err := ComplementB(bud, b)
	if err != nil {
		return false, err
	}
	hit, err := IntersectsB(bud, a, nb)
	if err != nil {
		return false, err
	}
	return !hit, nil
}

// Equivalent reports whether L(a) = L(b).
func Equivalent(a, b *NFA) bool {
	ab, _ := SubsetB(nil, a, b) // nil budget cannot fail (see budget.Budget)
	ba, _ := SubsetB(nil, b, a)
	return ab && ba
}

// FingerprintB returns a canonical string identifying L(m): two machines
// have equal fingerprints iff their languages are equal. It is the
// Fingerprint of m's minimal DFA. The solver uses fingerprints to
// deduplicate disjunctive assignments. The determinization and
// minimization are accounted against bud.
func FingerprintB(bud *budget.Budget, m *NFA) (string, error) {
	dd, err := DeterminizeB(bud, m)
	if err != nil {
		return "", err
	}
	d, err := dd.MinimizeB(bud)
	if err != nil {
		return "", err
	}
	return d.Fingerprint(), nil
}

// Fingerprint serializes d with its states renumbered by breadth-first
// search from the start state over bytes in ascending order. Each state
// contributes its acceptance flag and its successor runs (maximal byte
// ranges with a common target), so the result does not depend on how the
// bytes were partitioned into atoms. The string is a language key only when
// d is minimal: the minimal DFA is unique up to state renaming, and the
// search fixes the renaming. Two non-minimal DFAs for one language can
// fingerprint differently.
func (d *DFA) Fingerprint() string {
	// pos[s] is one more than s's position in the search order; 0 means
	// not yet reached.
	pos := make([]int, d.NumStates())
	order := make([]int, 1, d.NumStates())
	order[0] = d.start
	pos[d.start] = 1
	for qi := 0; qi < len(order); qi++ {
		row := d.trans[order[qi]]
		for c := 0; c < 256; c++ {
			if t := row[d.atomOf[c]]; pos[t] == 0 {
				order = append(order, t)
				pos[t] = len(order)
			}
		}
	}
	b := make([]byte, 0, 16*len(order))
	for _, s := range order {
		if d.accept[s] {
			b = append(b, 'A')
		} else {
			b = append(b, '.')
		}
		row := d.trans[s]
		for c := 0; c < 256; {
			t := row[d.atomOf[c]]
			lo := c
			for c < 256 && row[d.atomOf[c]] == t {
				c++
			}
			b = strconv.AppendInt(b, int64(lo), 10)
			b = append(b, '-')
			b = strconv.AppendInt(b, int64(c-1), 10)
			b = append(b, '>')
			b = strconv.AppendInt(b, int64(pos[t]-1), 10)
			b = append(b, ';')
		}
		b = append(b, '|')
	}
	return string(b)
}
