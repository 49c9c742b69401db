package nfa

import (
	"fmt"
	"strings"

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
// have equal fingerprints iff their languages are equal. The minimal DFA is
// unique up to state renaming; renaming is fixed by BFS over bytes in
// ascending order, and transitions are serialized as per-state successor
// runs so the result is independent of how edge labels were partitioned.
// The solver uses fingerprints to deduplicate disjunctive assignments. The
// canonicalizing determinization + minimization is accounted against bud.
func FingerprintB(bud *budget.Budget, m *NFA) (string, error) {
	dd, err := DeterminizeB(bud, m)
	if err != nil {
		return "", err
	}
	d, err := dd.MinimizeB(bud)
	if err != nil {
		return "", err
	}
	// succ[s][c] = successor of s on byte c.
	succ := make([][256]int, d.NumStates())
	for s := 0; s < d.NumStates(); s++ {
		for ai, atom := range d.atoms {
			for _, c := range atom.Bytes() {
				succ[s][c] = d.trans[s][ai]
			}
		}
	}
	order := []int{d.start}
	pos := map[int]int{d.start: 0}
	for qi := 0; qi < len(order); qi++ {
		s := order[qi]
		for c := 0; c < 256; c++ {
			t := succ[s][c]
			if _, ok := pos[t]; !ok {
				pos[t] = len(order)
				order = append(order, t)
			}
		}
	}
	var b strings.Builder
	for _, s := range order {
		if d.accept[s] {
			b.WriteByte('A')
		} else {
			b.WriteByte('.')
		}
		// Serialize successor runs: byte ranges with a common target.
		c := 0
		for c < 256 {
			t := succ[s][c]
			lo := c
			for c < 256 && succ[s][c] == t {
				c++
			}
			fmt.Fprintf(&b, "%d-%d>%d;", lo, c-1, pos[t])
		}
		b.WriteByte('|')
	}
	return b.String(), nil
}
