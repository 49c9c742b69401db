package nfa

import "dprle/internal/budget"

// DFA is a deterministic, complete automaton over alphabet atoms. Each state
// has exactly one outgoing transition per atom class, and the atom classes
// partition Σ, so every byte has exactly one successor. DFAs are produced by
// Determinize and consumed by Complement, Minimize, and the inclusion/
// equivalence checks.
type DFA struct {
	atoms  []CharSet  // pairwise-disjoint classes covering Σ
	atomOf [256]uint8 // byte → index into atoms, precomputed at construction
	trans  [][]int    // trans[state][atomIndex] = successor state
	accept []bool
	start  int
}

// newDFA assembles a DFA and precomputes its byte→atom dispatch table, so
// membership runs one table lookup per input byte instead of a linear scan
// over the atom classes. atoms must partition Σ (Partition guarantees it),
// so every byte lands in exactly one class and the table is total.
func newDFA(atoms []CharSet, trans [][]int, accept []bool, start int) *DFA {
	d := &DFA{atoms: atoms, trans: trans, accept: accept, start: start}
	for i, a := range atoms {
		for _, c := range a.Bytes() {
			d.atomOf[c] = uint8(i)
		}
	}
	return d
}

// NumStates returns the number of DFA states (including any dead state).
func (d *DFA) NumStates() int { return len(d.trans) }

// Start returns the start state.
func (d *DFA) Start() int { return d.start }

// Accepts reports whether the DFA accepts w.
func (d *DFA) Accepts(w string) bool {
	s := d.start
	for i := 0; i < len(w); i++ {
		s = d.trans[s][d.atomOf[w[i]]]
	}
	return d.accept[s]
}

// Determinize applies the subset construction to m, producing a complete
// DFA over the atom partition induced by m's edge labels.
func Determinize(m *NFA) *DFA {
	d, _ := DeterminizeB(nil, m) // nil budget cannot fail (see budget.Budget)
	return d
}

// DeterminizeB is Determinize under a resource budget: each DFA state the
// subset construction materializes is accounted against bud, and the
// construction aborts with the budget's *Exhausted error when the budget
// trips. Determinization is the solver's worst-case-exponential step (the
// complement-based subset and maximality machinery all route through it),
// so this is where state caps bite first.
func DeterminizeB(bud *budget.Budget, m *NFA) (*DFA, error) {
	atoms := Partition(m.allLabels())
	start := m.startClosure()
	// Subsets are keyed by their raw bitset words: a fixed-width binary
	// encoding, no per-state formatting, one string allocation per probe.
	idx := map[string]int{}
	var sets []stateSet
	var trans [][]int
	var accept []bool
	scratch := make([]byte, 0, len(start)*8)
	add := func(set stateSet) int {
		scratch = set.appendKey(scratch[:0])
		k := string(scratch)
		if id, ok := idx[k]; ok {
			return id
		}
		id := len(sets)
		idx[k] = id
		sets = append(sets, set)
		trans = append(trans, make([]int, len(atoms)))
		accept = append(accept, set.contains(m.final))
		return id
	}
	add(start)
	for qi := 0; qi < len(sets); qi++ {
		// One probe per expanded DFA state: m.step below is O(|m| · edges),
		// so this also bounds the time between context polls.
		if err := bud.AddStates(1, "nfa.determinize"); err != nil {
			return nil, err
		}
		cur := sets[qi]
		for ai, atom := range atoms {
			// All bytes within an atom behave identically, so step on the
			// atom's minimum representative.
			rep, ok := atom.Min()
			if !ok {
				continue
			}
			next := m.step(cur, rep)
			trans[qi][ai] = add(next)
		}
	}
	return newDFA(atoms, trans, accept, 0), nil
}

// Complement returns a DFA recognizing Σ* \ L(d).
func (d *DFA) Complement() *DFA {
	accept := make([]bool, len(d.accept))
	for i, a := range d.accept {
		accept[i] = !a
	}
	return &DFA{atoms: d.atoms, atomOf: d.atomOf, trans: d.trans, accept: accept, start: d.start}
}

// IsEmpty reports whether L(d) = ∅.
func (d *DFA) IsEmpty() bool {
	seen := make([]bool, d.NumStates())
	seen[d.start] = true
	stack := []int{d.start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.accept[s] {
			return false
		}
		for _, t := range d.trans[s] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return true
}

// ToNFA converts d back to a (single-start, single-final) NFA, introducing a
// fresh final state joined by ε-edges from each accepting state.
func (d *DFA) ToNFA() *NFA {
	bl := NewBuilder()
	bl.AddStates(d.NumStates())
	f := bl.AddState()
	for s := 0; s < d.NumStates(); s++ {
		for ai, t := range d.trans[s] {
			bl.AddEdge(s, d.atoms[ai], t)
		}
		if d.accept[s] {
			bl.AddEps(s, f)
		}
	}
	return bl.Build(d.start, f).Trim()
}

// ComplementB returns an NFA for Σ* \ L(m) under a resource budget (the
// determinization it routes through is the expensive part).
func ComplementB(bud *budget.Budget, m *NFA) (*NFA, error) {
	d, err := DeterminizeB(bud, m)
	if err != nil {
		return nil, err
	}
	return d.Complement().ToNFA(), nil
}

// MinimizedB returns an equivalent NFA with the minimal deterministic state
// count, under a resource budget. The paper notes (§4) that applying
// minimization to intermediate machines can improve the pathological cases;
// the solver exposes this as an option.
func MinimizedB(bud *budget.Budget, m *NFA) (*NFA, error) {
	d, err := DeterminizeB(bud, m)
	if err != nil {
		return nil, err
	}
	md, err := d.MinimizeB(bud)
	if err != nil {
		return nil, err
	}
	return md.ToNFA(), nil
}
