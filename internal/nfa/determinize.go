package nfa

import (
	"math/bits"
	"slices"

	"dprle/internal/budget"
)

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
//
// The construction is sparse: its cost per DFA state follows the size of
// the subset, not the width of the machine. Subsets are sorted state-id
// lists found by hash; a DFA state is expanded by bucketing its members'
// moves per atom from a successor index built once; and the closure of a
// lone target is memoized per NFA state as the DFA state it numbers. So a
// multi-kilobyte constant never touches a full-width set per DFA state,
// and DFA-like machines, whose buckets hold one target, skip even the
// closure walk and the hash.
func DeterminizeB(bud *budget.Budget, m *NFA) (*DFA, error) {
	atoms := Partition(m.allLabels())
	sx := newSuccessors(m, atoms)
	final := int32(m.final)
	tab := subsetTable{bounds: []int{0}, heads: map[uint64]int32{}}
	var trans [][]int
	var accept []bool
	add := func(set []int32) int {
		id, fresh := tab.intern(set)
		if fresh {
			trans = append(trans, make([]int, len(atoms)))
			_, fin := slices.BinarySearch(set, final)
			accept = append(accept, fin)
		}
		return id
	}
	// Buckets with no target or a single one are the common case: their
	// subsets, ∅ and closure({t}), are numbered once and then looked up
	// without a closure walk or a hash. known[t]-1 is closure({t})'s state,
	// whose sorted list the table holds — the per-state ε-closure memo —
	// and known[n]-1 the empty subset's; 0 means not yet numbered.
	known := make([]int32, m.NumStates()+1)
	numbered := func(slot int, targets []int32) int {
		if known[slot] == 0 {
			known[slot] = int32(add(sx.closeAll(targets))) + 1
		}
		return int(known[slot]) - 1
	}
	add(sx.closeAll([]int32{int32(m.start)}))
	buckets := make([][]int32, len(atoms))
	for qi := 0; qi < len(trans); qi++ {
		// One probe per expanded DFA state; an expansion costs the moves of
		// the subset's members, which bounds the time between context polls.
		if err := bud.AddStates(1, "nfa.determinize"); err != nil {
			return nil, err
		}
		for _, s := range tab.set(qi) {
			for _, mv := range sx.moves[sx.off[s]:sx.off[s+1]] {
				buckets[mv.atom] = append(buckets[mv.atom], mv.to)
			}
		}
		row := trans[qi]
		for ai, targets := range buckets {
			switch {
			case len(targets) == 0:
				row[ai] = numbered(m.NumStates(), nil)
			case !slices.ContainsFunc(targets, func(t int32) bool { return t != targets[0] }):
				row[ai] = numbered(int(targets[0]), targets[:1])
			default:
				row[ai] = add(sx.closeAll(targets))
			}
			buckets[ai] = targets[:0]
		}
	}
	return newDFA(atoms, trans, accept, 0), nil
}

// subsetTable numbers the subsets of a subset construction: sorted state-id
// lists stored back to back, found through a hash of their members with
// chaining, so no key is encoded or allocated per probe.
type subsetTable struct {
	members []int32
	bounds  []int            // subset id is members[bounds[id]:bounds[id+1]]
	heads   map[uint64]int32 // member hash → newest subset id with it, +1
	next    []int32          // next[id] = older subset id with the same hash, or -1
}

func (t *subsetTable) set(id int) []int32 { return t.members[t.bounds[id]:t.bounds[id+1]] }

// intern returns set's id, numbering it next if it is new.
func (t *subsetTable) intern(set []int32) (id int, fresh bool) {
	h := uint64(14695981039346656037) // FNV-1a over the member ids
	for _, s := range set {
		h = (h ^ uint64(uint32(s))) * 1099511628211
	}
	for i := t.heads[h] - 1; i >= 0; i = t.next[i] {
		if slices.Equal(t.set(int(i)), set) {
			return int(i), false
		}
	}
	id = len(t.next)
	t.next = append(t.next, t.heads[h]-1)
	t.heads[h] = int32(id) + 1
	t.members = append(t.members, set...)
	t.bounds = append(t.bounds, len(t.members))
	return id, true
}

// move is one entry of the successor index: on any byte of atom, go to to.
type move struct{ atom, to int32 }

// successors is the per-determinization view of a machine the sparse subset
// construction runs on: state s moves along moves[off[s]:off[s+1]], one
// entry per (edge, atom of its label).
type successors struct {
	m     *NFA
	off   []int32
	moves []move
	mark  []uint32 // mark[s] == gen: s is in the closure being built
	gen   uint32
	buf   []int32  // scratch for the closure being built
	bits  stateSet // scratch for sortStates, allocated on first use
}

// newSuccessors indexes m's moves over atoms. The atoms of each distinct
// label are found once, not once per edge: atoms refine every label, so an
// atom is either inside a label or disjoint from it.
func newSuccessors(m *NFA, atoms []CharSet) *successors {
	n := m.NumStates()
	sx := &successors{m: m, off: make([]int32, n+1), mark: make([]uint32, n)}
	byLabel := map[CharSet][]int32{}
	for s := 0; s < n; s++ {
		for _, e := range m.edges[s] {
			as, ok := byLabel[e.Label]
			if !ok {
				for ai, a := range atoms {
					if a.Intersects(e.Label) {
						as = append(as, int32(ai))
					}
				}
				byLabel[e.Label] = as
			}
			for _, a := range as {
				sx.moves = append(sx.moves, move{atom: a, to: int32(e.To)})
			}
		}
		sx.off[s+1] = int32(len(sx.moves))
	}
	return sx
}

// closeAll returns the ε-closure of targets as a sorted, duplicate-free
// list. The result is valid until the next call and must not be modified.
func (sx *successors) closeAll(targets []int32) []int32 {
	sx.gen++
	u := sx.buf[:0]
	for _, t := range targets {
		if sx.mark[t] != sx.gen {
			sx.mark[t] = sx.gen
			u = append(u, t)
		}
	}
	for i := 0; i < len(u); i++ {
		for _, e := range sx.m.eps[u[i]] {
			if sx.mark[e.To] != sx.gen {
				sx.mark[e.To] = sx.gen
				u = append(u, int32(e.To))
			}
		}
	}
	sx.sortStates(u)
	sx.buf = u
	return u
}

// sortStates sorts a duplicate-free state list in place. Short lists are
// sorted directly; long ones are set in a scratch bitset and read back in
// order, linear in the list plus the words its span covers.
func (sx *successors) sortStates(u []int32) {
	if len(u) <= 32 {
		slices.Sort(u)
		return
	}
	if sx.bits == nil {
		sx.bits = newStateSet(len(sx.mark))
	}
	lo, hi := u[0], u[0]
	for _, s := range u {
		lo, hi = min(lo, s), max(hi, s)
		sx.bits.add(int(s))
	}
	i := 0
	for wi := int(lo) >> 6; wi <= int(hi)>>6; wi++ {
		w := sx.bits[wi]
		sx.bits[wi] = 0
		for w != 0 {
			u[i] = int32(wi<<6 | bits.TrailingZeros64(w))
			w &= w - 1
			i++
		}
	}
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
// fresh final state joined by ε-edges from each accepting state. Each row
// has one edge per distinct target, labelled with the union of the atoms
// leading there in first-occurrence order: the form Build's edge merging
// would produce, built directly.
func (d *DFA) ToNFA() *NFA {
	n := d.NumStates()
	f := n
	var flat []Edge
	ends := make([]int, n)
	slot := make([]int, n) // slot[t]-1 = position of t's edge in flat, if in this row
	for s := 0; s < n; s++ {
		lo := len(flat)
		for ai, t := range d.trans[s] {
			if i := slot[t] - 1; i >= lo && flat[i].To == t {
				flat[i].Label = flat[i].Label.Union(d.atoms[ai])
				continue
			}
			slot[t] = len(flat) + 1
			flat = append(flat, Edge{Label: d.atoms[ai], To: t})
		}
		ends[s] = len(flat)
	}
	edges := make([][]Edge, n+1)
	eps := make([][]EpsEdge, n+1)
	toF := []EpsEdge{{To: f, Tag: NoTag}}
	lo := 0
	for s := 0; s < n; s++ {
		edges[s] = flat[lo:ends[s]:ends[s]]
		lo = ends[s]
		if d.accept[s] {
			eps[s] = toF
		}
	}
	// The rows are already merged and Trim copies them into a fresh machine
	// built through newNFA, so this intermediate skips the normalization.
	return (&NFA{edges: edges, eps: eps, start: d.start, final: f}).Trim()
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
