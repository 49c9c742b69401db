package nfa

import "dprle/internal/budget"

// Minimize returns the canonical minimal DFA for L(d), computed by
// Hopcroft's partition refinement over the DFA's atom classes.
func (d *DFA) Minimize() *DFA {
	m, _ := d.MinimizeB(nil) // nil budget cannot fail (see budget.Budget)
	return m
}

// MinimizeB is Minimize under a resource budget.
//
// Hopcroft's algorithm refines the accepting/non-accepting split with a
// worklist of (block, atom) splitters: the predecessors of a splitter's
// states under its atom are marked, every block they touch is split into
// marked and unmarked halves, and only the smaller half joins the
// worklist, for O(states · atoms · log states) work in total. Every
// state takes part, reachable or not.
//
// The result numbers classes by their first state in state order, except
// that a stable initial split keeps non-accepting = 0 and accepting = 1.
// This is exactly the numbering Moore's round-based refinement produces,
// so fingerprints, canonical keys and everything derived from them are
// independent of the refinement algorithm.
//
// The budget is checked once on entry and then once per states · atoms
// inverse-transition visits, the work of one Moore round.
func (d *DFA) MinimizeB(bud *budget.Budget) (*DFA, error) {
	if err := bud.Check("nfa.minimize"); err != nil {
		return nil, err
	}
	n, k := d.NumStates(), len(d.atoms)
	inv, invStart := d.inverse()
	p := newPartition(d.accept)
	initial := len(p.first)

	// Splitter (b, a) is on the worklist iff queued[b*k+a]. Blocks never
	// outnumber states, so n·k slots suffice.
	queued := make([]bool, n*k)
	var work []int // pending splitters, encoded b*k+a
	enqueue := func(b int) {
		for a := 0; a < k; a++ {
			queued[b*k+a] = true
			work = append(work, b*k+a)
		}
	}
	if initial == 2 {
		// With the two initial blocks partitioning all states, splitting
		// by either one splits by both.
		if p.size(1) < p.size(0) {
			enqueue(1)
		} else {
			enqueue(0)
		}
	}
	quota := n * k // inverse-edge visits between budget checks
	visits := 0
	var members []int32
	for len(work) > 0 {
		w := work[len(work)-1]
		work = work[:len(work)-1]
		queued[w] = false
		b, a := w/k, w%k
		// Marking reorders elements within blocks, the splitter's own
		// block included, so walk a copy of its members.
		members = append(members[:0], p.elems[p.first[b]:p.end[b]]...)
		for _, t := range members {
			i := a*n + int(t)
			lo, hi := invStart[i], invStart[i+1]
			for _, s := range inv[lo:hi] {
				p.mark(s)
			}
			visits += int(hi - lo)
		}
		for _, x := range p.touched {
			// The new block is always the smaller half: whether or not
			// (x, a') is still queued, queuing (y, a') keeps the
			// worklist complete.
			if y := p.split(x); y >= 0 {
				for c := y * k; c < (y+1)*k; c++ {
					if !queued[c] {
						queued[c] = true
						work = append(work, c)
					}
				}
			}
		}
		p.touched = p.touched[:0]
		if visits >= quota {
			visits = 0
			if err := bud.Check("nfa.minimize"); err != nil {
				return nil, err
			}
		}
	}

	class := make([]int, n)
	if initial == 2 && len(p.first) == 2 {
		// The initial split was stable: block 0 is non-accepting, block 1
		// accepting.
		for s := range class {
			class[s] = int(p.blockOf[s])
		}
	} else {
		id := make([]int, len(p.first))
		for i := range id {
			id[i] = -1
		}
		next := 0
		for s := range class {
			b := p.blockOf[s]
			if id[b] < 0 {
				id[b] = next
				next++
			}
			class[s] = id[b]
		}
	}
	numClasses := len(p.first)
	trans := make([][]int, numClasses)
	accept := make([]bool, numClasses)
	for s := 0; s < n; s++ {
		c := class[s]
		if trans[c] != nil {
			continue
		}
		row := make([]int, k)
		for ai, t := range d.trans[s] {
			row[ai] = class[t]
		}
		trans[c] = row
		accept[c] = d.accept[s]
	}
	return &DFA{atoms: d.atoms, atomOf: d.atomOf, trans: trans, accept: accept, start: class[d.start]}, nil
}

// inverse returns d's transitions reversed, per atom, in compressed sparse
// row form: the predecessors of state t under atom a are
// src[start[a·n+t]:start[a·n+t+1]], with n = NumStates.
func (d *DFA) inverse() (src, start []int32) {
	n, k := d.NumStates(), len(d.atoms)
	start = make([]int32, n*k+1)
	for _, row := range d.trans {
		for a, t := range row {
			start[a*n+t]++
		}
	}
	// Prefix sums make start[i] the end of bucket i; filling each bucket
	// from its end leaves start[i] at its beginning.
	for i := 1; i <= n*k; i++ {
		start[i] += start[i-1]
	}
	src = make([]int32, n*k)
	for s := n - 1; s >= 0; s-- {
		for a, t := range d.trans[s] {
			i := a*n + t
			start[i]--
			src[start[i]] = int32(s)
		}
	}
	return src, start
}

// partition is a refinable partition of the states 0..n-1. Each block
// occupies the contiguous range elems[first[b]:end[b]]; its marked
// members sit at the front, in elems[first[b]:mid[b]].
type partition struct {
	elems           []int32 // states, grouped by block
	loc             []int32 // loc[s] is the index of s in elems
	blockOf         []int32
	first, mid, end []int32 // per block
	touched         []int32 // blocks with a marked member
}

// newPartition returns the partition {non-accepting, accepting}, dropping
// an empty side: block 0 is the non-accepting states when there are any.
func newPartition(accept []bool) *partition {
	n := len(accept)
	p := &partition{
		elems:   make([]int32, 0, n),
		loc:     make([]int32, n),
		blockOf: make([]int32, n),
	}
	for _, want := range []bool{false, true} {
		lo := int32(len(p.elems))
		b := int32(len(p.first))
		for s, a := range accept {
			if a == want {
				p.loc[s] = int32(len(p.elems))
				p.blockOf[s] = b
				p.elems = append(p.elems, int32(s))
			}
		}
		if hi := int32(len(p.elems)); hi > lo {
			p.first = append(p.first, lo)
			p.mid = append(p.mid, lo)
			p.end = append(p.end, hi)
		}
	}
	return p
}

func (p *partition) size(b int) int { return int(p.end[b] - p.first[b]) }

// mark moves s into the marked front of its block.
func (p *partition) mark(s int32) {
	b := p.blockOf[s]
	i, j := p.loc[s], p.mid[b]
	if i < j {
		return // already marked
	}
	if j == p.first[b] {
		p.touched = append(p.touched, b)
	}
	t := p.elems[j]
	p.elems[i], p.elems[j] = t, s
	p.loc[t], p.loc[s] = i, j
	p.mid[b]++
}

// split separates block b's marked members from its unmarked ones and
// clears the marks. When both halves are nonempty, the smaller half
// becomes a new block, whose index is returned; otherwise it returns -1.
func (p *partition) split(b int32) int {
	f, m, e := p.first[b], p.mid[b], p.end[b]
	if m == e {
		p.mid[b] = f
		return -1
	}
	var lo, hi int32
	if m-f <= e-m {
		lo, hi = f, m
		p.first[b] = m
	} else {
		lo, hi = m, e
		p.end[b] = m
	}
	p.mid[b] = p.first[b]
	y := int32(len(p.first))
	p.first = append(p.first, lo)
	p.mid = append(p.mid, lo)
	p.end = append(p.end, hi)
	for _, s := range p.elems[lo:hi] {
		p.blockOf[s] = y
	}
	return int(y)
}
