package nfa

// Differential gate for the sparse subset construction and the direct ToNFA
// (DESIGN.md §11). The references below are the constructions they
// replaced: the bitset subset construction, which steps a full-width state
// set over each atom's minimum byte and keys subsets by their raw words,
// and the Builder-based ToNFA, which adds one edge per atom and lets Build
// merge them. The fast paths must reproduce their output exactly, not just
// their languages: atoms, state numbering, transitions and acceptance feed
// minimization, fingerprints and every structural cache key downstream.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// appendKey appends the set's words, little-endian, to dst: equal sets of
// equal capacity encode identically.
func (s stateSet) appendKey(dst []byte) []byte {
	for _, w := range s {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// determinizeReference is the bitset subset construction.
func determinizeReference(m *NFA) *DFA {
	atoms := Partition(m.allLabels())
	idx := map[string]int{}
	var sets []stateSet
	var trans [][]int
	var accept []bool
	add := func(set stateSet) int {
		k := string(set.appendKey(nil))
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
	add(m.startClosure())
	for qi := 0; qi < len(sets); qi++ {
		for ai, atom := range atoms {
			rep, _ := atom.Min()
			trans[qi][ai] = add(m.step(sets[qi], rep))
		}
	}
	return newDFA(atoms, trans, accept, 0)
}

// toNFAReference is the Builder-based ToNFA.
func toNFAReference(d *DFA) *NFA {
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

// determinizeMismatch compares DeterminizeB with the reference on m, and
// ToNFA with its reference on the resulting DFA, its minimization and its
// complement. It returns "" when all agree.
func determinizeMismatch(m *NFA) string {
	got, err := DeterminizeB(nil, m)
	if err != nil {
		return err.Error()
	}
	want := determinizeReference(m)
	switch {
	case !slices.Equal(got.atoms, want.atoms):
		return fmt.Sprintf("atoms differ: got %v, want %v", got.atoms, want.atoms)
	case got.start != want.start:
		return fmt.Sprintf("start differs: got %d, want %d", got.start, want.start)
	case !slices.Equal(got.accept, want.accept):
		return fmt.Sprintf("accept differs: got %v, want %v", got.accept, want.accept)
	case !slices.EqualFunc(got.trans, want.trans, slices.Equal[[]int]):
		return fmt.Sprintf("transitions differ over %d vs %d states", got.NumStates(), want.NumStates())
	}
	for _, d := range []*DFA{got, got.Minimize(), got.Complement()} {
		if g, w := d.ToNFA().Key(), toNFAReference(d).Key(); g != w {
			return fmt.Sprintf("ToNFA of a %d-state DFA differs:\n got %q\nwant %q", d.NumStates(), g, w)
		}
	}
	return ""
}

// TestDeterminizeMatchesReference runs the differential check on seamed and
// plain random machines and on fixed shapes: empty, ε, Σ*, a wide class and
// a machine with many atoms.
func TestDeterminizeMatchesReference(t *testing.T) {
	machines := []*NFA{Empty(), Epsilon(), AnyString(), Star(Class(Range(0x20, 0x7e))), buildPipelineMachine(),
		Concat(Star(Class(AnyByte())), Literal("0123456789abcdef"))}
	r := rand.New(rand.NewSource(151))
	for i := 0; i < 300; i++ {
		machines = append(machines, seamedMachine(r), randMachine(r, 3))
	}
	for i, m := range machines {
		if msg := determinizeMismatch(m); msg != "" {
			t.Fatalf("machine %d (%d states): %s", i, m.NumStates(), msg)
		}
	}
}

// machineFromBytes decodes fuzz input into a machine with arbitrary
// structure: the first byte sizes it (1–16 states), then each 3-byte group
// adds one transition. Its low bits pick ε, seam or character edges over
// small ranges of a–h, so subsets overlap and labels refine into several
// atoms.
func machineFromBytes(data []byte) *NFA {
	if len(data) == 0 {
		return Empty()
	}
	b := NewBuilder()
	n := 1 + int(data[0]%16)
	b.AddStates(n)
	data = data[1:]
	for ; len(data) >= 3; data = data[3:] {
		from, to := int(data[0])%n, int(data[2])%n
		switch op := data[1]; op % 8 {
		case 0:
			b.AddEps(from, to)
		case 1:
			b.AddTaggedEps(from, to, int(op>>3)%4)
		default:
			lo := 'a' + op>>3%8
			b.AddEdge(from, Range(lo, lo+op>>6), to)
		}
	}
	return b.Build(0, n-1)
}

// FuzzDeterminizeMatchesReference is the differential check over machines
// decoded from fuzz input.
func FuzzDeterminizeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 2, 1, 1, 0, 1})
	f.Add([]byte{5, 0, 10, 1, 1, 0, 2, 2, 74, 3, 3, 200, 4, 4, 8, 0, 2, 3, 4})
	f.Add([]byte{15, 0, 2, 7, 7, 130, 0, 0, 1, 3, 3, 18, 9, 9, 67, 14, 2, 9, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg := determinizeMismatch(machineFromBytes(data)); msg != "" {
			t.Fatal(msg)
		}
	})
}
