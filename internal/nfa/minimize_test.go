package nfa

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dprle/internal/budget"
	"dprle/internal/faultinject"
)

// mooreMinimize is Moore's round-based partition refinement, the minimizer
// MinimizeB replaced. It stays as the differential oracle: each round
// re-keys every state by (class, successor classes) and renumbers classes
// in order of first occurrence, until a round creates no new class.
func mooreMinimize(d *DFA) *DFA {
	n := d.NumStates()
	// Initial partition: accepting vs non-accepting.
	class := make([]int, n)
	numClasses := 1
	anyAccept := false
	for _, a := range d.accept {
		if a {
			anyAccept = true
		}
	}
	if anyAccept {
		numClasses = 2
		for s := 0; s < n; s++ {
			if d.accept[s] {
				class[s] = 1
			}
		}
	}
	for {
		// Signature of a state: (class, successor classes per atom),
		// varint-encoded — one key allocation per state, no formatting.
		sig := make([]string, n)
		var sb []byte
		for s := 0; s < n; s++ {
			sb = binary.AppendUvarint(sb[:0], uint64(class[s]))
			for _, t := range d.trans[s] {
				sb = binary.AppendUvarint(sb, uint64(class[t]))
			}
			sig[s] = string(sb)
		}
		next := map[string]int{}
		newClass := make([]int, n)
		for s := 0; s < n; s++ {
			id, ok := next[sig[s]]
			if !ok {
				id = len(next)
				next[sig[s]] = id
			}
			newClass[s] = id
		}
		if len(next) == numClasses {
			break
		}
		numClasses = len(next)
		class = newClass
	}
	trans := make([][]int, numClasses)
	accept := make([]bool, numClasses)
	done := make([]bool, numClasses)
	for s := 0; s < n; s++ {
		c := class[s]
		if done[c] {
			continue
		}
		done[c] = true
		row := make([]int, len(d.atoms))
		for ai, t := range d.trans[s] {
			row[ai] = class[t]
		}
		trans[c] = row
		accept[c] = d.accept[s]
	}
	return &DFA{atoms: d.atoms, atomOf: d.atomOf, trans: trans, accept: accept, start: class[d.start]}
}

// mooreMismatch minimizes d with both MinimizeB and the Moore oracle and
// describes the first difference in their trans/accept/start arrays, or
// returns "" when they are identical.
func mooreMismatch(d *DFA) string {
	got, err := d.MinimizeB(nil)
	if err != nil {
		return fmt.Sprintf("MinimizeB: %v", err)
	}
	want := mooreMinimize(d)
	switch {
	case got.start != want.start:
		return fmt.Sprintf("start = %d, Moore %d", got.start, want.start)
	case !reflect.DeepEqual(got.accept, want.accept):
		return fmt.Sprintf("accept = %v, Moore %v", got.accept, want.accept)
	case !reflect.DeepEqual(got.trans, want.trans):
		return fmt.Sprintf("trans = %v, Moore %v", got.trans, want.trans)
	}
	return ""
}

// randomAtoms splits Σ into k contiguous byte ranges.
func randomAtoms(r *rand.Rand, k int) []CharSet {
	cuts := map[int]bool{}
	for len(cuts) < k-1 {
		cuts[1+r.Intn(255)] = true
	}
	atoms := make([]CharSet, 0, k)
	lo := 0
	for hi := 1; hi <= 256; hi++ {
		if hi == 256 || cuts[hi] {
			atoms = append(atoms, Range(byte(lo), byte(hi-1)))
			lo = hi
		}
	}
	return atoms
}

// randomDFA returns a complete DFA with 1–60 states over 1–6 atoms. mode
// picks the accepting set: "random", "all", "none", or "stable", where
// every atom sends all accepting states into one side of the
// accepting/non-accepting split and all non-accepting states into one
// side, so that split is already stable. Random successors and a random
// start leave some states unreachable.
func randomDFA(r *rand.Rand, mode string) *DFA {
	n, k := 1+r.Intn(60), 1+r.Intn(6)
	accept := make([]bool, n)
	for s := range accept {
		switch mode {
		case "random":
			accept[s] = r.Intn(3) == 0
		case "all":
			accept[s] = true
		case "stable":
			accept[s] = r.Intn(2) == 0
		}
	}
	side := [2][]int{} // side[0] non-accepting, side[1] accepting states
	for s, a := range accept {
		if a {
			side[1] = append(side[1], s)
		} else {
			side[0] = append(side[0], s)
		}
	}
	// target[from][a] is the side atom a leads to from side from.
	var target [2][]int
	for from := range target {
		target[from] = make([]int, k)
		for a := range target[from] {
			target[from][a] = r.Intn(2)
			if len(side[target[from][a]]) == 0 {
				target[from][a] ^= 1
			}
		}
	}
	trans := make([][]int, n)
	for s := range trans {
		trans[s] = make([]int, k)
		for a := range trans[s] {
			if mode == "stable" {
				from := 0
				if accept[s] {
					from = 1
				}
				to := side[target[from][a]]
				trans[s][a] = to[r.Intn(len(to))]
			} else {
				trans[s][a] = r.Intn(n)
			}
		}
	}
	return newDFA(randomAtoms(r, k), trans, accept, r.Intn(n))
}

func TestMinimizeMatchesMooreOnRandomDFAs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, mode := range []string{"random", "all", "none", "stable"} {
		for i := 0; i < 2000; i++ {
			d := randomDFA(r, mode)
			if msg := mooreMismatch(d); msg != "" {
				t.Fatalf("%s DFA #%d (states %d, atoms %d, accept %v, start %d, trans %v): %s",
					mode, i, d.NumStates(), len(d.atoms), d.accept, d.start, d.trans, msg)
			}
		}
	}
}

func TestMinimizeKeepsStableSplitNumbering(t *testing.T) {
	// State 0 accepts and the split is stable: first-occurrence numbering
	// would make the accepting class 0, Moore's keeps it at 1.
	d := newDFA([]CharSet{AnyByte()}, [][]int{{0}, {1}}, []bool{true, false}, 0)
	m := d.Minimize()
	if m.NumStates() != 2 || m.Start() != 1 || !m.accept[1] || m.accept[0] {
		t.Fatalf("minimized = start %d, accept %v; want start 1, accept [false true]", m.Start(), m.accept)
	}
	if msg := mooreMismatch(d); msg != "" {
		t.Fatal(msg)
	}
}

func TestMinimizeStepsLogarithmic(t *testing.T) {
	// The DFA of the single word (ab)^1000 has 2002 pairwise
	// distinguishable states; Moore's refinement needs about 2000 rounds,
	// one budget step each.
	d := Determinize(Literal(strings.Repeat("ab", 1000)))
	bud := budget.New(context.Background(), budget.Limits{})
	m, err := d.MinimizeB(bud)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != d.NumStates() {
		t.Fatalf("minimized to %d states, want %d", m.NumStates(), d.NumStates())
	}
	// One check on entry, then one per states·atoms inverse-edge visits:
	// Hopcroft visits each edge O(log states) times.
	if steps, max := bud.Usage().Steps, int64(bits.Len(uint(d.NumStates()))); steps > max {
		t.Fatalf("steps = %d, want at most %d", steps, max)
	}
}

// blowupDFA is the DFA of (a|b)*a(a|b){10}: 2050 states, 2049 after
// minimization, with enough refinement work for in-loop budget checks.
func blowupDFA() *DFA {
	ab := Class(Range('a', 'b'))
	m := Concat(Star(ab.Copy()), Literal("a"))
	for i := 0; i < 10; i++ {
		m = Concat(m, ab.Copy())
	}
	return Determinize(m)
}

func TestMinimizeBudgetTrips(t *testing.T) {
	d := blowupDFA()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		bud   *budget.Budget
		fault int64 // arm faultinject.Checkpoint at this check, 0 = none
		kind  budget.Kind
		cause error
	}{
		// The entry check passes; the first in-loop check trips.
		{"max-steps", budget.New(context.Background(), budget.Limits{MaxSteps: 1}), 0, budget.Steps, nil},
		{"canceled", budget.New(canceled, budget.Limits{}), 0, budget.Canceled, context.Canceled},
		{"in-loop checkpoint", budget.New(context.Background(), budget.Limits{}), 2, budget.Injected, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fault > 0 {
				defer faultinject.Arm(faultinject.Checkpoint, tc.fault)()
			}
			m, err := d.MinimizeB(tc.bud)
			var ex *budget.Exhausted
			if !errors.As(err, &ex) {
				t.Fatalf("MinimizeB = %v, %v; want *budget.Exhausted", m, err)
			}
			if m != nil || ex.Kind != tc.kind || ex.Stage != "nfa.minimize" {
				t.Fatalf("got %v, kind %s at %s; want nil, %s at nfa.minimize", m, ex.Kind, ex.Stage, tc.kind)
			}
			if tc.cause != nil && !errors.Is(err, tc.cause) {
				t.Fatalf("error %v does not wrap %v", err, tc.cause)
			}
		})
	}
}
