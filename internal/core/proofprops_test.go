package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dprle/internal/nfa"
)

// This file re-states the paper's mechanized Coq theorems (§3.3) as
// executable properties over randomized CI instances. The three conditions —
// Regular, Satisfying, All-Solutions — are checked exactly (via automata
// inclusion), not by sampling, for every generated instance.

// randLang builds a random regular language over {a, b} from the safe
// combinators, keeping machines small enough for exhaustive checking.
func randLang(r *rand.Rand, depth int) *nfa.NFA {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return nfa.Literal(string([]byte{byte('a' + r.Intn(2))}))
		case 1:
			n := r.Intn(3)
			s := make([]byte, n)
			for i := range s {
				s[i] = byte('a' + r.Intn(2))
			}
			return nfa.Literal(string(s))
		default:
			return nfa.Class(nfa.Range('a', 'b'))
		}
	}
	switch r.Intn(4) {
	case 0:
		return nfa.Concat(randLang(r, depth-1), randLang(r, depth-1))
	case 1:
		return nfa.Union(randLang(r, depth-1), randLang(r, depth-1))
	case 2:
		return nfa.Star(randLang(r, depth-1))
	default:
		return nfa.Plus(randLang(r, depth-1))
	}
}

// Theorem 1 (Regular): every returned assignment consists of NFAs — i.e.
// the solutions are well-formed machines whose languages behave regularly.
// We check closure behaviour: membership agrees between the machine and its
// determinization (a type-level property in Coq; behavioural here).
func TestPropCIRegular(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	f := func() bool {
		c1, c2, c3 := randLang(r, 2), randLang(r, 2), randLang(r, 2)
		sols, _, _ := ConcatIntersectB(nil, c1, c2, c3)
		for _, s := range sols {
			d1 := nfa.Determinize(s.V1)
			d2 := nfa.Determinize(s.V2)
			for _, w := range []string{"", "a", "b", "ab", "ba", "aab"} {
				if s.V1.Accepts(w) != d1.Accepts(w) || s.V2.Accepts(w) != d2.Accepts(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 2 (Satisfying): ∀ Ai ∈ S: V1 ⊆ c1 ∧ V2 ⊆ c2 ∧ V1·V2 ⊆ c3.
func TestPropCISatisfying(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	f := func() bool {
		c1, c2, c3 := randLang(r, 2), randLang(r, 2), randLang(r, 2)
		sols, _, _ := ConcatIntersectB(nil, c1, c2, c3)
		for _, s := range sols {
			if !must(nfa.SubsetB(nil, s.V1, c1)) || !must(nfa.SubsetB(nil, s.V2, c2)) {
				return false
			}
			if !must(nfa.SubsetB(nil, nfa.Concat(s.V1, s.V2), c3)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 3 (All-Solutions): ∀ w ∈ (c1·c2) ∩ c3, some Ai covers w.
func TestPropCIAllSolutions(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	f := func() bool {
		c1, c2, c3 := randLang(r, 2), randLang(r, 2), randLang(r, 2)
		sols, _, _ := ConcatIntersectB(nil, c1, c2, c3)
		return CheckAllSolutions(c1, c2, c3, sols)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Finiteness (§3.2/§3.5): the number of disjuncts is bounded by the number
// of ε-transitions in M5, which is finite and at most |M5|'s seam count.
func TestPropCIFiniteBound(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	f := func() bool {
		c1, c2, c3 := randLang(r, 2), randLang(r, 2), randLang(r, 2)
		sols, trace, _ := ConcatIntersectB(nil, c1, c2, c3)
		return len(sols) <= len(trace.Seams)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Full-solver properties: every assignment returned by Solve satisfies the
// system (Satisfying) and none is pointwise extendable to another returned
// assignment (an observable consequence of Maximal).
func TestPropSolveSatisfying(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	f := func() bool {
		s := NewSystem()
		c1 := s.MustConst("c1", randLang(r, 2))
		c2 := s.MustConst("c2", randLang(r, 2))
		c3 := s.MustConst("c3", randLang(r, 2))
		s.MustAdd(Var{"v1"}, c1)
		s.MustAdd(Var{"v2"}, c2)
		s.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, c3)
		res, err := SolveCtx(context.Background(), s, Options{})
		if err != nil {
			return false
		}
		for _, a := range res.Assignments {
			if !Satisfies(s, a) {
				return false
			}
			if a.Lookup("v1").IsEmpty() || a.Lookup("v2").IsEmpty() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSolveMaximal(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	f := func() bool {
		s := NewSystem()
		c1 := s.MustConst("c1", randLang(r, 1))
		c2 := s.MustConst("c2", randLang(r, 1))
		c3 := s.MustConst("c3", randLang(r, 2))
		s.MustAdd(Var{"v1"}, c1)
		s.MustAdd(Var{"v2"}, c2)
		s.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, c3)
		res, err := SolveCtx(context.Background(), s, Options{})
		if err != nil {
			return false
		}
		for _, a := range res.Assignments {
			if err := CheckMaximal(s, a); err != nil {
				t.Logf("system:\n%s violation: %v", s, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Decision-soundness: whenever Solve reports unsat for a CI-shaped system,
// the underlying intersection (c1·c2) ∩ c3 is genuinely empty.
func TestPropUnsatMeansEmptyIntersection(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	f := func() bool {
		s := NewSystem()
		l1, l2, l3 := randLang(r, 2), randLang(r, 2), randLang(r, 2)
		c1 := s.MustConst("c1", l1)
		c2 := s.MustConst("c2", l2)
		c3 := s.MustConst("c3", l3)
		s.MustAdd(Var{"v1"}, c1)
		s.MustAdd(Var{"v2"}, c2)
		s.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, c3)
		res, err := SolveCtx(context.Background(), s, Options{})
		if err != nil {
			return false
		}
		if res.Sat() {
			return true
		}
		return must(nfa.IntersectB(nil, nfa.Concat(l1, l2), l3)).IsEmpty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Shared-variable systems (the Fig. 9 shape): va·vb ⊆ c1, vb·vc ⊆ c2 with
// random constants. Every returned assignment must satisfy both constraints
// simultaneously — the mutual-dependence case the paper calls out.
func TestPropSharedVariableSatisfying(t *testing.T) {
	r := rand.New(rand.NewSource(127))
	f := func() bool {
		s := NewSystem()
		c1 := s.MustConst("c1", randLang(r, 2))
		c2 := s.MustConst("c2", randLang(r, 2))
		s.MustAdd(Cat{Left: Var{"va"}, Right: Var{"vb"}}, c1)
		s.MustAdd(Cat{Left: Var{"vb"}, Right: Var{"vc"}}, c2)
		res, err := SolveCtx(context.Background(), s, Options{})
		if err != nil {
			return false
		}
		for _, a := range res.Assignments {
			if !Satisfies(s, a) {
				return false
			}
			for _, v := range []string{"va", "vb", "vc"} {
				if a.Lookup(v).IsEmpty() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Completeness spot-check for shared variables: any concrete split
// (wa·wb ∈ c1, wb·wc ∈ c2) found by brute force over short strings must be
// covered by some returned assignment.
func TestPropSharedVariableCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	f := func() bool {
		s := NewSystem()
		l1 := randLang(r, 2)
		l2 := randLang(r, 2)
		c1 := s.MustConst("c1", l1)
		c2 := s.MustConst("c2", l2)
		s.MustAdd(Cat{Left: Var{"va"}, Right: Var{"vb"}}, c1)
		s.MustAdd(Cat{Left: Var{"vb"}, Right: Var{"vc"}}, c2)
		res, err := SolveCtx(context.Background(), s, Options{})
		if err != nil {
			return false
		}
		// Brute-force short splits.
		words1 := l1.Enumerate(4, 200)
		words2 := l2.Enumerate(4, 200)
		for _, w1 := range words1 {
			for i := 0; i <= len(w1); i++ {
				wa, wb := w1[:i], w1[i:]
				for _, w2 := range words2 {
					if !strings.HasPrefix(w2, wb) {
						continue
					}
					wc := w2[len(wb):]
					// (wa, wb, wc) is a concrete solution; some assignment
					// must contain it pointwise.
					covered := false
					for _, a := range res.Assignments {
						if a.Lookup("va").Accepts(wa) && a.Lookup("vb").Accepts(wb) && a.Lookup("vc").Accepts(wc) {
							covered = true
							break
						}
					}
					if !covered {
						t.Logf("uncovered split (%q,%q,%q) for\n%s", wa, wb, wc, s)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
