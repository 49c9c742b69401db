package core

import (
	"testing"

	"dprle/internal/nfa"
	"dprle/internal/regex"
)

// Figure 4 of the paper: c1 = "nid_", c2 = Σ*[0-9] (the faulty filter),
// c3 = Σ*'Σ* (queries containing a single quote). The paper draws the
// minimal machines, so the fixture canonicalizes the regex-compiled inputs;
// this makes the seam count (and hence the disjunct count) match Fig. 4
// exactly. ConcatIntersectB itself is structure-faithful and would otherwise
// report one disjunct per surviving seam edge of the Thompson machines.
func fig4Inputs() (c1, c2, c3 *nfa.NFA) {
	c1 = nfa.Literal("nid_")
	c2 = must(nfa.MinimizedB(nil, regex.MustMatchLanguage(`[\d]+$`)))
	c3 = must(nfa.MinimizedB(nil, regex.MustMatchLanguage(`'`)))
	return
}

func TestFigure4Pipeline(t *testing.T) {
	c1, c2, c3 := fig4Inputs()
	sols, trace, _ := ConcatIntersectB(nil, c1, c2, c3)

	// M4 recognizes c1·c2 and carries exactly one seam tag.
	if !trace.M4.Accepts("nid_9") || trace.M4.Accepts("nid_") {
		t.Fatal("M4 wrong")
	}
	if len(trace.M4.Tags()) != 1 {
		t.Fatalf("M4 tags = %v", trace.M4.Tags())
	}
	// M5 = (c1·c2) ∩ c3.
	if !trace.M5.Accepts("nid_'9") || trace.M5.Accepts("nid_9") {
		t.Fatal("M5 wrong")
	}
	if len(trace.Seams) == 0 {
		t.Fatal("no seams survived the intersection")
	}

	if len(sols) != 1 {
		t.Fatalf("solutions = %d, want 1", len(sols))
	}
	// Paper: [x'1] = L(nid_).
	if !nfa.Equivalent(sols[0].V1, nfa.Literal("nid_")) {
		w, _ := sols[0].V1.ShortestWitness()
		t.Fatalf("V1 ≠ {nid_}; witness %q", w)
	}
	// x''1: strings that contain a quote and end with a digit.
	v2 := sols[0].V2
	for _, w := range []string{"'5", "ab'cd9", "' OR 1=1 ; DROP news --9"} {
		if !v2.Accepts(w) {
			t.Errorf("V2 should accept %q", w)
		}
	}
	for _, w := range []string{"5", "'x", "", "nid_'5x"} {
		if v2.Accepts(w) {
			t.Errorf("V2 should reject %q", w)
		}
	}
	want := must(nfa.IntersectB(nil, c2, c3))
	if !nfa.Equivalent(v2, want) {
		t.Fatal("V2 should be exactly c2 ∩ c3 here")
	}
}

func TestCICorrectnessProperties(t *testing.T) {
	c1, c2, c3 := fig4Inputs()
	sols, _, _ := ConcatIntersectB(nil, c1, c2, c3)
	// Satisfying (paper §3.3, condition 2).
	for i, s := range sols {
		if !must(nfa.SubsetB(nil, s.V1, c1)) {
			t.Errorf("solution %d: V1 ⊄ c1", i)
		}
		if !must(nfa.SubsetB(nil, s.V2, c2)) {
			t.Errorf("solution %d: V2 ⊄ c2", i)
		}
		if !must(nfa.SubsetB(nil, nfa.Concat(s.V1, s.V2), c3)) {
			t.Errorf("solution %d: V1·V2 ⊄ c3", i)
		}
	}
	// All-Solutions (condition 3).
	if !CheckAllSolutions(c1, c2, c3, sols) {
		t.Fatal("solutions do not cover (c1·c2) ∩ c3")
	}
}

func TestCIEmptyIntersection(t *testing.T) {
	// c3 requires a quote but c1·c2 cannot produce one.
	sols, _, _ := ConcatIntersectB(nil, nfa.Literal("abc"), nfa.Literal("def"), regex.MustMatchLanguage("'"))
	if len(sols) != 0 {
		t.Fatalf("solutions = %d, want 0", len(sols))
	}
}

func TestCIEmptyOperand(t *testing.T) {
	sols, _, _ := ConcatIntersectB(nil, nfa.Empty(), nfa.Literal("a"), nfa.AnyString())
	if len(sols) != 0 {
		t.Fatal("empty c1 admits no nonempty solutions")
	}
}

func TestCISolutionCountBoundedByC3States(t *testing.T) {
	// Paper §3.5: the number of solutions is bounded by |M3|.
	c1 := nfa.Star(nfa.Class(nfa.Range('a', 'b')))
	c2 := nfa.Star(nfa.Class(nfa.Range('a', 'b')))
	c3 := regex.MustCompile("a{0,3}")
	sols, _, _ := ConcatIntersectB(nil, c1, c2, c3)
	if len(sols) == 0 {
		t.Fatal("expected solutions")
	}
	if len(sols) > c3.NumStates() {
		t.Fatalf("solutions = %d exceeds |M3| = %d", len(sols), c3.NumStates())
	}
	if !CheckAllSolutions(c1, c2, c3, sols) {
		t.Fatal("coverage violated")
	}
}

func TestCIDisjunctiveSplits(t *testing.T) {
	// §3.1.1 second example, phrased as CI: v1 ⊆ x(yy)+, v2 ⊆ (yy)*z,
	// v1·v2 ⊆ xyyz|xyyyyz.
	c1 := regex.MustCompile("x(yy)+")
	c2 := regex.MustCompile("(yy)*z")
	c3 := regex.MustCompile("xyyz|xyyyyz")
	sols, _, _ := ConcatIntersectB(nil, c1, c2, c3)
	if len(sols) == 0 {
		t.Fatal("expected solutions")
	}
	if !CheckAllSolutions(c1, c2, c3, sols) {
		t.Fatal("coverage violated")
	}
	// Every (V1, V2) pair must be satisfying.
	for _, s := range sols {
		if !must(nfa.SubsetB(nil, s.V1, c1)) || !must(nfa.SubsetB(nil, s.V2, c2)) ||
			!must(nfa.SubsetB(nil, nfa.Concat(s.V1, s.V2), c3)) {
			t.Fatal("satisfying violated")
		}
	}
	// The splits xyy·z, xyy·yyz and xyyyy·z must all be covered.
	covered := func(a, b string) bool {
		for _, s := range sols {
			if s.V1.Accepts(a) && s.V2.Accepts(b) {
				return true
			}
		}
		return false
	}
	if !covered("xyy", "z") || !covered("xyy", "yyz") || !covered("xyyyy", "z") {
		t.Fatal("a required split is missing")
	}
}

func TestCIDeduplicatesIdenticalSolutions(t *testing.T) {
	// A constant machine with redundant parallel states yields several seam
	// edges with identical induced languages; they must be merged.
	c1 := nfa.UnionAll(nfa.Literal("a"), nfa.Literal("a"), nfa.Literal("a"))
	c2 := nfa.Literal("b")
	c3 := nfa.Literal("ab")
	sols, _, _ := ConcatIntersectB(nil, c1, c2, c3)
	if len(sols) != 1 {
		t.Fatalf("solutions = %d, want 1 after dedup", len(sols))
	}
}
