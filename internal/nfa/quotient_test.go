package nfa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLeftQuotientBasic(t *testing.T) {
	// ab⁻¹ of {abc, abd, xyz} = {c, d}.
	x := UnionAll(Literal("abc"), Literal("abd"), Literal("xyz"))
	q := must(LeftQuotientB(nil, Literal("ab"), x))
	mustAccept(t, q, "c", "d")
	mustReject(t, q, "", "abc", "z", "yz")
}

func TestLeftQuotientWholeLanguage(t *testing.T) {
	// ε⁻¹X = X.
	x := Union(Literal("ab"), Star(Literal("c")))
	if !Equivalent(must(LeftQuotientB(nil, Epsilon(), x)), x) {
		t.Fatal("ε-quotient should be identity")
	}
}

func TestLeftQuotientEmptyDivisor(t *testing.T) {
	if !must(LeftQuotientB(nil, Empty(), Literal("abc"))).IsEmpty() {
		t.Fatal("∅-quotient should be empty")
	}
}

func TestRightQuotientBasic(t *testing.T) {
	// {abc, xbc, ad}c⁻¹... using divisor "bc": {a, x}.
	x := UnionAll(Literal("abc"), Literal("xbc"), Literal("ad"))
	q := must(RightQuotientB(nil, x, Literal("bc")))
	mustAccept(t, q, "a", "x")
	mustReject(t, q, "ab", "ad", "")
}

func TestQuotientWithStarDivisor(t *testing.T) {
	// (a*)⁻¹ of a*b = a*b  (any prefix of a's can be stripped, a's remain).
	q := must(LeftQuotientB(nil, Star(Literal("a")), Concat(Star(Literal("a")), Literal("b"))))
	mustAccept(t, q, "b", "ab", "aab")
	mustReject(t, q, "", "ba")
}

func TestMaxMiddleBasic(t *testing.T) {
	// Largest M with a·M·c ⊆ a[0-9]*c is [0-9]*.
	m := MaxMiddle(Literal("a"), Literal("c"), MustPattern(t, "a", "[0-9]*", "c"))
	mustAccept(t, m, "", "5", "123")
	mustReject(t, m, "x", "1x2")
}

// MustPattern builds concat of literal, class-star, literal without pulling
// in the regex package (which would create an import cycle in tests).
func MustPattern(t *testing.T, pre, _ string, post string) *NFA {
	t.Helper()
	digits := Star(Class(Range('0', '9')))
	return Concat(Concat(Literal(pre), digits), Literal(post))
}

func TestMaxMiddleEmptyWhenImpossible(t *testing.T) {
	// No M satisfies b·M ⊆ a·Σ* (strings must start with b on the left).
	m := MaxMiddle(Literal("b"), Epsilon(), Concat(Literal("a"), AnyString()))
	if !m.IsEmpty() {
		w, _ := m.ShortestWitness()
		t.Fatalf("expected empty max-middle, got witness %q", w)
	}
}

func TestMaxMiddleIsMaximalAndSatisfying(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	f := func() bool {
		a := randMachine(r, 1)
		b := randMachine(r, 1)
		c := randMachine(r, 2)
		m := MaxMiddle(a, b, c)
		// Satisfying: a·m·b ⊆ c.
		if !must(SubsetB(nil, Concat(Concat(a, m), b), c)) {
			return false
		}
		// Maximality spot-check: no short string outside m can be added.
		for _, w := range sampleStrings(r, 8) {
			if m.Accepts(w) {
				continue
			}
			ext := Union(m, Literal(w))
			if must(SubsetB(nil, Concat(Concat(a, ext), b), c)) {
				return false // m missed an admissible string
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuotientDefinitionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	f := func() bool {
		a := randMachine(r, 1)
		x := randMachine(r, 2)
		q := must(LeftQuotientB(nil, a, x))
		// For short strings w: w ∈ q ⟺ ∃ short prefix p ∈ a with pw ∈ x.
		// Enumerate members of a up to length 6 (machines are small).
		prefixes := a.Enumerate(6, 2000)
		for _, w := range sampleStrings(r, 8) {
			want := false
			for _, p := range prefixes {
				if x.Accepts(p + w) {
					want = true
					break
				}
			}
			if q.Accepts(w) != want {
				// Longer prefixes could exist, but depth-1 machines over
				// a 3-letter alphabet pump within 6 characters.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
