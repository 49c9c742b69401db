package nfa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randMachine generates a random small NFA over {a, b, c} by composing the
// public constructors, so every generated machine is well-formed.
func randMachine(r *rand.Rand, depth int) *NFA {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return Epsilon()
		case 1:
			return Literal(string(byte('a' + r.Intn(3))))
		case 2:
			lo := byte('a' + r.Intn(3))
			hi := lo + byte(r.Intn(3))
			if hi > 'c' {
				hi = 'c'
			}
			return Class(Range(lo, hi))
		default:
			n := r.Intn(3)
			s := make([]byte, n)
			for i := range s {
				s[i] = byte('a' + r.Intn(3))
			}
			return Literal(string(s))
		}
	}
	switch r.Intn(5) {
	case 0:
		return Concat(randMachine(r, depth-1), randMachine(r, depth-1))
	case 1:
		return Union(randMachine(r, depth-1), randMachine(r, depth-1))
	case 2:
		return Star(randMachine(r, depth-1))
	case 3:
		return Plus(randMachine(r, depth-1))
	default:
		return Optional(randMachine(r, depth-1))
	}
}

// sampleStrings generates short strings over {a,b,c} for membership probes.
func sampleStrings(r *rand.Rand, n int) []string {
	out := []string{""}
	for i := 0; i < n; i++ {
		l := 1 + r.Intn(4)
		s := make([]byte, l)
		for j := range s {
			s[j] = byte('a' + r.Intn(3))
		}
		out = append(out, string(s))
	}
	return out
}

func TestPropDeterminizePreservesLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		m := randMachine(r, 2)
		d := Determinize(m)
		for _, w := range sampleStrings(r, 12) {
			if m.Accepts(w) != d.Accepts(w) {
				t.Logf("mismatch on %q for %v", w, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMinimizePreservesLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		m := randMachine(r, 2)
		min := Determinize(m).Minimize()
		for _, w := range sampleStrings(r, 12) {
			if m.Accepts(w) != min.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropIntersectionIsConjunction(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := func() bool {
		a := randMachine(r, 2)
		b := randMachine(r, 2)
		m := must(IntersectB(nil, a, b))
		for _, w := range sampleStrings(r, 12) {
			if m.Accepts(w) != (a.Accepts(w) && b.Accepts(w)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnionIsDisjunction(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	f := func() bool {
		a := randMachine(r, 2)
		b := randMachine(r, 2)
		m := Union(a, b)
		for _, w := range sampleStrings(r, 12) {
			if m.Accepts(w) != (a.Accepts(w) || b.Accepts(w)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropComplementIsNegation(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	f := func() bool {
		m := randMachine(r, 2)
		c := must(ComplementB(nil, m))
		for _, w := range sampleStrings(r, 12) {
			if c.Accepts(w) == m.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropConcatSplitsString(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	f := func() bool {
		a := randMachine(r, 1)
		b := randMachine(r, 1)
		m := Concat(a, b)
		for _, w := range sampleStrings(r, 10) {
			want := false
			for i := 0; i <= len(w); i++ {
				if a.Accepts(w[:i]) && b.Accepts(w[i:]) {
					want = true
					break
				}
			}
			if m.Accepts(w) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropTrimPreservesLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	f := func() bool {
		m := randMachine(r, 2)
		tr := m.Trim()
		for _, w := range sampleStrings(r, 12) {
			if m.Accepts(w) != tr.Accepts(w) {
				return false
			}
		}
		return tr.NumStates() <= m.NumStates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropReverseReversesMembership(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := func() bool {
		m := randMachine(r, 2)
		rev := Reverse(m)
		for _, w := range sampleStrings(r, 12) {
			b := []byte(w)
			for l, rr := 0, len(b)-1; l < rr; l, rr = l+1, rr-1 {
				b[l], b[rr] = b[rr], b[l]
			}
			if m.Accepts(w) != rev.Accepts(string(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropWitnessIsMember(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	f := func() bool {
		m := randMachine(r, 2)
		w, ok := m.ShortestWitness()
		if !ok {
			return m.IsEmpty()
		}
		return m.Accepts(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropEnumerateMatchesAccepts(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	f := func() bool {
		m := randMachine(r, 2)
		enum := map[string]bool{}
		for _, w := range m.Enumerate(3, 100000) {
			enum[w] = true
		}
		// Every enumerated string is accepted, and every accepted short
		// string over {a,b,c} is enumerated.
		for w := range enum {
			if !m.Accepts(w) {
				return false
			}
		}
		var all []string
		var gen func(prefix string)
		gen = func(prefix string) {
			all = append(all, prefix)
			if len(prefix) >= 3 {
				return
			}
			for _, c := range []byte("abc") {
				gen(prefix + string(c))
			}
		}
		gen("")
		for _, w := range all {
			if m.Accepts(w) != enum[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropFingerprintAgreesWithEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	f := func() bool {
		a := randMachine(r, 2)
		b := randMachine(r, 2)
		return (must(FingerprintB(nil, a)) == must(FingerprintB(nil, b))) == Equivalent(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
