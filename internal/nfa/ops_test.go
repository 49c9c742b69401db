package nfa

import (
	"reflect"
	"testing"
)

func TestConcat(t *testing.T) {
	m := Concat(Literal("foo"), Literal("bar"))
	mustAccept(t, m, "foobar")
	mustReject(t, m, "foo", "bar", "", "foobarx")
}

func TestConcatWithEpsilonOperand(t *testing.T) {
	m := Concat(Epsilon(), Literal("x"))
	mustAccept(t, m, "x")
	mustReject(t, m, "", "xx")
}

func TestConcatTaggedSeamSurvives(t *testing.T) {
	m := ConcatTagged(Literal("ab"), Literal("cd"), 42)
	mustAccept(t, m, "abcd")
	seams := m.TaggedEdges()
	if len(seams) != 1 || seams[0].Tag != 42 {
		t.Fatalf("seams = %+v", seams)
	}
	// The seam separates the operands: inducing on it recovers them.
	left := m.Induce(m.Start(), seams[0].From)
	right := m.Induce(seams[0].To, m.Final())
	mustAccept(t, left, "ab")
	mustReject(t, left, "abcd", "cd")
	mustAccept(t, right, "cd")
	mustReject(t, right, "ab")
}

func TestUnion(t *testing.T) {
	m := Union(Literal("cat"), Literal("dog"))
	mustAccept(t, m, "cat", "dog")
	mustReject(t, m, "", "catdog", "ca")
}

func TestUnionAll(t *testing.T) {
	if !UnionAll().IsEmpty() {
		t.Fatal("UnionAll() should be empty")
	}
	m := UnionAll(Literal("a"), Literal("b"), Literal("c"))
	mustAccept(t, m, "a", "b", "c")
	mustReject(t, m, "d", "ab")
}

func TestStar(t *testing.T) {
	m := Star(Literal("ab"))
	mustAccept(t, m, "", "ab", "abab", "ababab")
	mustReject(t, m, "a", "aba", "ba")
}

func TestPlus(t *testing.T) {
	m := Plus(Literal("x"))
	mustAccept(t, m, "x", "xx", "xxx")
	mustReject(t, m, "", "y")
}

func TestOptional(t *testing.T) {
	m := Optional(Literal("x"))
	mustAccept(t, m, "", "x")
	mustReject(t, m, "xx")
}

func TestReverse(t *testing.T) {
	m := Reverse(Literal("abc"))
	mustAccept(t, m, "cba")
	mustReject(t, m, "abc")
	// Reversal is an involution on the language.
	rr := Reverse(m)
	mustAccept(t, rr, "abc")
}

func TestReversePreservesSeams(t *testing.T) {
	m := ConcatTagged(Literal("a"), Literal("b"), 9)
	r := Reverse(m)
	if len(r.TaggedEdges()) != 1 || r.TaggedEdges()[0].Tag != 9 {
		t.Fatal("reverse should preserve seam tags")
	}
}

func TestAcceptsEarlyExit(t *testing.T) {
	m := Literal("ab")
	// After consuming 'z' no states remain; must not panic and must reject.
	mustReject(t, m, "zb", "az")
}

func TestIsEmpty(t *testing.T) {
	cases := []struct {
		m    *NFA
		want bool
	}{
		{Empty(), true},
		{Epsilon(), false},
		{Literal("a"), false},
		{must(IntersectB(nil, Literal("a"), Literal("b"))), true},
	}
	for i, c := range cases {
		if got := c.m.IsEmpty(); got != c.want {
			t.Errorf("case %d: IsEmpty = %v, want %v", i, got, c.want)
		}
	}
}

func TestTrimRemovesDeadStates(t *testing.T) {
	b := NewBuilder()
	s := b.AddState()
	f := b.AddState()
	dead := b.AddState()    // reachable, not coreachable
	unreach := b.AddState() // coreachable, not reachable
	b.AddEdge(s, Singleton('a'), f)
	b.AddEdge(s, Singleton('d'), dead)
	b.AddEdge(unreach, Singleton('u'), f)
	m := b.Build(s, f)
	trimmed := m.Trim()
	if trimmed.NumStates() != 2 {
		t.Fatalf("trimmed states = %d, want 2", trimmed.NumStates())
	}
	mustAccept(t, trimmed, "a")
	mustReject(t, trimmed, "d", "u")
}

func TestTrimEmptyLanguage(t *testing.T) {
	m := must(IntersectB(nil, Literal("a"), Literal("b"))).Trim()
	if !m.IsEmpty() {
		t.Fatal("trim of empty language should be empty")
	}
	if m.NumStates() != 2 {
		t.Fatalf("canonical empty machine has 2 states, got %d", m.NumStates())
	}
}

func TestDropSeams(t *testing.T) {
	m := ConcatTagged(Literal("a"), Literal("b"), 1)
	d := m.DropSeams()
	if len(d.TaggedEdges()) != 0 {
		t.Fatal("DropSeams left seam edges behind")
	}
	// Without the seam the concatenation is severed.
	if !d.IsEmpty() {
		t.Fatal("severed concatenation should be empty")
	}
}

func TestInduceMiddleSpan(t *testing.T) {
	// (a · b) · c with two seams; induce the middle operand b.
	m := ConcatTagged(ConcatTagged(Literal("a"), Literal("b"), 0), Literal("c"), 1)
	var seam0, seam1 TaggedEdge
	for _, e := range m.TaggedEdges() {
		if e.Tag == 0 {
			seam0 = e
		} else {
			seam1 = e
		}
	}
	mid := m.Induce(seam0.To, seam1.From)
	mustAccept(t, mid, "b")
	mustReject(t, mid, "a", "c", "ab", "bc")
}

func TestShortestWitness(t *testing.T) {
	cases := []struct {
		m    *NFA
		want string
		ok   bool
	}{
		{Literal("hello"), "hello", true},
		{Epsilon(), "", true},
		{Empty(), "", false},
		{Union(Literal("abc"), Literal("z")), "z", true},
		{Star(Literal("x")), "", true},
		{Plus(Class(Range('b', 'd'))), "b", true},
	}
	for i, c := range cases {
		got, ok := c.m.ShortestWitness()
		if ok != c.ok || got != c.want {
			t.Errorf("case %d: witness = %q/%v, want %q/%v", i, got, ok, c.want, c.ok)
		}
	}
}

func TestShortestWitnessIsShortest(t *testing.T) {
	// Language {aaa, bb}: shortest witness has length 2.
	m := Union(Literal("aaa"), Literal("bb"))
	w, ok := m.ShortestWitness()
	if !ok || len(w) != 2 {
		t.Fatalf("witness = %q/%v", w, ok)
	}
}

func TestEnumerate(t *testing.T) {
	m := Union(Literal("a"), Literal("bb"))
	got := m.Enumerate(3, 100)
	want := []string{"a", "bb"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Enumerate = %v, want %v", got, want)
	}
}

func TestEnumerateRespectsLimits(t *testing.T) {
	m := Star(Class(Range('a', 'b')))
	got := m.Enumerate(2, 1000)
	// ε, a, b, aa, ab, ba, bb
	want := []string{"", "a", "b", "aa", "ab", "ba", "bb"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Enumerate = %v, want %v", got, want)
	}
	if n := len(m.Enumerate(10, 5)); n != 5 {
		t.Fatalf("maxCount ignored: %d", n)
	}
}

func TestConcatAssociativityOnLanguage(t *testing.T) {
	a, b, c := Literal("x"), Star(Literal("y")), Literal("z")
	left := Concat(Concat(a, b), c)
	right := Concat(a, Concat(b, c))
	if !Equivalent(left, right) {
		t.Fatal("concatenation should be associative on languages")
	}
}
