package nfa

import (
	"strings"
	"testing"
)

// must unwraps a *B result computed under a nil budget, which cannot trip.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func mustAccept(t *testing.T, m *NFA, strs ...string) {
	t.Helper()
	for _, s := range strs {
		if !m.Accepts(s) {
			t.Errorf("machine should accept %q", s)
		}
	}
}

func mustReject(t *testing.T, m *NFA, strs ...string) {
	t.Helper()
	for _, s := range strs {
		if m.Accepts(s) {
			t.Errorf("machine should reject %q", s)
		}
	}
}

func TestEmptyMachine(t *testing.T) {
	m := Empty()
	if !m.IsEmpty() {
		t.Fatal("Empty() should have empty language")
	}
	mustReject(t, m, "", "a", "ab")
}

func TestEpsilonMachine(t *testing.T) {
	m := Epsilon()
	if m.IsEmpty() {
		t.Fatal("Epsilon() should be nonempty")
	}
	mustAccept(t, m, "")
	mustReject(t, m, "a", " ")
}

func TestLiteral(t *testing.T) {
	m := Literal("nid_")
	mustAccept(t, m, "nid_")
	mustReject(t, m, "", "nid", "nid_x", "Nid_")
	if m.Start() == m.Final() {
		t.Fatal("literal machine should have distinct start/final")
	}
}

func TestLiteralEmpty(t *testing.T) {
	m := Literal("")
	mustAccept(t, m, "")
	mustReject(t, m, "a")
	if m.Start() == m.Final() {
		t.Fatal("empty literal should still have distinct start/final")
	}
}

func TestClass(t *testing.T) {
	m := Class(Range('0', '9'))
	mustAccept(t, m, "0", "5", "9")
	mustReject(t, m, "", "a", "00")
}

func TestAnyString(t *testing.T) {
	m := AnyString()
	mustAccept(t, m, "", "a", "hello world", "\x00\xff")
}

func TestCopyIsolation(t *testing.T) {
	m := Literal("ab")
	c := m.Copy()
	if c.NumStates() != m.NumStates() || c.Start() != m.Start() || c.Final() != m.Final() {
		t.Fatal("copy differs structurally")
	}
	mustAccept(t, c, "ab")
	// Mutating the copy's internal slices must not affect the original.
	c.edges[0] = nil
	mustAccept(t, m, "ab")
}

func TestWithStartWithFinal(t *testing.T) {
	// abc machine; induce on interior states.
	m := Literal("abc")
	mid := m.WithStart(1) // skip 'a'
	mustAccept(t, mid, "bc")
	mustReject(t, mid, "abc", "c")
	pre := m.WithFinal(2) // stop before 'c'
	mustAccept(t, pre, "ab")
	mustReject(t, pre, "abc", "a")
}

func TestBuilderTaggedEps(t *testing.T) {
	b := NewBuilder()
	s := b.AddState()
	mid := b.AddState()
	f := b.AddState()
	b.AddEdge(s, Singleton('x'), mid)
	b.AddTaggedEps(mid, f, 7)
	m := b.Build(s, f)
	mustAccept(t, m, "x")
	edges := m.TaggedEdges()
	if len(edges) != 1 || edges[0].Tag != 7 || edges[0].From != mid || edges[0].To != f {
		t.Fatalf("TaggedEdges = %+v", edges)
	}
	if tags := m.Tags(); len(tags) != 1 || tags[0] != 7 {
		t.Fatalf("Tags = %v", tags)
	}
}

func TestBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative tag")
		}
	}()
	b := NewBuilder()
	s := b.AddState()
	b.AddTaggedEps(s, s, -2)
}

func TestBuildRangeChecks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad final state")
		}
	}()
	b := NewBuilder()
	s := b.AddState()
	b.Build(s, 99)
}

func TestAddEdgeIgnoresEmptyLabel(t *testing.T) {
	b := NewBuilder()
	s := b.AddState()
	f := b.AddState()
	b.AddEdge(s, EmptySet(), f)
	m := b.Build(s, f)
	if !m.IsEmpty() {
		t.Fatal("empty-label edge should not connect states")
	}
}

func TestStatsAndString(t *testing.T) {
	m := ConcatTagged(Literal("a"), Literal("b"), 3)
	st := m.Stats()
	if st.SeamEdges != 1 {
		t.Fatalf("SeamEdges = %d, want 1", st.SeamEdges)
	}
	if st.CharEdges != 2 {
		t.Fatalf("CharEdges = %d, want 2", st.CharEdges)
	}
	if !strings.Contains(m.String(), "seams: 1") {
		t.Fatalf("String() = %q", m.String())
	}
}

func TestDotOutput(t *testing.T) {
	m := ConcatTagged(Literal("a"), Literal("b"), 5)
	dot := m.Dot("test")
	for _, want := range []string{"digraph", "doublecircle", "ε/5", "style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q:\n%s", want, dot)
		}
	}
}
