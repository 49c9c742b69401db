package nfa

// Differential gate for the execution substrate (DESIGN.md §11): the
// zero-copy views and bitset kernels must be observationally identical to
// the deep-copy/[]bool implementation they replaced. The reference
// implementations below are deliberately naive transliterations of the old
// substrate — fresh []bool sets per operation, deep copies per induced
// machine — and every comparison goes through them, never through the new
// kernels, so a shared bug cannot hide. The allocation tests pin the
// zero-copy claim itself: a view is one struct allocation regardless of
// machine size. The concurrency test drives the shared memo caches from
// many goroutines for the -race CI job.

import (
	"math/rand"
	"sync"
	"testing"
)

// refNFA is a deep-copied machine evaluated with the pre-rework
// []bool-set algorithms.
type refNFA struct {
	edges [][]Edge
	eps   [][]EpsEdge
	start int
	final int
}

func refFrom(m *NFA) *refNFA {
	n := m.NumStates()
	r := &refNFA{
		edges: make([][]Edge, n),
		eps:   make([][]EpsEdge, n),
		start: m.Start(),
		final: m.Final(),
	}
	for s := 0; s < n; s++ {
		r.edges[s] = append([]Edge(nil), m.EdgesFrom(s)...)
		r.eps[s] = append([]EpsEdge(nil), m.EpsFrom(s)...)
	}
	return r
}

// refInduce is the old Induce: deep-copy the machine, drop every seam edge,
// and re-point start and final at the span endpoints.
func refInduce(m *NFA, start, final int) *refNFA {
	r := refFrom(m)
	for s := range r.eps {
		var kept []EpsEdge
		for _, e := range r.eps[s] {
			if e.Tag == NoTag {
				kept = append(kept, e)
			}
		}
		r.eps[s] = kept
	}
	r.start, r.final = start, final
	return r
}

func (r *refNFA) close(set []bool) {
	var stack []int
	for s, in := range set {
		if in {
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range r.eps[q] {
			if !set[e.To] {
				set[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
}

func (r *refNFA) accepts(w string) bool {
	set := make([]bool, len(r.edges))
	set[r.start] = true
	r.close(set)
	for i := 0; i < len(w); i++ {
		next := make([]bool, len(r.edges))
		for s, in := range set {
			if !in {
				continue
			}
			for _, e := range r.edges[s] {
				if e.Label.Contains(w[i]) {
					next[e.To] = true
				}
			}
		}
		r.close(next)
		set = next
	}
	return set[r.final]
}

func (r *refNFA) isEmpty() bool {
	seen := make([]bool, len(r.edges))
	seen[r.start] = true
	stack := []int{r.start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range r.edges[s] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
		for _, e := range r.eps[s] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return !seen[r.final]
}

// seamedMachine composes random operand machines with ConcatTagged so the
// result carries the seam edges Induce and DropSeams operate on.
func seamedMachine(r *rand.Rand) *NFA {
	m := ConcatTagged(randMachine(r, 1), randMachine(r, 1), 0)
	if r.Intn(2) == 0 {
		m = ConcatTagged(m, randMachine(r, 1), 1)
	}
	return m
}

func TestSubstrateDifferentialMembership(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for i := 0; i < 120; i++ {
		m := randMachine(r, 2)
		if i%3 == 0 {
			m = seamedMachine(r)
		}
		ref := refFrom(m)
		if got, want := m.IsEmpty(), ref.isEmpty(); got != want {
			t.Fatalf("case %d: IsEmpty=%v, reference says %v", i, got, want)
		}
		for _, w := range sampleStrings(r, 10) {
			if got, want := m.Accepts(w), ref.accepts(w); got != want {
				t.Fatalf("case %d: Accepts(%q)=%v, reference says %v", i, w, got, want)
			}
		}
	}
}

func TestSubstrateDifferentialViews(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	for i := 0; i < 80; i++ {
		m := randMachine(r, 2)
		s := r.Intn(m.NumStates())
		f := r.Intn(m.NumStates())
		vs, vf := m.WithStart(s), m.WithFinal(f)
		rs, rf := refFrom(m), refFrom(m)
		rs.start, rf.final = s, f
		for _, w := range sampleStrings(r, 8) {
			if got, want := vs.Accepts(w), rs.accepts(w); got != want {
				t.Fatalf("case %d: WithStart(%d).Accepts(%q)=%v, reference says %v", i, s, w, got, want)
			}
			if got, want := vf.Accepts(w), rf.accepts(w); got != want {
				t.Fatalf("case %d: WithFinal(%d).Accepts(%q)=%v, reference says %v", i, f, w, got, want)
			}
		}
		// The view must not have disturbed the origin.
		orig := refFrom(m)
		for _, w := range sampleStrings(r, 4) {
			if got, want := m.Accepts(w), orig.accepts(w); got != want {
				t.Fatalf("case %d: origin perturbed by views: Accepts(%q)=%v, want %v", i, w, got, want)
			}
		}
	}
}

func TestSubstrateDifferentialInduce(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	for i := 0; i < 80; i++ {
		m := seamedMachine(r)
		// The paper's two induced spans per seam, plus a random span.
		spans := [][2]int{}
		for _, te := range m.TaggedEdges() {
			spans = append(spans,
				[2]int{m.Start(), te.From}, // induce_from_final
				[2]int{te.To, m.Final()},   // induce_from_start
			)
		}
		spans = append(spans, [2]int{r.Intn(m.NumStates()), r.Intn(m.NumStates())})
		for _, sp := range spans {
			v := m.Induce(sp[0], sp[1])
			ref := refInduce(m, sp[0], sp[1])
			if got, want := v.IsEmpty(), ref.isEmpty(); got != want {
				t.Fatalf("case %d: Induce(%d,%d).IsEmpty=%v, reference says %v", i, sp[0], sp[1], got, want)
			}
			tr := v.Trim()
			for _, w := range sampleStrings(r, 8) {
				want := ref.accepts(w)
				if got := v.Accepts(w); got != want {
					t.Fatalf("case %d: Induce(%d,%d).Accepts(%q)=%v, reference says %v",
						i, sp[0], sp[1], w, got, want)
				}
				if got := tr.Accepts(w); got != want {
					t.Fatalf("case %d: Induce(%d,%d).Trim().Accepts(%q)=%v, reference says %v",
						i, sp[0], sp[1], w, got, want)
				}
			}
		}
		// DropSeams is Induce over the original span.
		ds := m.DropSeams()
		ref := refInduce(m, m.Start(), m.Final())
		for _, w := range sampleStrings(r, 8) {
			if got, want := ds.Accepts(w), ref.accepts(w); got != want {
				t.Fatalf("case %d: DropSeams().Accepts(%q)=%v, reference says %v", i, w, got, want)
			}
		}
	}
}

func TestSubstrateDifferentialDeterminize(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	for i := 0; i < 60; i++ {
		m := randMachine(r, 2)
		d := Determinize(m)
		min := d.Minimize()
		ref := refFrom(m)
		for _, w := range sampleStrings(r, 10) {
			want := ref.accepts(w)
			if got := d.Accepts(w); got != want {
				t.Fatalf("case %d: Determinize.Accepts(%q)=%v, reference says %v", i, w, got, want)
			}
			if got := min.Accepts(w); got != want {
				t.Fatalf("case %d: Minimize.Accepts(%q)=%v, reference says %v", i, w, got, want)
			}
		}
	}
}

func TestSubstrateDifferentialIntersects(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	for i := 0; i < 60; i++ {
		a, b := randMachine(r, 2), randMachine(r, 2)
		want := !refFrom(must(IntersectB(nil, a, b))).isEmpty()
		if got := must(IntersectsB(nil, a, b)); got != want {
			t.Fatalf("case %d: Intersects=%v, product-emptiness reference says %v", i, got, want)
		}
	}
}

// chainMachine builds a seam-carrying machine with roughly 40×n states, so
// the allocation tests can show per-view cost is independent of size.
func chainMachine(n int) *NFA {
	m := ConcatTagged(Literal("abcde"), Literal("fghij"), 0)
	for i := 1; i < n; i++ {
		m = ConcatTagged(m, Union(Literal("klm"), Star(Literal("no"))), i)
	}
	return m
}

// TestViewAllocationsPinned pins the zero-copy contract: once the shared
// seam-free memo is warm, WithStart/WithFinal/Induce/DropSeams cost exactly
// one allocation — the view struct — no matter how large the machine is.
// A regression to per-call state copying shows up here as an allocation
// count that scales with machine size.
func TestViewAllocationsPinned(t *testing.T) {
	for _, n := range []int{1, 8, 32} {
		m := chainMachine(n)
		m.DropSeams() // warm the shared seam-free memo
		views := map[string]func(){
			"WithStart": func() { _ = m.WithStart(1) },
			"WithFinal": func() { _ = m.WithFinal(0) },
			"Induce":    func() { _ = m.Induce(1, m.Final()) },
			"DropSeams": func() { _ = m.DropSeams() },
		}
		for name, fn := range views {
			if allocs := testing.AllocsPerRun(200, fn); allocs > 1 {
				t.Errorf("%s on %d-state machine: %.1f allocs/call, want <= 1 (zero-copy view)",
					name, m.NumStates(), allocs)
			}
		}
	}
}

// TestClosureCacheConcurrent hammers one shared machine — and views of it —
// from many goroutines, so the -race CI job exercises the lock-free
// ε-closure and seam-free memo caches exactly the way concurrent solves
// over shared interned machines do. Expected answers are computed
// single-threaded first; any torn or mispublished cache entry surfaces as
// a wrong answer or a race report.
func TestClosureCacheConcurrent(t *testing.T) {
	m := chainMachine(6)
	r := rand.New(rand.NewSource(127))
	words := sampleStrings(r, 20)
	words = append(words, "abcdefghij", "abcdefghijklm", "abcdefghijnono")
	want := make([]bool, len(words))
	ref := refFrom(m)
	for i, w := range words {
		want[i] = ref.accepts(w)
	}
	// Expected emptiness of each seam-target→final span, computed
	// single-threaded with the reference implementation. Spans that cross a
	// later (dropped) seam are legitimately empty.
	te := m.TaggedEdges()
	spanEmpty := make([]bool, len(te))
	for i, e := range te {
		spanEmpty[i] = refInduce(m, e.To, m.Final()).isEmpty()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for i, w := range words {
					if got := m.Accepts(w); got != want[i] {
						t.Errorf("goroutine %d: Accepts(%q)=%v, want %v", g, w, got, want[i])
						return
					}
				}
				k := (g + rep) % len(te)
				v := m.Induce(te[k].To, m.Final())
				if got := v.IsEmpty(); got != spanEmpty[k] {
					t.Errorf("goroutine %d: induced span %d→final IsEmpty=%v, reference says %v",
						g, te[k].To, got, spanEmpty[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestViewCanonicalKeysIndependent guards the one memo that must NOT be
// shared between views: CanonicalKey depends on start/final, so two views
// over the same structure with different spans must key differently, and a
// view must key identically to a deep copy of itself.
func TestViewCanonicalKeysIndependent(t *testing.T) {
	m := chainMachine(2)
	a := m.Induce(m.Start(), m.TaggedEdges()[0].From)
	b := m.Induce(m.TaggedEdges()[0].To, m.Final())
	ka, kb := a.CanonicalKey(), b.CanonicalKey()
	if ka == kb {
		t.Fatalf("views over different spans share a canonical key: %q", ka)
	}
	if kc := a.Copy().CanonicalKey(); kc != ka {
		t.Fatalf("view keys %q but its deep copy keys %q", ka, kc)
	}
}
