package core

import (
	"context"
	"fmt"
	"testing"

	"dprle/internal/nfa"
	"dprle/internal/regex"
)

// must unwraps a *B result computed under a nil budget, which cannot trip.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func solve(t *testing.T, s *System) *Result {
	t.Helper()
	res, err := SolveCtx(context.Background(), s, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

// §3.1.1, first example: v1 ⊆ (xx)+y and v1 ⊆ x*y.
// The satisfying assignment is [v1 ↦ (xx)+y].
func TestSection311Intersection(t *testing.T) {
	s := NewSystem()
	ca := s.MustConst("ca", regex.MustCompile("(xx)+y"))
	cb := s.MustConst("cb", regex.MustCompile("x*y"))
	s.MustAdd(Var{"v1"}, ca)
	s.MustAdd(Var{"v1"}, cb)
	res := solve(t, s)
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %d, want 1", len(res.Assignments))
	}
	got := res.Assignments[0].Lookup("v1")
	if !nfa.Equivalent(got, regex.MustCompile("(xx)+y")) {
		w, _ := got.ShortestWitness()
		t.Fatalf("v1 wrong; witness %q", w)
	}
	if err := CheckMaximal(s, res.Assignments[0]); err != nil {
		t.Fatal(err)
	}
}

// §3.1.1: the non-maximal candidate [v1 ↦ ∅] and the non-satisfying
// candidate [v1 ↦ xy] must be recognized as such by the checkers.
func TestSection311Checkers(t *testing.T) {
	s := NewSystem()
	ca := s.MustConst("ca", regex.MustCompile("(xx)+y"))
	cb := s.MustConst("cb", regex.MustCompile("x*y"))
	s.MustAdd(Var{"v1"}, ca)
	s.MustAdd(Var{"v1"}, cb)

	if Satisfies(s, Assignment{"v1": nfa.Literal("xy")}) {
		t.Fatal("[v1 ↦ xy] must not satisfy (xy ∉ (xx)+y)")
	}
	empty := Assignment{"v1": nfa.Empty()}
	if !Satisfies(s, empty) {
		t.Fatal("[v1 ↦ ∅] satisfies vacuously")
	}
	if err := CheckMaximal(s, empty); err == nil {
		t.Fatal("[v1 ↦ ∅] must fail the maximality check")
	}
}

// §3.1.1, second example: two inherently disjunctive solutions.
//
//	v1 ⊆ x(yy)+   v2 ⊆ (yy)*z   v1·v2 ⊆ xyyz|xyyyyz
//	A1 = [v1 ↦ xyy, v2 ↦ z|yyz]   A2 = [v1 ↦ x(yy|yyyy), v2 ↦ z]
func TestSection311Disjunctive(t *testing.T) {
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("x(yy)+"))
	c2 := s.MustConst("c2", regex.MustCompile("(yy)*z"))
	c3 := s.MustConst("c3", regex.MustCompile("xyyz|xyyyyz"))
	s.MustAdd(Var{"v1"}, c1)
	s.MustAdd(Var{"v2"}, c2)
	s.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, c3)

	res := solve(t, s)
	if len(res.Assignments) != 2 {
		for _, a := range res.Assignments {
			w1, _ := a.Lookup("v1").ShortestWitness()
			w2, _ := a.Lookup("v2").ShortestWitness()
			t.Logf("assignment: v1~%q v2~%q", w1, w2)
		}
		t.Fatalf("assignments = %d, want 2", len(res.Assignments))
	}
	wantA1v1 := regex.MustCompile("xyy")
	wantA1v2 := regex.MustCompile("z|yyz")
	wantA2v1 := regex.MustCompile("x(yy|yyyy)")
	wantA2v2 := regex.MustCompile("z")
	matched := 0
	for _, a := range res.Assignments {
		v1, v2 := a.Lookup("v1"), a.Lookup("v2")
		if nfa.Equivalent(v1, wantA1v1) && nfa.Equivalent(v2, wantA1v2) {
			matched++
		}
		if nfa.Equivalent(v1, wantA2v1) && nfa.Equivalent(v2, wantA2v2) {
			matched++
		}
		if !Satisfies(s, a) {
			t.Fatal("assignment does not satisfy")
		}
		if err := CheckMaximal(s, a); err != nil {
			t.Fatal(err)
		}
	}
	if matched != 2 {
		t.Fatalf("matched %d of the paper's A1/A2", matched)
	}
}

// The motivating example end to end: solving v1 ⊆ [\d]+$-match,
// nid_·v1 ⊆ has-quote yields the language of exploit inputs.
func TestMotivatingExample(t *testing.T) {
	s, _, _, _ := motivatingSystem(t)
	res := solve(t, s)
	if !res.Sat() {
		t.Fatal("motivating system should be satisfiable")
	}
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %d, want 1", len(res.Assignments))
	}
	v1 := res.Assignments[0].Lookup("v1")
	// Exploit inputs: contain a quote AND end with a digit.
	for _, w := range []string{"'5", "' OR 1=1 ; DROP news --9"} {
		if !v1.Accepts(w) {
			t.Errorf("v1 should accept %q", w)
		}
	}
	for _, w := range []string{"5", "'x", ""} {
		if v1.Accepts(w) {
			t.Errorf("v1 should reject %q", w)
		}
	}
	if err := CheckMaximal(s, res.Assignments[0]); err != nil {
		t.Fatal(err)
	}
	ws, err := Witnesses(res.Assignments[0])
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Accepts(ws["v1"]) {
		t.Fatal("witness not in language")
	}
}

// A fixed filter (anchored on both sides) makes the system unsatisfiable:
// the paper notes the solver then reports the code is not vulnerable.
func TestMotivatingExampleFixedFilter(t *testing.T) {
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustMatchLanguage(`^[\d]+$`))
	c2 := s.MustConst("c2", nfa.Literal("nid_"))
	c3 := s.MustConst("c3", regex.MustMatchLanguage(`'`))
	s.MustAdd(Var{"v1"}, c1)
	s.MustAdd(Cat{Left: c2, Right: Var{"v1"}}, c3)
	res := solve(t, s)
	if res.Sat() {
		t.Fatal("fixed filter must make the system unsatisfiable")
	}
	if _, ok, _, err := DecideCtx(context.Background(), s, []string{"v1"}, Options{}); err != nil || ok {
		t.Fatalf("Decide = %v/%v, want unsat", ok, err)
	}
}

// Nested concatenation (§3.4.3): (v1·v2)·v3 ⊆ c4 plus per-variable subsets.
func TestNestedConcatenation(t *testing.T) {
	s := NewSystem()
	ca := s.MustConst("ca", regex.MustCompile("a+"))
	cb := s.MustConst("cb", regex.MustCompile("b+"))
	cc := s.MustConst("cc", regex.MustCompile("c+"))
	c4 := s.MustConst("c4", regex.MustCompile("aabbcc"))
	s.MustAdd(Var{"v1"}, ca)
	s.MustAdd(Var{"v2"}, cb)
	s.MustAdd(Var{"v3"}, cc)
	s.MustAdd(Cat{Left: Cat{Left: Var{"v1"}, Right: Var{"v2"}}, Right: Var{"v3"}}, c4)
	res := solve(t, s)
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %d, want 1", len(res.Assignments))
	}
	a := res.Assignments[0]
	for v, want := range map[string]string{"v1": "aa", "v2": "bb", "v3": "cc"} {
		if !nfa.Equivalent(a.Lookup(v), nfa.Literal(want)) {
			w, _ := a.Lookup(v).ShortestWitness()
			t.Errorf("%s ≠ %q (witness %q)", v, want, w)
		}
	}
	if err := CheckMaximal(s, a); err != nil {
		t.Fatal(err)
	}
}

// Figure 9: vb participates in two concatenations, making them mutually
// dependent. The correct solution set (paper's own wording) contains every
// (va, vc) pair for which a compatible vb exists.
func TestFigure9GCI(t *testing.T) {
	s := NewSystem()
	cva := s.MustConst("cva", regex.MustCompile("o(pp)+"))
	cvb := s.MustConst("cvb", regex.MustCompile("p*(qq)+"))
	cvc := s.MustConst("cvc", regex.MustCompile("q*r"))
	c1 := s.MustConst("c1", regex.MustCompile("op{5}q*"))
	c2 := s.MustConst("c2", regex.MustCompile("p*q{4}r"))
	s.MustAdd(Var{"va"}, cva)
	s.MustAdd(Var{"vb"}, cvb)
	s.MustAdd(Var{"vc"}, cvc)
	s.MustAdd(Cat{Left: Var{"va"}, Right: Var{"vb"}}, c1)
	s.MustAdd(Cat{Left: Var{"vb"}, Right: Var{"vc"}}, c2)

	res := solve(t, s)
	// All four (va, vc) combinations admit a compatible vb:
	//   (op², q²r, vb=p³q²), (op⁴, q²r, vb=pq²),
	//   (op², r,   vb=p³q⁴), (op⁴, r,   vb=pq⁴).
	type want struct{ va, vb, vc string }
	wants := []want{
		{"opp", "pppqq", "qqr"},
		{"opppp", "pqq", "qqr"},
		{"opp", "pppqqqq", "r"},
		{"opppp", "pqqqq", "r"},
	}
	if len(res.Assignments) != 4 {
		for _, a := range res.Assignments {
			w1, _ := a.Lookup("va").ShortestWitness()
			w2, _ := a.Lookup("vb").ShortestWitness()
			w3, _ := a.Lookup("vc").ShortestWitness()
			t.Logf("assignment: va=%q vb=%q vc=%q", w1, w2, w3)
		}
		t.Fatalf("assignments = %d, want 4", len(res.Assignments))
	}
	for _, w := range wants {
		found := false
		for _, a := range res.Assignments {
			if nfa.Equivalent(a.Lookup("va"), nfa.Literal(w.va)) &&
				nfa.Equivalent(a.Lookup("vb"), nfa.Literal(w.vb)) &&
				nfa.Equivalent(a.Lookup("vc"), nfa.Literal(w.vc)) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing assignment (va=%s, vb=%s, vc=%s)", w.va, w.vb, w.vc)
		}
	}
	for _, a := range res.Assignments {
		if !Satisfies(s, a) {
			t.Fatal("assignment does not satisfy")
		}
		if err := CheckMaximal(s, a); err != nil {
			t.Fatal(err)
		}
	}
	// The paper's two explicitly listed assignments are among ours.
	for _, w := range wants[:2] {
		_ = w // wants[0], wants[1] correspond to the paper's A1 and A2.
	}
}

// The ordering invariant (§3.4.3): processing the concat edge before the
// subset edges loses the push-back. Our solver must get v2 right:
// [v2] = Σ*'Σ* ∩ Σ*[0-9], not [c2].
func TestOperationOrderingInvariant(t *testing.T) {
	s, _, _, _ := motivatingSystem(t)
	res := solve(t, s)
	v1 := res.Assignments[0].Lookup("v1")
	wrong := regex.MustMatchLanguage(`[\d]+$`) // just c1, no push-back
	if nfa.Equivalent(v1, wrong) {
		t.Fatal("v1 must be narrowed by the concat constraint (push-back)")
	}
}

func TestUnsatThroughConcat(t *testing.T) {
	// v1 ⊆ a+, v2 ⊆ b+, v1·v2 ⊆ c+ — impossible.
	s := NewSystem()
	ca := s.MustConst("ca", regex.MustCompile("a+"))
	cb := s.MustConst("cb", regex.MustCompile("b+"))
	cc := s.MustConst("cc", regex.MustCompile("c+"))
	s.MustAdd(Var{"v1"}, ca)
	s.MustAdd(Var{"v2"}, cb)
	s.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, cc)
	res := solve(t, s)
	if res.Sat() {
		t.Fatal("system should be unsatisfiable")
	}
}

func TestFreeVariableIntersection(t *testing.T) {
	// v1 ⊆ c1, v1 ⊆ c2, v2 ⊆ c1, v2 ⊆ c2: both resolve to c1 ∩ c2 without
	// any concat_intersect call (Fig. 7's basic-constraint stage).
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("[ab]+"))
	c2 := s.MustConst("c2", regex.MustCompile("[bc]+"))
	s.MustAdd(Var{"v1"}, c1)
	s.MustAdd(Var{"v1"}, c2)
	s.MustAdd(Var{"v2"}, c1)
	s.MustAdd(Var{"v2"}, c2)
	res := solve(t, s)
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %d", len(res.Assignments))
	}
	want := regex.MustCompile("b+")
	for _, v := range []string{"v1", "v2"} {
		if !nfa.Equivalent(res.Assignments[0].Lookup(v), want) {
			t.Errorf("%s ≠ b+", v)
		}
	}
}

func TestMultipleGroupsCartesianProduct(t *testing.T) {
	// Two independent CI-groups, each with two disjuncts → 4 assignments.
	mk := func(s *System, v1, v2, suffix string) {
		c1 := s.MustConst("c1"+suffix, regex.MustCompile("x(yy)+"))
		c2 := s.MustConst("c2"+suffix, regex.MustCompile("(yy)*z"))
		c3 := s.MustConst("c3"+suffix, regex.MustCompile("xyyz|xyyyyz"))
		s.MustAdd(Var{v1}, c1)
		s.MustAdd(Var{v2}, c2)
		s.MustAdd(Cat{Left: Var{v1}, Right: Var{v2}}, c3)
	}
	s := NewSystem()
	mk(s, "a1", "a2", "A")
	mk(s, "b1", "b2", "B")
	res := solve(t, s)
	if len(res.Assignments) != 4 {
		t.Fatalf("assignments = %d, want 4 (2 × 2)", len(res.Assignments))
	}
	for _, a := range res.Assignments {
		if !Satisfies(s, a) {
			t.Fatal("assignment does not satisfy")
		}
	}
}

func TestSolveWithUnionExtension(t *testing.T) {
	// (v1 | v2) ⊆ c constrains both variables (§3.1.2 extension).
	s := NewSystem()
	c := s.MustConst("c", regex.MustCompile("[0-9]+"))
	s.MustAdd(Or{Left: Var{"v1"}, Right: Var{"v2"}}, c)
	res := solve(t, s)
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %d", len(res.Assignments))
	}
	for _, v := range []string{"v1", "v2"} {
		if !nfa.Equivalent(res.Assignments[0].Lookup(v), regex.MustCompile("[0-9]+")) {
			t.Errorf("%s should be [0-9]+", v)
		}
	}
}

func TestDecideAndSatFor(t *testing.T) {
	s, _, _, _ := motivatingSystem(t)
	a, ok, _, err := DecideCtx(context.Background(), s, []string{"v1"}, Options{})
	if err != nil || !ok {
		t.Fatalf("Decide = %v/%v", ok, err)
	}
	if a.Lookup("v1").IsEmpty() {
		t.Fatal("decided assignment has empty v1")
	}
	res := solve(t, s)
	if !res.SatFor([]string{"v1"}) {
		t.Fatal("SatFor(v1) should hold")
	}
	if res.SatFor([]string{"v1", "missing"}) {
		t.Fatal("SatFor over an unknown variable should fail")
	}
}

func TestResultFirst(t *testing.T) {
	empty := &Result{}
	if empty.First() != nil {
		t.Fatal("First of empty result should be nil")
	}
	s, _, _, _ := motivatingSystem(t)
	if solve(t, s).First() == nil {
		t.Fatal("First should return an assignment")
	}
}

func TestNoMaximalizeStillCoversAndSatisfies(t *testing.T) {
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("x(yy)+"))
	c2 := s.MustConst("c2", regex.MustCompile("(yy)*z"))
	c3 := s.MustConst("c3", regex.MustCompile("xyyz|xyyyyz"))
	s.MustAdd(Var{"v1"}, c1)
	s.MustAdd(Var{"v2"}, c2)
	s.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, c3)
	res, err := SolveCtx(context.Background(), s, Options{NoMaximalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat() {
		t.Fatal("should be satisfiable")
	}
	covered := nfa.Empty()
	for _, a := range res.Assignments {
		if !Satisfies(s, a) {
			t.Fatal("raw assignment must still satisfy")
		}
		covered = nfa.Union(covered, nfa.Concat(a.Lookup("v1"), a.Lookup("v2")))
	}
	whole := must(nfa.IntersectB(nil,
		nfa.Concat(regex.MustCompile("x(yy)+"), regex.MustCompile("(yy)*z")),
		regex.MustCompile("xyyz|xyyyyz")))
	if !must(nfa.SubsetB(nil, whole, covered)) {
		t.Fatal("raw disjuncts must jointly cover all solutions")
	}
}

func TestSolveWithMinimizeOption(t *testing.T) {
	s, _, _, _ := motivatingSystem(t)
	res, err := SolveCtx(context.Background(), s, Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %d", len(res.Assignments))
	}
	if !res.Assignments[0].Lookup("v1").Accepts("'5") {
		t.Fatal("minimized solve changed the answer")
	}
}

func TestSolveRawConstants(t *testing.T) {
	// RawConstants reproduces the prototype's behaviour: same languages,
	// potentially different disjunct granularity before maximalization.
	s, _, _, _ := motivatingSystem(t)
	res, err := SolveCtx(context.Background(), s, Options{RawConstants: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat() {
		t.Fatal("raw-constant solve should succeed")
	}
	found := false
	for _, a := range res.Assignments {
		if a.Lookup("v1").Accepts("' OR 1=1 ; DROP news --9") {
			found = true
		}
	}
	if !found {
		t.Fatal("exploit string must be covered")
	}
}

func TestMaxSolutionsTruncation(t *testing.T) {
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("a*"))
	c2 := s.MustConst("c2", regex.MustCompile("a*"))
	c3 := s.MustConst("c3", regex.MustCompile("a{6}"))
	s.MustAdd(Var{"v1"}, c1)
	s.MustAdd(Var{"v2"}, c2)
	s.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, c3)
	res, err := SolveCtx(context.Background(), s, Options{MaxSolutions: 3, NoMaximalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) > 3 {
		t.Fatalf("assignments = %d exceeds cap", len(res.Assignments))
	}
	if !res.Truncated {
		t.Fatal("truncation must be reported")
	}
}

func TestSplitPointsOfFixedString(t *testing.T) {
	// v1 ⊆ a*, v2 ⊆ a*, v1·v2 ⊆ a{3}: the maximal disjuncts are the 4
	// split points ε·aaa, a·aa, aa·a, aaa·ε.
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("a*"))
	c2 := s.MustConst("c2", regex.MustCompile("a*"))
	c3 := s.MustConst("c3", regex.MustCompile("a{3}"))
	s.MustAdd(Var{"v1"}, c1)
	s.MustAdd(Var{"v2"}, c2)
	s.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, c3)
	res := solve(t, s)
	if len(res.Assignments) != 4 {
		t.Fatalf("assignments = %d, want 4", len(res.Assignments))
	}
	for _, a := range res.Assignments {
		w1, _ := a.Lookup("v1").ShortestWitness()
		w2, _ := a.Lookup("v2").ShortestWitness()
		if w1+w2 != "aaa" {
			t.Errorf("split %q + %q does not form aaa", w1, w2)
		}
	}
}

func TestMiddleVariableBetweenConstants(t *testing.T) {
	// c1 · v · c2 ⊆ c3: the variable sits between two constants.
	s := NewSystem()
	pre := s.MustConst("pre", nfa.Literal("SELECT '"))
	post := s.MustConst("post", nfa.Literal("'"))
	safe := s.MustConst("safe", regex.MustCompile(`SELECT '[a-z]*'`))
	s.MustAdd(Cat{Left: Cat{Left: pre, Right: Var{"v"}}, Right: post}, safe)
	res := solve(t, s)
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %d", len(res.Assignments))
	}
	v := res.Assignments[0].Lookup("v")
	if !nfa.Equivalent(v, regex.MustCompile("[a-z]*")) {
		w, _ := v.ShortestWitness()
		t.Fatalf("v wrong; witness %q", w)
	}
	if err := CheckMaximal(s, res.Assignments[0]); err != nil {
		t.Fatal(err)
	}
}

func TestSelfConcatenation(t *testing.T) {
	// v · v ⊆ (ab)*: v must satisfy v·v ⊆ (ab)*.
	s := NewSystem()
	c := s.MustConst("c", regex.MustCompile("(ab)*"))
	s.MustAdd(Cat{Left: Var{"v"}, Right: Var{"v"}}, c)
	res := solve(t, s)
	if !res.Sat() {
		t.Fatal("self-concatenation should be satisfiable")
	}
	for _, a := range res.Assignments {
		v := a.Lookup("v")
		if !Satisfies(s, a) {
			w, _ := v.ShortestWitness()
			t.Fatalf("assignment with witness %q does not satisfy", w)
		}
	}
}

func TestFourLevelChain(t *testing.T) {
	// (((v1·v2)·v3)·v4) ⊆ abcd with per-variable letter constraints.
	s := NewSystem()
	letters := []string{"a", "b", "c", "d"}
	expr := Expr(Var{"v1"})
	for i := 2; i <= 4; i++ {
		expr = Cat{Left: expr, Right: Var{fmt.Sprintf("v%d", i)}}
	}
	for i, l := range letters {
		cl := s.MustConst("c"+l, regex.MustCompile(l+"*"))
		s.MustAdd(Var{fmt.Sprintf("v%d", i+1)}, cl)
	}
	target := s.MustConst("target", nfa.Literal("abcd"))
	s.MustAdd(expr, target)
	res := solve(t, s)
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %d", len(res.Assignments))
	}
	a := res.Assignments[0]
	for i, l := range letters {
		if !nfa.Equivalent(a.Lookup(fmt.Sprintf("v%d", i+1)), nfa.Literal(l)) {
			t.Fatalf("v%d should be %q", i+1, l)
		}
	}
}

func TestDoublyConstrainedConcat(t *testing.T) {
	// v1·v2 ⊆ c3 AND v1·v2 ⊆ c4: both constraints must hold simultaneously
	// (§3.5's second case, checked semantically).
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("[ab]*"))
	c2 := s.MustConst("c2", regex.MustCompile("[ab]*"))
	c3 := s.MustConst("c3", regex.MustCompile("a[ab]*")) // starts with a
	c4 := s.MustConst("c4", regex.MustCompile("[ab]*b")) // ends with b
	s.MustAdd(Var{"v1"}, c1)
	s.MustAdd(Var{"v2"}, c2)
	v12 := Cat{Left: Var{"v1"}, Right: Var{"v2"}}
	s.MustAdd(v12, c3)
	s.MustAdd(v12, c4)
	res := solve(t, s)
	if !res.Sat() {
		t.Fatal("should be satisfiable (e.g. v1=a…, v2=…b)")
	}
	for _, a := range res.Assignments {
		joint := nfa.Concat(a.Lookup("v1"), a.Lookup("v2"))
		if !must(nfa.SubsetB(nil, joint, regex.MustCompile("a[ab]*"))) ||
			!must(nfa.SubsetB(nil, joint, regex.MustCompile("[ab]*b"))) {
			t.Fatal("a constraint leaked")
		}
	}
}

func TestSequentialOptionMatchesParallel(t *testing.T) {
	mk := func() *System {
		s := NewSystem()
		for _, grp := range []string{"A", "B", "C"} {
			c1 := s.MustConst("c1"+grp, regex.MustCompile("x(yy)+"))
			c2 := s.MustConst("c2"+grp, regex.MustCompile("(yy)*z"))
			c3 := s.MustConst("c3"+grp, regex.MustCompile("xyyz|xyyyyz"))
			s.MustAdd(Var{"p" + grp}, c1)
			s.MustAdd(Var{"q" + grp}, c2)
			s.MustAdd(Cat{Left: Var{"p" + grp}, Right: Var{"q" + grp}}, c3)
		}
		return s
	}
	par, err := SolveCtx(context.Background(), mk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SolveCtx(context.Background(), mk(), Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Assignments) != len(seq.Assignments) {
		t.Fatalf("parallel %d vs sequential %d assignments", len(par.Assignments), len(seq.Assignments))
	}
	if len(par.Assignments) != 8 { // 2^3 group combinations
		t.Fatalf("assignments = %d, want 8", len(par.Assignments))
	}
}

func TestMaxCombosTruncationReported(t *testing.T) {
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("a*"))
	c2 := s.MustConst("c2", regex.MustCompile("a*"))
	c3 := s.MustConst("c3", regex.MustCompile("a{8}"))
	s.MustAdd(Var{"v1"}, c1)
	s.MustAdd(Var{"v2"}, c2)
	s.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, c3)
	res, err := SolveCtx(context.Background(), s, Options{MaxCombos: 3, NoMaximalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("combo truncation must be reported")
	}
	part, err := SolveForCtx(context.Background(), s, []string{"v1", "v2"}, Options{MaxCombos: 3, NoMaximalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !part.Truncated {
		t.Fatal("combo truncation must be reported by SolveFor too")
	}
	full, err := SolveCtx(context.Background(), s, Options{NoMaximalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatal("full enumeration must not report truncation")
	}
	if len(full.Assignments) != 9 { // the 9 split points of a⁸
		t.Fatalf("assignments = %d, want 9", len(full.Assignments))
	}
}
