package core

import (
	"context"
	"testing"

	"dprle/internal/nfa"
	"dprle/internal/regex"
	"dprle/internal/solvecache"
)

// A system with two independent parts: a CI-group over (v1) and an
// expensive-looking free pair (w1, w2).
func partialSystem(t *testing.T) *System {
	t.Helper()
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustMatchLanguage(`[\d]+$`))
	c2 := s.MustConst("c2", nfa.Literal("nid_"))
	c3 := s.MustConst("c3", regex.MustMatchLanguage(`'`))
	cw := s.MustConst("cw", regex.MustCompile("[a-z]+"))
	s.MustAdd(Var{"v1"}, c1)
	s.MustAdd(Cat{Left: c2, Right: Var{"v1"}}, c3)
	s.MustAdd(Var{"w1"}, cw)
	s.MustAdd(Var{"w2"}, cw)
	return s
}

func TestSolveForSubsetOfVars(t *testing.T) {
	s := partialSystem(t)
	res, err := SolveForCtx(context.Background(), s, []string{"v1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %d", len(res.Assignments))
	}
	a := res.Assignments[0]
	// v1 is solved exactly as Solve would.
	if !a.Lookup("v1").Accepts("'5") || a.Lookup("v1").Accepts("5") {
		t.Fatal("v1 not solved")
	}
	// w1/w2 were not requested: they stay at Σ*.
	if !nfa.Equivalent(a.Lookup("w1"), nfa.AnyString()) {
		t.Fatal("unrelated variable should remain Σ*")
	}
}

func TestSolveForFreeVariable(t *testing.T) {
	s := partialSystem(t)
	res, err := SolveForCtx(context.Background(), s, []string{"w1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Assignments[0]
	if !nfa.Equivalent(a.Lookup("w1"), regex.MustCompile("[a-z]+")) {
		t.Fatal("w1 not reduced")
	}
	// The CI-group was untouched: v1 stays Σ*.
	if !nfa.Equivalent(a.Lookup("v1"), nfa.AnyString()) {
		t.Fatal("v1 should remain Σ*")
	}
}

func TestSolveForGroupBringsNeighbors(t *testing.T) {
	// Asking for one variable of a CI-group solves the whole group.
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("a+"))
	c2 := s.MustConst("c2", regex.MustCompile("b+"))
	c3 := s.MustConst("c3", regex.MustCompile("aabb"))
	s.MustAdd(Var{"x"}, c1)
	s.MustAdd(Var{"y"}, c2)
	s.MustAdd(Cat{Left: Var{"x"}, Right: Var{"y"}}, c3)
	res, err := SolveForCtx(context.Background(), s, []string{"x"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Assignments[0]
	if !nfa.Equivalent(a.Lookup("x"), nfa.Literal("aa")) {
		t.Fatal("x wrong")
	}
	if !nfa.Equivalent(a.Lookup("y"), nfa.Literal("bb")) {
		t.Fatal("group neighbor y should be solved too")
	}
}

func TestSolveForUnsatGroup(t *testing.T) {
	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("a+"))
	c2 := s.MustConst("c2", regex.MustCompile("b+"))
	c3 := s.MustConst("c3", regex.MustCompile("c+"))
	s.MustAdd(Var{"x"}, c1)
	s.MustAdd(Var{"y"}, c2)
	s.MustAdd(Cat{Left: Var{"x"}, Right: Var{"y"}}, c3)
	res, err := SolveForCtx(context.Background(), s, []string{"x"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat() {
		t.Fatal("group is unsatisfiable")
	}
}

func TestSolveForUnknownVariable(t *testing.T) {
	s := partialSystem(t)
	res, err := SolveForCtx(context.Background(), s, []string{"nosuch"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat() {
		t.Fatal("unknown variable should not make the result unsat")
	}
	if !nfa.Equivalent(res.Assignments[0].Lookup("nosuch"), nfa.AnyString()) {
		t.Fatal("unknown variables are unconstrained (Σ*)")
	}
}

func TestSolveForAgreesWithSolve(t *testing.T) {
	vars := []string{"v1", "w1", "w2"}
	for _, minimize := range []bool{false, true} {
		s := partialSystem(t)
		full, err := SolveCtx(context.Background(), s, Options{Minimize: minimize})
		if err != nil {
			t.Fatal(err)
		}
		// SolveFor then Solve on one cache: the cached free-variable
		// machine must be the one Solve builds itself under these options.
		shared := Options{Minimize: minimize, Cache: solvecache.New(solvecache.Config{})}
		part, err := SolveForCtx(context.Background(), s, vars, shared)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := SolveCtx(context.Background(), s, shared)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Assignments) != 1 || len(part.Assignments) != 1 || len(warm.Assignments) != 1 {
			t.Fatalf("minimize=%t: assignment counts %d/%d/%d, want 1",
				minimize, len(full.Assignments), len(part.Assignments), len(warm.Assignments))
		}
		for _, v := range vars {
			if !nfa.Equivalent(full.Assignments[0].Lookup(v), part.Assignments[0].Lookup(v)) {
				t.Errorf("minimize=%t: %s differs between Solve and SolveFor", minimize, v)
			}
		}
		if got, want := warm.Assignments[0].Lookup("w1").NumStates(), full.Assignments[0].Lookup("w1").NumStates(); got != want {
			t.Errorf("minimize=%t: w1 has %d states after SolveFor then Solve, %d from a fresh Solve", minimize, got, want)
		}
	}
}
