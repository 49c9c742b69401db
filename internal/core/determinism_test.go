package core

import (
	"context"
	"sort"
	"strings"
	"testing"

	"dprle/internal/regex"
)

// Determinism regression tests: the solver's disjunct order and the
// serialized form of every solution language must be byte-identical across
// runs. The solver iterates several maps internally (witness collection,
// seam-combo evaluation, CI-group output); each of these is required to
// iterate in sorted order, and these tests catch any regression by solving
// the same multi-disjunct systems repeatedly and comparing full transcripts.

// disjunctiveSystems returns fresh builds of three systems whose solutions
// are inherently disjunctive, keyed by name. Fresh construction matters:
// map seeds differ per map value, so reusing one *System would mask
// order-dependence in system construction itself.
func disjunctiveSystems(t *testing.T) map[string]*System {
	t.Helper()
	out := map[string]*System{}

	// Paper §3.1.1: two disjunctive maximal assignments.
	s1 := NewSystem()
	c1 := s1.MustConst("c1", regex.MustCompile("x(yy)+"))
	c2 := s1.MustConst("c2", regex.MustCompile("(yy)*z"))
	c3 := s1.MustConst("c3", regex.MustCompile("xyyz|xyyyyz"))
	s1.MustAdd(Var{"v1"}, c1)
	s1.MustAdd(Var{"v2"}, c2)
	s1.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, c3)
	out["sec311"] = s1

	// Three-way concatenation through one CI-group: seam choices multiply.
	s2 := NewSystem()
	d1 := s2.MustConst("d1", regex.MustCompile("a+"))
	d2 := s2.MustConst("d2", regex.MustCompile("a+b*"))
	d3 := s2.MustConst("d3", regex.MustCompile("aab|aaab|aaaab"))
	s2.MustAdd(Var{"w1"}, d1)
	s2.MustAdd(Var{"w2"}, d2)
	s2.MustAdd(Cat{Left: Var{"w1"}, Right: Var{"w2"}}, d3)
	out["seams"] = s2

	// Two independent CI-groups: the worklist combines their disjuncts as a
	// Cartesian product, so group order and per-group disjunct order both
	// show up in the output order.
	s3 := NewSystem()
	e1 := s3.MustConst("e1", regex.MustCompile("x(yy)+"))
	e2 := s3.MustConst("e2", regex.MustCompile("(yy)*z"))
	e3 := s3.MustConst("e3", regex.MustCompile("xyyz|xyyyyz"))
	f1 := s3.MustConst("f1", regex.MustCompile("p+"))
	f2 := s3.MustConst("f2", regex.MustCompile("p*q"))
	f3 := s3.MustConst("f3", regex.MustCompile("ppq|pppq"))
	s3.MustAdd(Var{"g1"}, e1)
	s3.MustAdd(Var{"g2"}, e2)
	s3.MustAdd(Cat{Left: Var{"g1"}, Right: Var{"g2"}}, e3)
	s3.MustAdd(Var{"h1"}, f1)
	s3.MustAdd(Var{"h2"}, f2)
	s3.MustAdd(Cat{Left: Var{"h1"}, Right: Var{"h2"}}, f3)
	out["twogroups"] = s3

	return out
}

// transcript renders a Result fully: assignments in solver order, variables
// sorted within each, every language in its serialized wire form.
func transcript(res *Result) string {
	var b strings.Builder
	for i, a := range res.Assignments {
		var vars []string
		for v := range a {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			b.WriteString("assignment ")
			b.WriteString(strings.Repeat("#", i+1))
			b.WriteString(" var ")
			b.WriteString(v)
			b.WriteString("\n")
			b.WriteString(a[v].Marshal())
		}
	}
	return b.String()
}

// TestSolveDeterministic solves each system 20 times from a fresh build and
// requires byte-identical transcripts: same number of disjuncts, same
// order, same serialized language bytes.
func TestSolveDeterministic(t *testing.T) {
	const runs = 20
	for _, name := range []string{"sec311", "seams", "twogroups"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var want string
			for i := 0; i < runs; i++ {
				s := disjunctiveSystems(t)[name]
				res, err := SolveCtx(context.Background(), s, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Assignments) < 2 {
					t.Fatalf("system %s produced %d assignments; need ≥2 for the order to be meaningful",
						name, len(res.Assignments))
				}
				got := transcript(res)
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("run %d transcript differs from run 0:\n--- run 0 ---\n%s\n--- run %d ---\n%s",
						i, want, i, got)
				}
			}
		})
	}
}
