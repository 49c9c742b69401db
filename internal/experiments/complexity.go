package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dprle/internal/core"
	"dprle/internal/nfa"
)

// §3.5 complexity sweeps. The paper analyzes the decision procedure in
// terms of NFA states visited: a single concat_intersect builds a product
// machine of O(Q²) states and enumerating all of its solutions costs O(Q³);
// chaining a second concat_intersect onto the result, or adding a second
// subset constraint to the concatenation node, raises the enumeration bound
// to O(Q⁵). These drivers build parametric instances whose input machines
// have Θ(Q) states and report the measured machine sizes, solution counts,
// and wall-clock time, so growth curves can be compared against the
// analytical bounds.

// ComplexityPoint is one measurement of a sweep.
type ComplexityPoint struct {
	Q         int
	M5States  int // product machine size (single-CI sweep only)
	Solutions int
	Elapsed   time.Duration
}

// boundedRepeat returns a machine for x{0,n} with exactly n+2 states: a
// chain of n character edges, every chain state ε-connected to the single
// final state. Building it directly (rather than via Optional-chains) keeps
// the constant factor of the O(Q²) product measurements honest.
func boundedRepeat(set nfa.CharSet, n int) *nfa.NFA {
	b := nfa.NewBuilder()
	first := b.AddStates(n + 1)
	final := b.AddState()
	for i := 0; i < n; i++ {
		b.AddEdge(first+i, set, first+i+1)
	}
	for i := 0; i <= n; i++ {
		b.AddEps(first+i, final)
	}
	return b.Build(first, final)
}

// CISweep runs a single concat_intersect on Θ(Q)-state inputs:
//
//	c1 = a{0,Q}, c2 = b{0,Q}, c3 = [ab]{0,2Q}
//
// The product machine must stay O(Q²) and the solution count O(Q).
func CISweep(q int) ComplexityPoint {
	c1 := boundedRepeat(nfa.Singleton('a'), q)
	c2 := boundedRepeat(nfa.Singleton('b'), q)
	c3 := boundedRepeat(nfa.Range('a', 'b'), 2*q)
	start := time.Now()
	sols, trace, _ := core.ConcatIntersectB(nil, c1, c2, c3) // nil budget cannot fail
	return ComplexityPoint{
		Q:         q,
		M5States:  trace.M5.NumStates(),
		Solutions: len(sols),
		Elapsed:   time.Since(start),
	}
}

// ChainedSweep solves the paper's chained system
//
//	v1 ⊆ c1, v2 ⊆ c2, v3 ⊆ c3, v1·v2 ⊆ c4, v1·v2·v3 ⊆ c5
//
// which requires two inductive concat_intersect applications (§3.5's
// O(Q⁵) case).
func ChainedSweep(q int) (ComplexityPoint, error) {
	s := core.NewSystem()
	c1 := s.MustConst("c1", boundedRepeat(nfa.Singleton('a'), q))
	c2 := s.MustConst("c2", boundedRepeat(nfa.Singleton('b'), q))
	c3 := s.MustConst("c3", boundedRepeat(nfa.Singleton('c'), q))
	c4 := s.MustConst("c4", boundedRepeat(nfa.Range('a', 'b'), q))
	c5 := s.MustConst("c5", boundedRepeat(nfa.Range('a', 'c'), q))
	s.MustAdd(core.Var{Name: "v1"}, c1)
	s.MustAdd(core.Var{Name: "v2"}, c2)
	s.MustAdd(core.Var{Name: "v3"}, c3)
	s.MustAdd(core.Cat{Left: core.Var{Name: "v1"}, Right: core.Var{Name: "v2"}}, c4)
	s.MustAdd(core.Cat{
		Left:  core.Cat{Left: core.Var{Name: "v1"}, Right: core.Var{Name: "v2"}},
		Right: core.Var{Name: "v3"}}, c5)
	start := time.Now()
	res, err := core.SolveCtx(context.Background(), s, core.Options{NoMaximalize: true, MaxSolutions: 1 << 20, MaxCombos: 1 << 20})
	if err != nil {
		return ComplexityPoint{}, err
	}
	return ComplexityPoint{Q: q, Solutions: len(res.Assignments), Elapsed: time.Since(start)}, nil
}

// ExtraSubsetSweep solves v1 ⊆ c1, v2 ⊆ c2, v1·v2 ⊆ c3, v1·v2 ⊆ c4 — the
// second §3.5 O(Q⁵) case, where the concatenation node carries two subset
// constraints.
func ExtraSubsetSweep(q int) (ComplexityPoint, error) {
	s := core.NewSystem()
	c1 := s.MustConst("c1", boundedRepeat(nfa.Singleton('a'), q))
	c2 := s.MustConst("c2", boundedRepeat(nfa.Range('a', 'b'), q))
	c3 := s.MustConst("c3", boundedRepeat(nfa.Range('a', 'b'), 2*q))
	c4 := s.MustConst("c4", boundedRepeat(nfa.Range('a', 'c'), q))
	v12 := core.Cat{Left: core.Var{Name: "v1"}, Right: core.Var{Name: "v2"}}
	s.MustAdd(core.Var{Name: "v1"}, c1)
	s.MustAdd(core.Var{Name: "v2"}, c2)
	s.MustAdd(v12, c3)
	s.MustAdd(v12, c4)
	start := time.Now()
	res, err := core.SolveCtx(context.Background(), s, core.Options{NoMaximalize: true, MaxSolutions: 1 << 20, MaxCombos: 1 << 20})
	if err != nil {
		return ComplexityPoint{}, err
	}
	return ComplexityPoint{Q: q, Solutions: len(res.Assignments), Elapsed: time.Since(start)}, nil
}

// ChainedSweepMaxQ caps the chained/extra-subset sweeps: they enumerate
// every disjunctive solution, which is exactly the O(Q⁵) behaviour under
// measurement, so the curves are recorded at modest Q.
const ChainedSweepMaxQ = 16

// ComplexityTable runs all three sweeps over the given Q values. The single
// CI sweep runs at every Q; the chained and extra-subset sweeps, whose full
// enumeration is the O(Q⁵) case, are limited to Q ≤ ChainedSweepMaxQ.
func ComplexityTable(qs []int) (string, error) {
	var b strings.Builder
	b.WriteString("§3.5 complexity sweeps (states / solutions / time)\n")
	fmt.Fprintf(&b, "%6s %24s %22s %22s\n", "Q", "single CI (|M5|,sols,t)", "chained CI (sols,t)", "extra subset (sols,t)")
	for _, q := range qs {
		p1 := CISweep(q)
		fmt.Fprintf(&b, "%6d %10d,%5d,%7.3fs", q, p1.M5States, p1.Solutions, p1.Elapsed.Seconds())
		if q <= ChainedSweepMaxQ {
			p2, err := ChainedSweep(q)
			if err != nil {
				return "", err
			}
			p3, err := ExtraSubsetSweep(q)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %14d,%7.3fs %14d,%7.3fs\n",
				p2.Solutions, p2.Elapsed.Seconds(),
				p3.Solutions, p3.Elapsed.Seconds())
		} else {
			fmt.Fprintf(&b, " %22s %22s\n", "(skipped)", "(skipped)")
		}
	}
	return b.String(), nil
}
