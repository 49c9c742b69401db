package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"dprle/internal/budget"
	"dprle/internal/faultinject"
	"dprle/internal/nfa"
	"dprle/internal/regex"
	"dprle/internal/solvecache"
)

// disjSystem builds the §3.1.1 disjunctive example under configurable
// variable and constant names, so tests can prove cache keys are
// name-invariant: v1 ⊆ x(yy)+, v2 ⊆ (yy)*z, v1·v2 ⊆ xyyz|xyyyyz.
func disjSystem(v1, v2, c1n, c2n, c3n string) *System {
	s := NewSystem()
	c1 := s.MustConst(c1n, regex.MustCompile("x(yy)+"))
	c2 := s.MustConst(c2n, regex.MustCompile("(yy)*z"))
	c3 := s.MustConst(c3n, regex.MustCompile("xyyz|xyyyyz"))
	s.MustAdd(Var{v1}, c1)
	s.MustAdd(Var{v2}, c2)
	s.MustAdd(Cat{Left: Var{v1}, Right: Var{v2}}, c3)
	return s
}

// requireEquivalent checks that two results carry the same assignments up
// to language equivalence, pairing disjuncts greedily.
func requireEquivalent(t *testing.T, s *System, a, b *Result) {
	t.Helper()
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatalf("assignment counts differ: %d vs %d", len(a.Assignments), len(b.Assignments))
	}
	if a.Truncated != b.Truncated {
		t.Fatalf("truncated flags differ: %t vs %t", a.Truncated, b.Truncated)
	}
	used := make([]bool, len(b.Assignments))
	for _, aa := range a.Assignments {
		found := false
		for j, ba := range b.Assignments {
			if used[j] {
				continue
			}
			same := true
			for _, v := range s.Vars() {
				if !nfa.Equivalent(aa.Lookup(v), ba.Lookup(v)) {
					same = false
					break
				}
			}
			if same {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			t.Fatal("an assignment from the first result has no equivalent in the second")
		}
	}
}

// TestCacheHitEquivalence is the core correctness contract: a warm solve
// must return results equivalent to the cold solve, and both must genuinely
// satisfy the system maximally.
func TestCacheHitEquivalence(t *testing.T) {
	cache := solvecache.New(solvecache.Config{})
	opts := Options{Cache: cache}

	cold, err := SolveCtx(context.Background(), disjSystem("v1", "v2", "c1", "c2", "c3"), opts)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	st := cache.Stats()
	if st.Puts == 0 {
		t.Fatal("cold solve stored nothing")
	}
	if st.Hits != 0 {
		t.Fatalf("cold solve hit %d times, want 0", st.Hits)
	}

	s2 := disjSystem("v1", "v2", "c1", "c2", "c3")
	warm, err := SolveCtx(context.Background(), s2, opts)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if got := cache.Stats().Hits; got == 0 {
		t.Fatal("warm solve of an identical system missed the cache")
	}
	requireEquivalent(t, s2, cold, warm)
	for _, a := range warm.Assignments {
		if !Satisfies(s2, a) {
			t.Fatal("cached assignment does not satisfy the system")
		}
		if err := CheckMaximal(s2, a); err != nil {
			t.Fatalf("cached assignment is not maximal: %v", err)
		}
	}
}

// TestCacheRenameInvariant: component keys derive from structure, not
// names, so renaming every variable and constant still hits.
func TestCacheRenameInvariant(t *testing.T) {
	cache := solvecache.New(solvecache.Config{})
	opts := Options{Cache: cache}
	orig := disjSystem("v1", "v2", "c1", "c2", "c3")
	cold, err := SolveCtx(context.Background(), orig, opts)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := cache.Stats().Hits

	renamed := disjSystem("alpha", "beta", "ka", "kb", "kc")
	warm, err := SolveCtx(context.Background(), renamed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits == hitsBefore {
		t.Fatal("renamed system missed the cache: keys are name-dependent")
	}
	if len(warm.Assignments) != len(cold.Assignments) {
		t.Fatalf("renamed solve: %d assignments, want %d", len(warm.Assignments), len(cold.Assignments))
	}
	for _, a := range warm.Assignments {
		if !Satisfies(renamed, a) {
			t.Fatal("renamed cached assignment does not satisfy")
		}
	}
}

// TestCacheContentSensitive: changing a constant's language must miss.
func TestCacheContentSensitive(t *testing.T) {
	cache := solvecache.New(solvecache.Config{})
	opts := Options{Cache: cache, RawConstants: true}
	if _, err := SolveCtx(context.Background(), disjSystem("v1", "v2", "c1", "c2", "c3"), opts); err != nil {
		t.Fatal(err)
	}
	hitsBefore := cache.Stats().Hits

	s := NewSystem()
	c1 := s.MustConst("c1", regex.MustCompile("x(yy)+"))
	c2 := s.MustConst("c2", regex.MustCompile("(yy)*z"))
	c3 := s.MustConst("c3", regex.MustCompile("xyyz")) // narrower concat bound
	s.MustAdd(Var{"v1"}, c1)
	s.MustAdd(Var{"v2"}, c2)
	s.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, c3)
	res, err := SolveCtx(context.Background(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits != hitsBefore {
		t.Fatal("different constant content hit the cache: keys ignore languages")
	}
	for _, a := range res.Assignments {
		if !Satisfies(s, a) {
			t.Fatal("assignment does not satisfy")
		}
	}
}

// TestCacheUnsatCached: an unsat proof is a complete result and is cached.
func TestCacheUnsatCached(t *testing.T) {
	build := func() *System {
		s := NewSystem()
		c1 := s.MustConst("c1", regex.MustCompile("xx"))
		c2 := s.MustConst("c2", regex.MustCompile("yy"))
		c3 := s.MustConst("c3", regex.MustCompile("zz"))
		s.MustAdd(Var{"v1"}, c1)
		s.MustAdd(Var{"v2"}, c2)
		s.MustAdd(Cat{Left: Var{"v1"}, Right: Var{"v2"}}, c3)
		return s
	}
	cache := solvecache.New(solvecache.Config{})
	opts := Options{Cache: cache}
	res, err := SolveCtx(context.Background(), build(), opts)
	if err != nil || res.Sat() {
		t.Fatalf("expected unsat without error, got sat=%t err=%v", res.Sat(), err)
	}
	hitsBefore := cache.Stats().Hits
	res2, err := SolveCtx(context.Background(), build(), opts)
	if err != nil || res2.Sat() {
		t.Fatalf("warm unsat solve: sat=%t err=%v", res2.Sat(), err)
	}
	if cache.Stats().Hits == hitsBefore {
		t.Fatal("unsat proof was not cached")
	}
}

// TestCacheNeverStoresDegraded: a solve that trips its budget must leave
// the cache untouched, and a later healthy solve must produce the full
// result from scratch.
func TestCacheNeverStoresDegraded(t *testing.T) {
	cache := solvecache.New(solvecache.Config{})
	opts := Options{Cache: cache, RawConstants: true, Limits: budget.Limits{MaxStates: 10}}
	_, err := SolveCtx(context.Background(), disjSystem("v1", "v2", "c1", "c2", "c3"), opts)
	var ex *budget.Exhausted
	if !errors.As(err, &ex) {
		t.Fatalf("tiny budget did not trip: %v", err)
	}
	if st := cache.Stats(); st.Puts != 0 {
		t.Fatalf("degraded solve stored %d entries; partial results must never be cached", st.Puts)
	}

	opts.Limits = budget.Limits{}
	s := disjSystem("v1", "v2", "c1", "c2", "c3")
	res, err := SolveCtx(context.Background(), s, opts)
	if err != nil {
		t.Fatalf("healthy solve after degraded one: %v", err)
	}
	if len(res.Assignments) != 2 {
		t.Fatalf("assignments = %d, want 2", len(res.Assignments))
	}
	for _, a := range res.Assignments {
		if !Satisfies(s, a) {
			t.Fatal("assignment does not satisfy")
		}
	}
}

// TestCacheFillFault proves the CacheFill invariant at the core layer: a
// fault inside the fill path degrades that solve's answer (injected budget
// error, results still verified) and skips the store, so the cache is never
// poisoned and later solves recompute cleanly.
func TestCacheFillFault(t *testing.T) {
	cache := solvecache.New(solvecache.Config{})
	opts := Options{Cache: cache, RawConstants: true}
	s := disjSystem("v1", "v2", "c1", "c2", "c3")

	disarm := faultinject.Arm(faultinject.CacheFill, 1)
	res, err := SolveCtx(context.Background(), s, opts)
	disarm()
	var ex *budget.Exhausted
	if !errors.As(err, &ex) || ex.Kind != budget.Injected {
		t.Fatalf("tripped fill should surface as an injected budget error, got %v", err)
	}
	if len(res.Assignments) == 0 {
		t.Fatal("the solve completed before the fill; its verified results must survive")
	}
	for _, a := range res.Assignments {
		if !Satisfies(s, a) {
			t.Fatal("degraded-fill assignment does not satisfy")
		}
	}
	if st := cache.Stats(); st.Puts != 0 {
		t.Fatalf("tripped fill stored %d entries; the cache is poisoned", st.Puts)
	}

	// The next solve recomputes (miss), stores, and the one after hits.
	if _, err := SolveCtx(context.Background(), disjSystem("v1", "v2", "c1", "c2", "c3"), opts); err != nil {
		t.Fatalf("post-fault solve: %v", err)
	}
	if st := cache.Stats(); st.Puts == 0 {
		t.Fatal("post-fault solve stored nothing")
	}
	hits := cache.Stats().Hits
	if _, err := SolveCtx(context.Background(), disjSystem("v1", "v2", "c1", "c2", "c3"), opts); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits == hits {
		t.Fatal("third solve missed: the post-fault fill did not take")
	}
}

// TestSolveForCache: the partial-solve path shares the same component
// cache.
func TestSolveForCache(t *testing.T) {
	cache := solvecache.New(solvecache.Config{})
	opts := Options{Cache: cache}
	res, err := SolveForCtx(context.Background(), disjSystem("v1", "v2", "c1", "c2", "c3"), []string{"v1"}, opts)
	if err != nil || !res.Sat() {
		t.Fatalf("cold SolveFor: sat=%t err=%v", res.Sat(), err)
	}
	hitsBefore := cache.Stats().Hits
	res2, err := SolveForCtx(context.Background(), disjSystem("v1", "v2", "c1", "c2", "c3"), []string{"v1"}, opts)
	if err != nil || !res2.Sat() {
		t.Fatalf("warm SolveFor: sat=%t err=%v", res2.Sat(), err)
	}
	if cache.Stats().Hits == hitsBefore {
		t.Fatal("SolveFor missed the component cache")
	}
	// Full-solve hits on components stored by SolveFor and vice versa.
	full, err := SolveCtx(context.Background(), disjSystem("v1", "v2", "c1", "c2", "c3"), opts)
	if err != nil || !full.Sat() {
		t.Fatalf("full solve after SolveFor: sat=%t err=%v", full.Sat(), err)
	}
}

// TestCacheConcurrentSolves exercises the shared cache from many
// goroutines (meaningful under -race): concurrent solves of identical and
// renamed systems must all succeed with satisfying assignments.
func TestCacheConcurrentSolves(t *testing.T) {
	cache := solvecache.New(solvecache.Config{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var s *System
			if i%2 == 0 {
				s = disjSystem("v1", "v2", "c1", "c2", "c3")
			} else {
				s = disjSystem("alpha", "beta", "ka", "kb", "kc")
			}
			res, err := SolveCtx(context.Background(), s, Options{Cache: cache})
			if err != nil {
				t.Errorf("solver %d: %v", i, err)
				return
			}
			for _, a := range res.Assignments {
				if !Satisfies(s, a) {
					t.Errorf("solver %d: unsatisfying assignment", i)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestCacheFreeVarPath: free-variable reductions are cached independently
// of groups.
func TestCacheFreeVarPath(t *testing.T) {
	build := func(name string) *System {
		s := NewSystem()
		ca := s.MustConst("ca", regex.MustCompile("(xx)+y"))
		cb := s.MustConst("cb", regex.MustCompile("x*y"))
		s.MustAdd(Var{name}, ca)
		s.MustAdd(Var{name}, cb)
		return s
	}
	cache := solvecache.New(solvecache.Config{})
	opts := Options{Cache: cache}
	cold, err := SolveCtx(context.Background(), build("v1"), opts)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := cache.Stats().Hits
	warm, err := SolveCtx(context.Background(), build("other"), opts) // renamed: still the same reduction
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits == hitsBefore {
		t.Fatal("free-var reduction missed the cache")
	}
	if !nfa.Equivalent(cold.Assignments[0].Lookup("v1"), warm.Assignments[0].Lookup("other")) {
		t.Fatal("cached free-var language differs from computed one")
	}
}

// TestConstCacheSharedAcrossGroups solves a system of several uncached
// CI-groups over shared constants, concurrently and sequentially, each under
// a fresh shared cache. One constant cache serves the whole solve, so each
// constant is canonicalized once — one shared-cache lookup and one store —
// however the groups are scheduled, and both runs leave identical cache
// counters. Under -race it also exercises the cache's synchronization.
func TestConstCacheSharedAcrossGroups(t *testing.T) {
	build := func() (*System, []*Const) {
		s := NewSystem()
		consts := []*Const{
			s.MustConst("c1", regex.MustCompile("(ab|ba)+c")),
			s.MustConst("c2", regex.MustCompile("a*b(b|c)*")),
		}
		for i, name := range []string{"p", "q", "r", "s", "t", "u"} {
			c := consts[i%len(consts)]
			s.MustAdd(Cat{Left: Var{name + "1"}, Right: Var{name + "2"}}, c)
		}
		return s, consts
	}
	run := func(sequential bool) solvecache.Stats {
		s, consts := build()
		if n := len(BuildGraph(s).CIGroups()); n != 6 {
			t.Fatalf("system has %d CI-groups, want 6", n)
		}
		cache := solvecache.New(solvecache.Config{})
		res, err := SolveCtx(context.Background(), s, Options{Cache: cache, Sequential: sequential})
		if err != nil || len(res.Assignments) == 0 {
			t.Fatalf("sequential=%t: %d assignments, err %v", sequential, len(res.Assignments), err)
		}
		for _, c := range consts {
			if _, ok := cache.Get(solvecache.Key("const", c.Lang.Key())); !ok {
				t.Fatalf("sequential=%t: constant %s was not stored", sequential, c.Name)
			}
		}
		return cache.Stats()
	}
	seq := run(true)
	for i := 0; i < 4; i++ {
		if got := run(false); got != seq {
			t.Fatalf("concurrent solve cache stats %+v, sequential %+v", got, seq)
		}
	}
}
