package core

import (
	"fmt"
	"sort"
	"strings"

	"dprle/internal/budget"
	"dprle/internal/faultinject"
	"dprle/internal/nfa"
	"dprle/internal/solvecache"
)

// Component memoization. The dependency graph decomposes a system into
// independent parts — free variables and CI-groups — whose solutions depend
// only on their own structure: the constants constraining them (as
// machines), the shape of their concat trees, and the solver options. Two
// systems that share a component structurally share its solution, even when
// variable names, constant names, or the rest of the system differ. This
// file derives cache keys for those components and translates solutions in
// and out of the shared cache.
//
// Soundness rests on two properties. First, keys are built exclusively from
// exact forms (nfa.NFA.Key, the full serialization, for constant machines;
// position indices for group-local structure), so equal keys imply
// identical components. Second, only complete results enter the
// cache: storeGroup refuses to store while the solve's budget has tripped
// (a tripped budget can silently degrade maximalization, dedup, and
// pruning), so a hit always reproduces what a fresh, healthy solve would
// have produced. Group solutions are cached post-maximalization — sound
// because maximalization only consults constraints mentioning the group's
// own variables, all of which are part of the key.

// groupSolution is the cached value for one CI-group: its disjunctive
// solutions with node ids translated to positions in the group's sorted id
// list, plus the enumeration-truncation flag.
type groupSolution struct {
	sols      []map[int]*nfa.NFA
	truncated bool
}

// cacheSalt renders the Options fields that influence per-component
// results. MaxSolutions is deliberately absent: it caps only the
// whole-system Cartesian product, never a component's own solve.
func (o Options) cacheSalt() string {
	return fmt.Sprintf("min=%t raw=%t nomax=%t combos=%d",
		o.Minimize, o.RawConstants, o.NoMaximalize, o.maxCombos())
}

// componentKey derives the cache key for one CI-group. The description
// uses group-local node positions (never raw ids or names) and exact
// constant serializations (never pointers), and preserves the
// graph's constraint order, which the enumeration order — and hence any
// MaxCombos truncation point — depends on. It returns "" when the group is
// not safely describable (a non-constant operand outside the group, which
// the grouping invariant should exclude); an empty key disables caching
// for the group.
func componentKey(g *Graph, group []int, opts Options) string {
	idx := make(map[int]int, len(group))
	for i, id := range group {
		idx[id] = i
	}
	constIdx := map[int]int{}
	var constKeys []string
	ref := func(id int) string {
		if i, ok := idx[id]; ok {
			return fmt.Sprintf("n%d", i)
		}
		if g.Nodes[id].Kind != ConstNode {
			return ""
		}
		j, ok := constIdx[id]
		if !ok {
			j = len(constKeys)
			constIdx[id] = j
			constKeys = append(constKeys, g.Nodes[id].Con.Lang.Key())
		}
		return fmt.Sprintf("c%d", j)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "opts %s\n", opts.cacheSalt())
	for i, id := range group {
		fmt.Fprintf(&b, "node %d %s\n", i, g.Nodes[id].Kind)
	}
	for _, p := range g.Concats {
		ri, ok := idx[p.Result]
		if !ok {
			continue
		}
		l, r := ref(p.Left), ref(p.Right)
		if l == "" || r == "" {
			return ""
		}
		fmt.Fprintf(&b, "cat %s %s > n%d\n", l, r, ri)
	}
	for _, e := range g.Subsets {
		ti, ok := idx[e.To]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "sub n%d %s\n", ti, ref(e.From))
	}
	parts := append([]string{b.String()}, constKeys...)
	return solvecache.Key("component", parts...)
}

// freeVarKey derives the cache key for a free variable's reduced language:
// the multiset of constraining constant languages plus the options that
// shape the reduction. The constant keys are sorted because intersection
// is commutative — the resulting language (all downstream stages consume
// only the language) does not depend on application order.
func freeVarKey(g *Graph, id int, opts Options) string {
	var ks []string
	for _, c := range g.SubsetsInto(id) {
		ks = append(ks, c.Lang.Key())
	}
	sort.Strings(ks)
	parts := append([]string{fmt.Sprintf("min=%t raw=%t", opts.Minimize, opts.RawConstants)}, ks...)
	return solvecache.Key("freevar", parts...)
}

// machineCost approximates an NFA's resident size in bytes for the cache's
// cost accounting.
func machineCost(m *nfa.NFA) int64 {
	cost := int64(64)
	for s := 0; s < m.NumStates(); s++ {
		cost += 32 + int64(len(m.EdgesFrom(s)))*24 + int64(len(m.EpsFrom(s)))*16
	}
	return cost
}

// lookupGroup translates a cached group solution back onto the group's
// node ids. hit reports whether the key was present.
func lookupGroup(cache *solvecache.Cache, key string, group []int) (sols []map[int]*nfa.NFA, truncated, hit bool) {
	if cache == nil || key == "" {
		return nil, false, false
	}
	v, ok := cache.Get(key)
	if !ok {
		return nil, false, false
	}
	gs := v.(*groupSolution)
	sols = make([]map[int]*nfa.NFA, len(gs.sols))
	for i, sol := range gs.sols {
		m := make(map[int]*nfa.NFA, len(sol))
		for li, lang := range sol {
			m[group[li]] = lang
		}
		sols[i] = m
	}
	return sols, gs.truncated, true
}

// storeGroup records a completed group solution under key, translating node
// ids to group-local positions and interning the solution machines so
// structurally-identical languages share memory across entries. Nothing is
// stored while the budget has tripped: a degraded solve (partial
// enumeration, skipped maximalization, unpruned duplicates) must never be
// replayed to future callers with healthy budgets. The faultinject probe
// models a failure inside the fill itself; a tripped fill skips the store —
// leaving the cache exactly as it was — and surfaces as an injected budget
// error so the caller degrades visibly rather than silently.
func storeGroup(cache *solvecache.Cache, key string, group []int, sols []map[int]*nfa.NFA, truncated bool, bud *budget.Budget) error {
	if cache == nil || key == "" || bud.Err() != nil {
		return nil
	}
	if faultinject.Fire(faultinject.CacheFill) {
		return bud.Inject("solvecache.fill")
	}
	idx := make(map[int]int, len(group))
	for i, id := range group {
		idx[id] = i
	}
	in := solvecache.NewInterner(cache)
	gs := &groupSolution{sols: make([]map[int]*nfa.NFA, len(sols)), truncated: truncated}
	cost := int64(128)
	for i, sol := range sols {
		ids := make([]int, 0, len(sol))
		for id := range sol {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		m := make(map[int]*nfa.NFA, len(sol))
		for _, id := range ids {
			li, ok := idx[id]
			if !ok {
				return nil // solution mentions a node outside the group: uncacheable
			}
			shared, _ := in.Intern(sol[id])
			m[li] = shared
			cost += 16 + machineCost(shared)
		}
		gs.sols[i] = m
	}
	cache.Put(key, gs, cost)
	return nil
}

// lookupFreeVar returns the cached reduced language for a free variable.
func lookupFreeVar(cache *solvecache.Cache, key string) (*nfa.NFA, bool) {
	if cache == nil {
		return nil, false
	}
	v, ok := cache.Get(key)
	if !ok {
		return nil, false
	}
	return v.(*nfa.NFA), true
}

// storeFreeVar records a free variable's reduced language, under the same
// completeness and fault-injection discipline as storeGroup.
func storeFreeVar(cache *solvecache.Cache, key string, lang *nfa.NFA, bud *budget.Budget) error {
	if cache == nil || bud.Err() != nil {
		return nil
	}
	if faultinject.Fire(faultinject.CacheFill) {
		return bud.Inject("solvecache.fill")
	}
	cache.Put(key, lang, machineCost(lang))
	return nil
}
