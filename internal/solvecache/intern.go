package solvecache

import "dprle/internal/nfa"

// Interner dedups identical automata in memory: machines with equal keys
// (nfa.NFA.Key, the exact serialization) share one *nfa.NFA. The table
// rides on a Cache, so interned machines participate in the same LRU and
// byte accounting as solve results (cost is approximated by the key
// length). Interning is safe because NFAs are immutable once built.
type Interner struct {
	c *Cache
}

// NewInterner returns an interner backed by c. A nil cache yields an inert
// interner that returns its inputs unchanged.
func NewInterner(c *Cache) *Interner { return &Interner{c: c} }

// Intern returns the shared representative for m's structure and m's key.
// The first machine seen for a structure becomes the representative; later
// identical machines are dropped in favor of it.
func (in *Interner) Intern(m *nfa.NFA) (*nfa.NFA, string) {
	key := m.Key()
	if in == nil || in.c == nil {
		return m, key
	}
	ck := Key("intern", key)
	if v, ok := in.c.Get(ck); ok {
		return v.(*nfa.NFA), key
	}
	in.c.Put(ck, m, int64(len(key)))
	return m, key
}
