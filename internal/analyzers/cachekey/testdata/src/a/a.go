package a

import (
	"fmt"
	"strings"

	"nfa"
	"solvecache"
)

// Direct raw-form arguments to solvecache.Key.
func direct(m *nfa.NFA) {
	solvecache.Key("d", m.Marshal())                   // want `nfa\.NFA\.Marshal re-serializes the machine on every probe; Key memoizes it`
	solvecache.Key("d", m.Dot("g"))                    // want `nfa\.NFA\.Dot re-renders the machine on every probe`
	solvecache.Key("d", m.String())                    // want `nfa\.NFA\.String renders only counts and state ids`
	solvecache.Key("d", fmt.Sprintf("s%d", m.Start())) // want `nfa\.NFA\.Start is a bare state id`
	solvecache.Key("d", fmt.Sprintf("%p", m))          // want `fmt\.Sprintf renders an \*nfa\.NFA by its String summary or pointer`
	solvecache.Key("d", fmt.Sprint(m))                 // want `fmt\.Sprint renders an \*nfa\.NFA by its String summary or pointer`
}

// Taint flows through local assignments and string plumbing.
func flows(c *solvecache.Cache, m *nfa.NFA, val any) {
	raw := m.Marshal()
	k := "prefix:" + raw
	solvecache.Key("d", k)     // want `nfa\.NFA\.Marshal re-serializes the machine on every probe; Key memoizes it`
	if _, ok := c.Get(k); ok { // want `nfa\.NFA\.Marshal re-serializes the machine on every probe; Key memoizes it`
		return
	}
	c.Put(k, val, 1) // want `nfa\.NFA\.Marshal re-serializes the machine on every probe; Key memoizes it`

	id := m.Final()
	c.Put(fmt.Sprintf("f%d", id), val, 1) // want `nfa\.NFA\.Final is a bare state id`

	dot := m.Dot("g")
	dot = strings.ToUpper(dot)
	solvecache.Key("d", dot) // want `nfa\.NFA\.Dot re-renders the machine on every probe`

	part := fmt.Sprintf("%v", m)
	part = "v:" + part
	solvecache.Key("d", part) // want `fmt\.Sprintf renders an \*nfa\.NFA by its String summary or pointer`
}

// Key and facts such as NumStates are fine.
func clean(c *solvecache.Cache, m *nfa.NFA, val any) {
	solvecache.Key("d", m.Key())
	solvecache.Key("d", fmt.Sprintf("n%d", m.NumStates()))
	ck := m.Key()
	k := solvecache.Key("d", ck, "salt")
	if _, ok := c.Get(k); ok {
		return
	}
	c.Put(k, val, 1)

	// Raw forms are fine outside key construction: debugging, logging,
	// and the value side of a Put are not key material.
	_ = m.Marshal()
	fmt.Println(m.Start(), m.Dot("g"))
	c.Put(ck, m.String(), 1)
}

// Get/Put on non-solvecache receivers with the same names are ignored.
type header map[string]string

func (h header) Get(k string) string { return h[k] }

func other(h header, m *nfa.NFA) string {
	return h.Get(m.String())
}
