// Package dprle is a decision procedure for subset constraints over regular
// languages — a Go reproduction of Hooimeijer & Weimer, "A Decision
// Procedure for Subset Constraints over Regular Languages" (PLDI 2009).
//
// The package solves systems of equations of the form
//
//	e ⊆ c
//
// where e concatenates regular-language variables and constants and c is a
// constant regular language (the Regular Matching Assignments problem). The
// solver returns every disjunctive maximal satisfying assignment of regular
// languages to variables, or reports that no assignment gives all variables
// of interest a nonempty language.
//
// A minimal session:
//
//	sys := dprle.NewSystem()
//	filter := dprle.MustMatchLang(`[\d]+$`)       // preg_match without ^
//	unsafe := dprle.MustMatchLang(`'`)            // queries containing a quote
//	sys.Require(dprle.V("input"), "filter", filter)
//	sys.Require(dprle.Concat(sys.Lit("nid_"), dprle.V("input")), "unsafe", unsafe)
//	res, _ := sys.Solve(dprle.Options{})
//	exploit, _ := res.First().Get("input").Witness()   // e.g. "'0"
package dprle

import (
	"fmt"

	"dprle/internal/nfa"
	"dprle/internal/regex"
)

// Lang is an immutable regular language over the byte alphabet.
type Lang struct {
	m *nfa.NFA
}

func wrap(m *nfa.NFA) Lang { return Lang{m: m} }

// machine returns the underlying NFA, defaulting the zero Lang to ∅.
func (l Lang) machine() *nfa.NFA {
	if l.m == nil {
		return nfa.Empty()
	}
	return l.m
}

// RegexLang compiles a pattern to its exact language.
func RegexLang(pattern string) (Lang, error) {
	r, err := regex.Parse(pattern)
	if err != nil {
		return Lang{}, err
	}
	m, err := r.Compile()
	if err != nil {
		return Lang{}, err
	}
	return wrap(m), nil
}

// MustRegexLang is RegexLang for statically known patterns.
func MustRegexLang(pattern string) Lang {
	l, err := RegexLang(pattern)
	if err != nil {
		panic(err)
	}
	return l
}

// MatchLang compiles a pattern to its preg_match language: the set of
// subject strings the pattern matches somewhere, honouring ^ and $ anchors.
func MatchLang(pattern string) (Lang, error) {
	r, err := regex.Parse(pattern)
	if err != nil {
		return Lang{}, err
	}
	m, err := r.MatchLanguage()
	if err != nil {
		return Lang{}, err
	}
	return wrap(m), nil
}

// MustMatchLang is MatchLang for statically known patterns.
func MustMatchLang(pattern string) Lang {
	l, err := MatchLang(pattern)
	if err != nil {
		panic(err)
	}
	return l
}

// LitLang returns the singleton language {s}.
func LitLang(s string) Lang { return wrap(nfa.Literal(s)) }

// AnyLang returns Σ*, the language of all strings.
func AnyLang() Lang { return wrap(nfa.AnyString()) }

// EmptyLang returns the empty language ∅.
func EmptyLang() Lang { return wrap(nfa.Empty()) }

// LengthBetween returns the language of strings whose length lies in
// [min, max] — the substring-indexing/length-check extension the paper
// sketches in §3.1.2. A negative max means unbounded.
func LengthBetween(min, max int) Lang {
	any := nfa.Class(nfa.AnyByte())
	out := nfa.Epsilon()
	for i := 0; i < min; i++ {
		out = nfa.Concat(out, any)
	}
	switch {
	case max < 0:
		out = nfa.Concat(out, nfa.Star(any))
	default:
		for i := min; i < max; i++ {
			out = nfa.Concat(out, nfa.Optional(any))
		}
	}
	return wrap(out)
}

// Accepts reports whether w belongs to the language.
func (l Lang) Accepts(w string) bool { return l.machine().Accepts(w) }

// IsEmpty reports whether the language is ∅.
func (l Lang) IsEmpty() bool { return l.machine().IsEmpty() }

// Witness returns a shortest member of the language. It is shorthand for
// ShortestWitness, kept for compatibility.
func (l Lang) Witness() (string, bool) { return l.machine().ShortestWitness() }

// ShortestWitness returns a shortest member of the language, or ok=false
// for ∅. The choice is deterministic: among equal-length candidates the
// breadth-first search always prefers the smallest byte at each position,
// so a given language yields byte-identical witnesses across runs,
// processes, and machine representations (a Lang and its
// Marshal/UnmarshalLang or Minimize round-trip agree). Counterexamples
// reported from it are therefore stable enough to assert on in tests.
func (l Lang) ShortestWitness() (string, bool) { return l.machine().ShortestWitness() }

// Enumerate lists members of length ≤ maxLen, up to maxCount, shortest
// first.
func (l Lang) Enumerate(maxLen, maxCount int) []string {
	return l.machine().Enumerate(maxLen, maxCount)
}

// Union returns l ∪ o.
func (l Lang) Union(o Lang) Lang { return wrap(nfa.Union(l.machine(), o.machine())) }

// Intersect returns l ∩ o.
func (l Lang) Intersect(o Lang) Lang {
	m, _ := nfa.IntersectB(nil, l.machine(), o.machine()) // nil budget cannot fail
	return wrap(m.Trim())
}

// ConcatWith returns l · o.
func (l Lang) ConcatWith(o Lang) Lang { return wrap(nfa.Concat(l.machine(), o.machine())) }

// Complement returns Σ* \ l.
func (l Lang) Complement() Lang {
	m, _ := nfa.ComplementB(nil, l.machine())
	return wrap(m)
}

// Star returns l*.
func (l Lang) Star() Lang { return wrap(nfa.Star(l.machine())) }

// SubsetOf reports whether l ⊆ o.
func (l Lang) SubsetOf(o Lang) bool {
	ok, _ := nfa.SubsetB(nil, l.machine(), o.machine())
	return ok
}

// Equal reports whether l and o denote the same language.
func (l Lang) Equal(o Lang) bool { return nfa.Equivalent(l.machine(), o.machine()) }

// Minimize returns an equivalent language backed by the minimal DFA.
func (l Lang) Minimize() Lang {
	m, _ := nfa.MinimizedB(nil, l.machine())
	return wrap(m)
}

// IsInfinite reports whether the language has infinitely many members.
func (l Lang) IsInfinite() bool { return l.machine().IsInfinite() }

// MinLen returns the length of a shortest member (ok=false when empty).
func (l Lang) MinLen() (int, bool) { return l.machine().MinWordLength() }

// MaxLen returns the length of a longest member; infinite reports an
// unbounded language, ok=false an empty one.
func (l Lang) MaxLen() (length int, infinite, ok bool) {
	return l.machine().MaxWordLength()
}

// Count returns the number of distinct members of each length 0..maxLen.
func (l Lang) Count(maxLen int) []int { return l.machine().CountWords(maxLen) }

// Sample returns a pseudo-random member derived deterministically from
// seed, with ok=false for the empty language. Useful for generating varied
// testcases from one solved input language.
func (l Lang) Sample(seed uint64) (string, bool) { return l.machine().SampleMember(seed) }

// States returns the state count of the backing machine, the size measure
// used throughout the paper's complexity discussion (§3.5).
func (l Lang) States() int { return l.machine().NumStates() }

// Dot renders the backing machine in Graphviz DOT format.
func (l Lang) Dot(name string) string { return l.machine().Dot(name) }

// Marshal serializes the language's machine in the dprle-nfa text format,
// suitable for caching solved languages on disk.
func (l Lang) Marshal() string { return l.machine().Marshal() }

// UnmarshalLang parses a language serialized with Marshal.
func UnmarshalLang(text string) (Lang, error) {
	m, err := nfa.Unmarshal(text)
	if err != nil {
		return Lang{}, err
	}
	return wrap(m), nil
}

// String summarizes the language by its machine size and a witness.
func (l Lang) String() string {
	if w, ok := l.Witness(); ok {
		return fmt.Sprintf("Lang{states: %d, witness: %q}", l.States(), w)
	}
	return fmt.Sprintf("Lang{states: %d, empty}", l.States())
}
