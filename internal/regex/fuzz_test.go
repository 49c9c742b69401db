package regex

import (
	"regexp"
	"strings"
	"testing"
)

// FuzzParse checks the regex front end never panics and that successfully
// compiled machines behave sanely (Accepts terminates, witnesses verify).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		``, `a`, `[\d]+$`, `^(a|b)*c{2,4}?`, `[^a-z\\]+`, `\x41\0\n`,
		`(((`, `a{999}`, `a{1,`, `[]a]`, `a|`, `.*.*.*`, `\Q`, `{2}`,
		`(?:x)+`, `[\w-]`, `a**`, "\xff\xfe", `^a$|^b$`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		r, err := Parse(pattern)
		if err != nil {
			return
		}
		m, err := r.Compile()
		if err != nil {
			return
		}
		if w, ok := m.ShortestWitness(); ok {
			if !m.Accepts(w) {
				t.Fatalf("witness %q of %q rejected", w, pattern)
			}
		}
		if _, err := r.MatchLanguage(); err != nil {
			// Anchor-position errors are fine; panics are not.
			return
		}
	})
}

// sharedEscapes are the escaped bytes that mean the same thing to this
// package and to Go's regexp. Left out on purpose: \s and \S (Go's \s lacks
// \v), \b and \B (word boundaries in Go, plain letters here), \A and \z
// (anchors handled only at pattern boundaries here), \Q, \p, \P, octal and
// backreference digits, and every other letter Go gives a meaning.
const sharedEscapes = `dDwWntrfvx.\-[]()*+?|{}^$/`

// inSharedSyntax reports whether pattern stays inside the syntax both
// engines read the same way: ASCII only (Go reads patterns as UTF-8 runes,
// this package reads bytes), no inline flags or named groups, no bounds
// with leading zeros, and only sharedEscapes after a backslash. Constructs that just one engine rejects
// need no filter: the fuzz target skips any pattern either side refuses.
func inSharedSyntax(pattern string) bool {
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch {
		case c >= 0x80:
			return false
		case c == '\\':
			if i+1 == len(pattern) || !strings.ContainsRune(sharedEscapes, rune(pattern[i+1])) {
				return false
			}
			i++
		case c == '(' && strings.HasPrefix(pattern[i+1:], "?") && !strings.HasPrefix(pattern[i+1:], "?:"):
			return false
		case (c == '{' || c == ',') && i+2 < len(pattern) && pattern[i+1] == '0' && isDigit(pattern[i+2]):
			// A bound with a leading zero, {00} or {1,01}: Go reads the
			// braces as literal text, PCRE and this package as a count.
			return false
		}
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// FuzzMatchesStdlib is a differential oracle that shares no code with the
// NFA substrate: for every pattern in the shared syntax that both engines
// accept, Compile(p).Accepts(w) must agree with Go's regexp matching
// ^(?:p)$ on ASCII inputs. The dot stays in its default mode on both sides,
// where it excludes '\n'. Each case also checks this package's shortest
// witness, which catches a language that is too large even when the
// fuzzed input misses the difference. Seeds are the pattern/input matrices
// of two small regex engines' test suites.
func FuzzMatchesStdlib(f *testing.F) {
	for _, seed := range []struct{ pattern, input string }{
		{"", ""}, {"a?", "aa"}, {"a+", ""}, {"a*bc", "aaabc"},
		{"ab|cd|ef", "bc"}, {"(ab)|(cd)", "cd"}, {"(ab)*c", "ababc"},
		{"((ab))*", "abab"}, {"(((a|b)))*(((e|f)))", "babgf"},
		{"[abcd]", "e"}, {"[^abcd]", "e"}, {"(a|)", ""}, {"(|a)", "a"},
		{"[0-9][0-9][0-9]", "2344"}, {`\.(a?b|(xy)+|yz*).\t`, ".xyxy!\t"},
		{"a*|b*|c*", "bbb"}, {"[a-z0-9-]", "-"}, {"[^a-zA-Z0-9]", "\n"},
		{`[^.\\]`, `\`}, {`[\^\-\]]`, "]"}, {"a*b*c*", "abcc"},
		{"return|result", "result"}, {"(a*|b*)[0-9]?[a-zA-Z]+(x?y?z?|abc)", "aaabbbabc"},
		{"a{2,3}", "aaaa"}, {"a{2,}?", "aa"}, {"x{,3}", "x{,3}"}, {`\d+\w*\W`, "12ab!"},
		{"(?:ab)+?", "abab"}, {".*", "a\nb"}, {`\x41[\x61-\x63]`, "Ab"},
	} {
		f.Add(seed.pattern, seed.input)
	}
	f.Fuzz(func(t *testing.T, pattern, input string) {
		if len(pattern) > 64 || !inSharedSyntax(pattern) {
			return
		}
		std, err := regexp.Compile(`^(?:` + pattern + `)$`)
		if err != nil {
			return
		}
		r, err := Parse(pattern)
		if err != nil {
			return
		}
		m, err := r.Compile()
		if err != nil {
			return
		}
		ascii := []byte(input)
		for i := range ascii {
			ascii[i] &= 0x7f
		}
		probes := []string{string(ascii)}
		if w, ok := m.ShortestWitness(); ok && !strings.ContainsFunc(w, func(c rune) bool { return c >= 0x80 }) {
			probes = append(probes, w)
		}
		for _, w := range probes {
			if got, want := m.Accepts(w), std.MatchString(w); got != want {
				t.Fatalf("pattern %q on %q: Compile accepts=%v, regexp matches=%v", pattern, w, got, want)
			}
		}
	})
}
