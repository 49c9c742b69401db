package textio

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dprle/internal/core"
	"dprle/internal/regex"
)

const motivating = `
# Motivating example (paper §2 / §3.1).
const filter := match /[\d]+$/;
const unsafe := match /'/;
const prefix := lit "nid_";

input <= filter;
prefix . input <= unsafe;
`

func TestParseMotivating(t *testing.T) {
	sys, err := Parse(motivating)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Constraints()); got != 2 {
		t.Fatalf("constraints = %d, want 2", got)
	}
	if vars := sys.Vars(); len(vars) != 1 || vars[0] != "input" {
		t.Fatalf("vars = %v", vars)
	}
	res, err := core.SolveCtx(context.Background(), sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat() {
		t.Fatal("should be satisfiable")
	}
	if !res.First().Lookup("input").Accepts("' OR 1=1 ; DROP news --9") {
		t.Fatal("exploit not covered")
	}
	out := FormatResult(sys, res)
	if !strings.Contains(out, "assignment 1:") || !strings.Contains(out, "input = ") {
		t.Fatalf("FormatResult = %q", out)
	}
}

func TestParseAllLangForms(t *testing.T) {
	src := `
const a := re /ab*/;
const b := lit "x\n\"y";
const c := any;
const d := lit "p" | lit "q";
v <= a;
w <= b;
x <= c;
y <= d;
`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveCtx(context.Background(), sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := res.First()
	if !a.Lookup("v").Accepts("abb") || a.Lookup("v").Accepts("b") {
		t.Fatal("re form wrong")
	}
	if !a.Lookup("w").Accepts("x\n\"y") {
		t.Fatal("string escapes wrong")
	}
	if !a.Lookup("x").Accepts("anything at all") {
		t.Fatal("any form wrong")
	}
	if !a.Lookup("y").Accepts("p") || !a.Lookup("y").Accepts("q") || a.Lookup("y").Accepts("r") {
		t.Fatal("lang union wrong")
	}
}

func TestParseExprUnionAndStrings(t *testing.T) {
	src := `
const c := re /[a-z]+/;
v | w <= c;
"k" . v <= c;
`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Constraints()); got != 2 {
		t.Fatalf("constraints = %d", got)
	}
	res, err := core.SolveCtx(context.Background(), sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat() {
		t.Fatal("should be satisfiable")
	}
	// v must satisfy both v ⊆ c and k·v ⊆ c.
	v := res.First().Lookup("v")
	if !v.Accepts("abc") || v.Accepts("k") == false && v.Accepts("A") {
		t.Log("v witness check")
	}
	if v.Accepts("ABC") {
		t.Fatal("v should stay within [a-z]+")
	}
}

func TestParseRegexWithSlashEscape(t *testing.T) {
	sys, err := Parse(`
const c := re /a\/b/;
v <= c;
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveCtx(context.Background(), sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.First().Lookup("v").Accepts("a/b") {
		t.Fatal("escaped slash wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`const x := ;`,
		`const x := match /unclosed;`,
		`const x := lit "unclosed;`,
		`v <= undeclared;`,
		`const x := lit "a"; v <= x`, // missing semicolon
		`const x := lit "a"; const x := lit "b"; v <= x;`,
		`const x := bogus "a"; v <= x;`,
		`const x := match /(/; v <= x;`,
		`@`,
		`v <= ;`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse("const a := lit \"x\";\nv <= nope;\n")
	pe, ok := err.(*ParseError)
	if !ok || pe.Line != 2 {
		t.Fatalf("err = %v", err)
	}
}

func TestFormatUnsat(t *testing.T) {
	sys, err := Parse(`
const a := re /x+/;
const b := re /y+/;
v <= a;
v <= b;
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveCtx(context.Background(), sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(FormatResult(sys, res), "no assignments found") {
		t.Fatal("unsat formatting wrong")
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	sys, err := Parse("# only a comment\n\n   \t\n# another\nconst c := any;\nv <= c;  # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Constraints()) != 1 {
		t.Fatal("constraint lost")
	}
}

// TestParseExplosiveRegexFails pins the regex expansion bound at this
// front end: a hostile pattern whose nested bounded repeats multiply must
// surface regex.ErrPatternTooLarge as a ParseError instead of hanging the
// parser while it expands a million-state machine.
func TestParseExplosiveRegexFails(t *testing.T) {
	cases := []string{
		`const x := re /a{400}{400}/; v <= x;`,
		`const x := match /a{999}{999}/; v <= x;`,
		`const x := re /(a{100}){100}{100}/; v <= x;`,
	}
	for _, src := range cases {
		start := time.Now()
		_, err := Parse(src)
		if !errors.Is(err, regex.ErrPatternTooLarge) {
			t.Errorf("Parse(%q) err = %v, want regex.ErrPatternTooLarge", src, err)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q) err = %T, want *ParseError with line info", src, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("rejecting %q took %v", src, elapsed)
		}
	}
}
