package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dprle/internal/analysis"
	"dprle/internal/analyzers"
	"dprle/internal/analyzers/interproc"
)

// repoRoot locates the module root from this test file's position, so the
// test is independent of the working directory go test chooses.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test file")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// TestRepoClean is the acceptance gate: the full analyzer suite reports
// nothing on the repository itself. Any new finding is either a real bug
// (fix it) or a deliberate exception (//lint:ignore with a reason).
func TestRepoClean(t *testing.T) {
	root := repoRoot(t)
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("suspiciously few packages found (%d): %v", len(paths), paths)
	}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		findings, err := analysis.Run(pkg, loader.Fset, analyzers.All())
		if err != nil {
			t.Fatalf("analyzing %s: %v", path, err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}

// TestUnbudgetedDeterminizeFails proves the lint gate catches the
// regression the suite exists for: re-introducing an un-budgeted
// Determinize call inside a budgeted path must produce a finding (and
// therefore a non-zero dprlelint exit, failing CI).
func TestUnbudgetedDeterminizeFails(t *testing.T) {
	loader := analysis.NewSourceLoader(filepath.Join("testdata", "src"))
	pkg, err := loader.Load("regress")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(pkg, loader.Fset, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range findings {
		if f.Analyzer == "budgetflow" && strings.Contains(f.Message, "un-budgeted Determinize") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a budgetflow finding for un-budgeted Determinize, got %v", findings)
	}
}

// TestListFlag pins -list: every analyzer appears with its one-line
// summary, aligned into a two-column table.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	suite := analyzers.All()
	if len(lines) != len(suite) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(suite), stdout.String())
	}
	for i, a := range suite {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		if !strings.HasPrefix(lines[i], a.Name) || !strings.HasSuffix(lines[i], summary) {
			t.Errorf("-list line %d = %q, want %q ... %q", i, lines[i], a.Name, summary)
		}
	}
}

// TestHelpFlag pins -help <name>: the analyzer's full Doc string is
// printed, and an unknown name is a usage error.
func TestHelpFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-help", "nilness"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-help nilness exited %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"nilness:", "N1", "N2", "lint:ignore dprlelint/nilness"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-help nilness output lacks %q:\n%s", want, stdout.String())
		}
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-help", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-help nosuch exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("-help nosuch stderr = %q, want an unknown-analyzer error", stderr.String())
	}
}

// TestSeededNilDerefFails proves the flow-sensitive gate works end to end:
// a guaranteed nil dereference seeded into a solver path must produce a
// nilness finding (and therefore a non-zero dprlelint exit, failing CI).
func TestSeededNilDerefFails(t *testing.T) {
	loader := analysis.NewSourceLoader(filepath.Join("testdata", "src"))
	pkg, err := loader.Load("regress")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(pkg, loader.Fset, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range findings {
		if f.Analyzer == "nilness" && strings.Contains(f.Message, "provably nil dereference of m") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a nilness finding for the seeded nil dereference, got %v", findings)
	}
}

// TestSeededSQLInjectionFails proves the string-language gate works end to
// end: a sqlgen-style query assembled with fmt.Sprintf from unconstrained
// input (testdata/src/sqlregress) must produce a strlang finding carrying
// the solver's counterexample — with no //dprle:subset annotation in the
// fixture, so the detection rests entirely on the built-in sink table —
// while the digits-only sibling stays unflagged.
func TestSeededSQLInjectionFails(t *testing.T) {
	loader := analysis.NewSourceLoader(filepath.Join("testdata", "src"))
	pkg, err := loader.Load("sqlregress")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(pkg, loader.Fset, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	var strlangFindings []analysis.Finding
	for _, f := range findings {
		if f.Analyzer == "strlang" {
			strlangFindings = append(strlangFindings, f)
		}
	}
	if len(strlangFindings) != 1 {
		t.Fatalf("want exactly one strlang finding (UsersByName flagged, UsersByID clean), got %v", findings)
	}
	msg := strlangFindings[0].Message
	for _, want := range []string{"subset constraint violated", "balanced-sql-quotes", `'`} {
		if !strings.Contains(msg, want) {
			t.Errorf("strlang finding %q lacks %q", msg, want)
		}
	}
}

// TestJSONDeterminism is the byte-stability gate for the interprocedural
// suite: two full -json runs over the module must produce identical bytes.
// Call-graph SCC order, summary fixpoints, and lockset iteration all use
// maps internally; any map order leaking into findings shows up here as a
// diff between the two runs.
func TestJSONDeterminism(t *testing.T) {
	runOnce := func() string {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-json", "./..."}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("-json ./... exited %d, stderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
		}
		return stdout.String()
	}
	first := runOnce()
	second := runOnce()
	if first != second {
		t.Errorf("two -json runs differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestStatsFlag pins -stats: one row per analyzer plus a total, on stderr,
// with the interprocedural skip counter surfaced.
func TestStatsFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-stats", "./internal/solvecache"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-stats exited %d, stderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	out := stderr.String()
	for _, a := range analyzers.All() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-stats output lacks analyzer %s:\n%s", a.Name, out)
		}
	}
	for _, want := range []string{"analyzer", "findings", "wall", "total", "dynamic-calls-skipped="} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output lacks %q:\n%s", want, out)
		}
	}
}

// TestInterprocFlag pins the escape hatch: with -interproc=false the
// seeded cross-function nil flow in testdata/src/regress is invisible
// (N3 needs summaries), and with the default it is reported.
func TestInterprocFlag(t *testing.T) {
	loader := analysis.NewSourceLoader(filepath.Join("testdata", "src"))
	findingsWith := func(enabled bool) []analysis.Finding {
		t.Helper()
		defer func(prev bool) { interproc.Enabled = prev }(interproc.Enabled)
		interproc.Enabled = enabled
		pkg, err := loader.Load("regress")
		if err != nil {
			t.Fatal(err)
		}
		findings, err := analysis.Run(pkg, loader.Fset, analyzers.All())
		if err != nil {
			t.Fatal(err)
		}
		return findings
	}
	hasN3 := func(fs []analysis.Finding) bool {
		for _, f := range fs {
			if f.Analyzer == "nilness" && strings.Contains(f.Message, "panic one call deep") {
				return true
			}
		}
		return false
	}
	if !hasN3(findingsWith(true)) {
		t.Error("interproc on: expected an N3 finding for the seeded cross-function nil flow")
	}
	if hasN3(findingsWith(false)) {
		t.Error("interproc off: N3 finding reported without summaries")
	}
}

// TestExpandPatterns pins the CLI's pattern handling.
func TestExpandPatterns(t *testing.T) {
	root := repoRoot(t)
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	all, err := expandPatterns(loader, root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"dprle":                   false,
		"dprle/internal/nfa":      false,
		"dprle/cmd/dprlelint":     false,
		"dprle/internal/analysis": false,
	}
	for _, p := range all {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("pattern ./... did not match %s (got %v)", p, all)
		}
	}
	sub, err := expandPatterns(loader, root, []string{"./internal/nfa"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 || sub[0] != "dprle/internal/nfa" {
		t.Errorf("expandPatterns(./internal/nfa) = %v", sub)
	}
	tree, err := expandPatterns(loader, root, []string{"./internal/analyzers/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) < 5 {
		t.Errorf("expandPatterns(./internal/analyzers/...) = %v, want the analyzer packages", tree)
	}
}

// TestServingPackagesInScope pins the dprled serving stack into the lint
// walk: if a refactor moved these packages (or ModulePackages stopped
// seeing them), TestRepoClean would silently stop checking the solver
// invariants — budget flow, context discipline, panic contracts — on the
// very layer that runs untrusted input.
func TestServingPackagesInScope(t *testing.T) {
	loader, err := analysis.NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range paths {
		seen[p] = true
	}
	for _, want := range []string{
		"dprle/internal/server",
		"dprle/internal/server/retry",
		"dprle/cmd/dprled",
	} {
		if !seen[want] {
			t.Errorf("package %s missing from the lint scope %v", want, paths)
		}
	}
}
