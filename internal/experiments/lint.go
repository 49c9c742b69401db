package experiments

// The lint experiment: run the dprlelint suite over the module's own
// packages and drill the strlang analyzer over its fixture corpus,
// reporting per-analyzer wall time plus the approximation and solver
// counters (solver calls, cache hits, widenings, constraints discharged).
// cmd/benchtab renders the report with -table lint and emits it
// machine-readably as BENCH_lint.json, so CI can both time-bound the lint
// pass and check the solver-backed analysis actually exercised its cache
// and budget paths.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dprle/internal/analysis"
	"dprle/internal/analyzers"
	"dprle/internal/analyzers/strlang"
)

// strlangFixtureDir is the fixture corpus the drill loads, relative to the
// module root.
const strlangFixtureDir = "internal/analyzers/strlang/testdata/src"

// LintRow is one analyzer's aggregate over every package analyzed.
type LintRow struct {
	Analyzer string         `json:"analyzer"`
	Findings int            `json:"findings"`
	WallNS   int64          `json:"wall_ns"`
	Counters map[string]int `json:"counters,omitempty"`
}

// LintReport is the measured outcome of the lint experiment.
type LintReport struct {
	// Packages is the number of module packages analyzed; RepoFindings the
	// findings the suite reported on them (0 for a clean tree).
	Packages     int `json:"packages"`
	RepoFindings int `json:"repo_findings"`
	// FixturePackages is the number of strlang fixture packages drilled;
	// FixtureFindings the strlang findings on them (the seeded defects).
	FixturePackages int `json:"fixture_packages"`
	FixtureFindings int `json:"fixture_findings"`
	// Rows aggregates per analyzer (repo and fixture passes combined),
	// sorted by name.
	Rows []LintRow `json:"rows"`
	// TotalWallNS is the summed analyzer wall time across all passes.
	TotalWallNS int64 `json:"total_wall_ns"`
	// SolverCalls/CacheHits/Widenings/Discharged surface the strlang
	// counters CI asserts on: every discharge is either a budgeted solver
	// call or a fingerprint-memo hit, so SolverCalls+CacheHits must
	// equal Discharged.
	SolverCalls int `json:"solver_calls"`
	CacheHits   int `json:"cache_hits"`
	Widenings   int `json:"widenings"`
	Discharged  int `json:"discharged"`
}

// LintExperiment runs the full suite over the module rooted at root, then
// drills strlang over its fixture corpus so the solver-backed counters are
// exercised even on a clean tree.
func LintExperiment(root string) (*LintReport, error) {
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	suite := analyzers.All()
	agg := map[string]analysis.AnalyzerStats{}
	rep := &LintReport{}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		findings, stats, err := analysis.RunStats(pkg, loader.Fset, suite)
		if err != nil {
			return nil, fmt.Errorf("analyzing %s: %w", path, err)
		}
		rep.Packages++
		rep.RepoFindings += len(findings)
		for name, st := range stats {
			cur := agg[name]
			cur.Merge(st)
			agg[name] = cur
		}
	}

	fixtures, err := strlangFixtures(root)
	if err != nil {
		return nil, err
	}
	fixLoader := analysis.NewSourceLoader(filepath.Join(root, strlangFixtureDir))
	for _, name := range fixtures {
		pkg, err := fixLoader.Load(name)
		if err != nil {
			return nil, fmt.Errorf("loading fixture %s: %w", name, err)
		}
		findings, stats, err := analysis.RunStats(pkg, fixLoader.Fset, []*analysis.Analyzer{strlang.Analyzer})
		if err != nil {
			return nil, fmt.Errorf("analyzing fixture %s: %w", name, err)
		}
		rep.FixturePackages++
		rep.FixtureFindings += len(findings)
		cur := agg[strlang.Analyzer.Name]
		cur.Merge(stats[strlang.Analyzer.Name])
		agg[strlang.Analyzer.Name] = cur
	}

	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := agg[name]
		rep.Rows = append(rep.Rows, LintRow{
			Analyzer: name,
			Findings: st.Findings,
			WallNS:   st.Wall.Nanoseconds(),
			Counters: st.Counters,
		})
		rep.TotalWallNS += st.Wall.Nanoseconds()
	}
	sc := agg[strlang.Analyzer.Name].Counters
	rep.SolverCalls = sc[strlang.StatSolverCalls]
	rep.CacheHits = sc[strlang.StatCacheHits]
	rep.Widenings = sc[strlang.StatWidenings]
	rep.Discharged = sc[strlang.StatDischarged]
	return rep, nil
}

// strlangFixtures lists the fixture packages under the strlang corpus in
// sorted order.
func strlangFixtures(root string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(root, strlangFixtureDir))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// FormatLint renders the report as a text table.
func FormatLint(rep *LintReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lint experiment: %d module packages (%d findings), %d strlang fixtures (%d findings)\n",
		rep.Packages, rep.RepoFindings, rep.FixturePackages, rep.FixtureFindings)
	fmt.Fprintf(&b, "%-14s %9s %10s  %s\n", "analyzer", "findings", "wall", "counters")
	for _, row := range rep.Rows {
		keys := make([]string, 0, len(row.Counters))
		for k := range row.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", k, row.Counters[k]))
		}
		fmt.Fprintf(&b, "%-14s %9d %10s  %s\n", row.Analyzer, row.Findings,
			time.Duration(row.WallNS).Round(time.Millisecond), strings.Join(parts, " "))
	}
	fmt.Fprintf(&b, "total wall %s; strlang: %d discharged = %d solver calls + %d cache hits, %d widenings",
		time.Duration(rep.TotalWallNS).Round(time.Millisecond),
		rep.Discharged, rep.SolverCalls, rep.CacheHits, rep.Widenings)
	return b.String()
}
