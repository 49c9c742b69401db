package analysis

import (
	"fmt"
	"go/format"
	"go/token"
	"sort"
	"strings"
	"time"
)

// A Finding is a Diagnostic resolved to concrete file positions and tagged
// with the analyzer that produced it, ready for printing or JSON encoding.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	End      token.Position `json:"end,omitempty"`
	Message  string         `json:"message"`

	// Fixes carries the raw suggested fixes (token.Pos-based) for -fix.
	Fixes []SuggestedFix `json:"-"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (dprlelint/%s)", f.Pos, f.Message, f.Analyzer)
}

// AnalyzerStats aggregates one analyzer's bookkeeping across packages:
// surviving findings, wall time, and any approximation counters the
// analyzer recorded through Pass.CountStat.
type AnalyzerStats struct {
	Findings int
	Wall     time.Duration
	Counters map[string]int
}

// Merge folds another stats record into s.
func (s *AnalyzerStats) Merge(o AnalyzerStats) {
	s.Findings += o.Findings
	s.Wall += o.Wall
	for k, v := range o.Counters {
		if s.Counters == nil {
			s.Counters = map[string]int{}
		}
		s.Counters[k] += v
	}
}

// Run applies each analyzer to the package and returns the surviving
// findings, sorted by position. Diagnostics suppressed by a
// //lint:ignore dprlelint/<name> directive (see ignores) are dropped.
func Run(pkg *Package, fset *token.FileSet, analyzers []*Analyzer) ([]Finding, error) {
	out, _, err := RunStats(pkg, fset, analyzers)
	return out, err
}

// RunStats is Run plus per-analyzer statistics (findings, wall time,
// CountStat counters), keyed by analyzer name.
func RunStats(pkg *Package, fset *token.FileSet, analyzers []*Analyzer) ([]Finding, map[string]AnalyzerStats, error) {
	ign := collectIgnores(pkg, fset)
	var out []Finding
	stats := map[string]AnalyzerStats{}
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Sources:   pkg.Sources,
			report:    func(d Diagnostic) { diags = append(diags, d) },
			memo:      &pkg.memo,
		}
		begin := time.Now()
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
		st := AnalyzerStats{Wall: time.Since(begin), Counters: pass.stats}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			if ign.suppressed(a.Name, pos) {
				continue
			}
			f := Finding{Analyzer: a.Name, Pos: pos, Message: d.Message, Fixes: d.SuggestedFixes}
			if d.End.IsValid() {
				f.End = fset.Position(d.End)
			}
			out = append(out, f)
			st.Findings++
		}
		stats[a.Name] = st
	}
	SortFindings(out)
	return out, stats, nil
}

// SortFindings orders findings by file, line, column, then analyzer name —
// the canonical order for human and -json output. Sorting the combined
// findings of several packages through this single comparator keeps CI
// output byte-stable regardless of package load order.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignores records //lint:ignore directives by file, line, and analyzer name.
//
// The directive grammar is:
//
//	//lint:ignore dprlelint/<name> <reason>
//
// placed either on the flagged line or on the line immediately above it.
// The reason is mandatory: a directive without one is inert, so every
// suppression in the tree documents why the invariant does not apply.
type ignores map[string]map[int]map[string]bool // file → line → analyzer → ok

const ignorePrefix = "lint:ignore dprlelint/"

func collectIgnores(pkg *Package, fset *token.FileSet) ignores {
	ign := ignores{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), ignorePrefix)
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(rest, " ")
				if name == "" || strings.TrimSpace(reason) == "" {
					continue // no reason: directive is inert by design
				}
				pos := fset.Position(c.Pos())
				if ign[pos.Filename] == nil {
					ign[pos.Filename] = map[int]map[string]bool{}
				}
				if ign[pos.Filename][pos.Line] == nil {
					ign[pos.Filename][pos.Line] = map[string]bool{}
				}
				ign[pos.Filename][pos.Line][name] = true
			}
		}
	}
	return ign
}

func (ign ignores) suppressed(analyzer string, pos token.Position) bool {
	lines := ign[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][analyzer] || lines[pos.Line-1][analyzer]
}

// ApplyFixes applies every suggested fix of the findings to the given
// sources (file name → content) and returns the rewritten, gofmt-formatted
// files. Overlapping edits are an error.
func ApplyFixes(fset *token.FileSet, sources map[string][]byte, findings []Finding) (map[string][]byte, error) {
	type edit struct {
		start, end int
		text       []byte
	}
	perFile := map[string][]edit{}
	for _, f := range findings {
		for _, fix := range f.Fixes {
			for _, te := range fix.TextEdits {
				p := fset.Position(te.Pos)
				end := p.Offset
				if te.End.IsValid() {
					end = fset.Position(te.End).Offset
				}
				perFile[p.Filename] = append(perFile[p.Filename], edit{p.Offset, end, te.NewText})
			}
		}
	}
	out := map[string][]byte{}
	names := make([]string, 0, len(perFile))
	for name := range perFile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		edits := perFile[name]
		src, ok := sources[name]
		if !ok {
			return nil, fmt.Errorf("analysis: no source for %s", name)
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].start < edits[j].start })
		var buf []byte
		last := 0
		for _, e := range edits {
			if e.start < last {
				return nil, fmt.Errorf("analysis: overlapping fixes in %s", name)
			}
			buf = append(buf, src[last:e.start]...)
			buf = append(buf, e.text...)
			last = e.end
		}
		buf = append(buf, src[last:]...)
		formatted, err := format.Source(buf)
		if err != nil {
			return nil, fmt.Errorf("analysis: fixed %s does not parse: %w", name, err)
		}
		out[name] = formatted
	}
	return out, nil
}
