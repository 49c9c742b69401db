// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports position-anchored
// Diagnostics, optionally carrying mechanical SuggestedFixes.
//
// The repository cannot vendor x/tools (no module downloads in the build
// environment), so this package provides the same shape on the standard
// library alone: go/parser + go/types for loading (see Loader), an
// analysistest-style fixture harness (see the analysistest subpackage), and
// a multichecker driver (cmd/dprlelint). Analyzers written against this
// package keep the upstream structure — Name, Doc, Run(*Pass) — so they can
// be ported to the real framework mechanically if x/tools becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// An Analyzer is one static-analysis pass. Name is the identifier used in
// diagnostics and in //lint:ignore dprlelint/<name> suppression directives.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass presents one package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Sources maps file names (as recorded in Fset) to their raw bytes,
	// for analyzers that build suggested fixes from source text.
	Sources map[string][]byte

	report func(Diagnostic)
	stats  map[string]int
	memo   *memo // the loaded package's, or nil when the Pass was built by hand
}

// memo holds per-package results that several analyzers share. It lives on
// the loaded Package, so it is dropped together with the package.
type memo struct {
	mu   sync.Mutex
	vals map[any]any
}

// Memo returns the value compute produced for key on the package under
// analysis, calling compute only the first time any analyzer asks for key
// on that package, across Run calls. compute must depend on the package
// alone, so sharing its result cannot change findings. The result is
// released with the loaded package.
func (p *Pass) Memo(key any, compute func() any) any {
	m := p.memo
	if m == nil {
		return compute()
	}
	m.mu.Lock()
	v, ok := m.vals[key]
	m.mu.Unlock()
	if ok {
		return v
	}
	v = compute()
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.vals[key]; ok {
		return prev // a concurrent caller stored first
	}
	if m.vals == nil {
		m.vals = map[any]any{}
	}
	m.vals[key] = v
	return v
}

// Report records a diagnostic against the package under analysis.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// CountStat accumulates a named counter for this analyzer run — the channel
// through which analyzers surface the size of their deliberate
// approximations (e.g. call sites skipped for dynamic dispatch). The driver
// aggregates counters across packages and prints them under -stats.
func (p *Pass) CountStat(name string, delta int) {
	if p.stats == nil {
		p.stats = map[string]int{}
	}
	p.stats[name] += delta
}

// Reportf is a convenience wrapper for Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos            token.Pos
	End            token.Pos // optional
	Message        string
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is a mechanical rewrite that resolves a diagnostic.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces the source range [Pos, End) with NewText.
// Pos == End expresses a pure insertion.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}
