// Package strlang is the string-language analysis of the dprlelint suite —
// the paper's client-analysis story (§5) turned on the repository's own
// toolchain. A forward dataflow pass abstracts every tracked string
// variable to a regular language (internal/analyzers/strfacts); at each
// sink call the analyzer forms the subset constraint L(arg) ⊆ L(contract)
// and discharges it with the repository's own decision procedure, so the
// solver under test is also the engine behind the lint findings.
package strlang

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"dprle/internal/analysis"
	"dprle/internal/analysis/dataflow"
	"dprle/internal/analyzers/interproc"
	"dprle/internal/analyzers/lintutil"
	"dprle/internal/analyzers/strfacts"
)

// Stat counter names surfaced under dprlelint -stats.
const (
	// StatSolverCalls counts subset constraints sent to the solver (memo
	// misses). Every one runs under a deadline and MaxStates/MaxSteps caps.
	StatSolverCalls = "solver-calls"
	// StatCacheHits counts constraints answered from the fingerprint memo
	// without a solve.
	StatCacheHits = "cache-hits"
	// StatWidenings counts abstract values collapsed to Σ* by a cap
	// (generation, machine size, or construction budget).
	StatWidenings = "widenings"
	// StatDischarged counts sink arguments checked (solved or memoized).
	StatDischarged = "constraints-discharged"
	// StatUnknown counts checks left undecided by a tripped solve budget;
	// undecided checks never become findings.
	StatUnknown = "solves-unknown"
	// StatFixpointSkips counts functions skipped because the dataflow
	// fixpoint failed; their sinks go unchecked (the silent direction).
	StatFixpointSkips = "fixpoint-skipped"
)

var Analyzer = &analysis.Analyzer{
	Name: "strlang",
	Doc: `prove string arguments stay inside their required languages

Each function is run through a forward abstract interpretation whose
domain is the solver's own: the value of a string variable is a regular
language. Literals are singleton languages; concatenation, += loops,
fmt.Sprintf/Sprint, strings.Join/Repeat, and strconv formatting map to
language operations; branch joins union; s == "lit" comparisons refine by
intersection along the taken edge. Loops terminate by widening: a bounded
number of language-changing joins per variable, then Σ*. Calls to
same-package helpers see through to the callee via interprocedural
string-result summaries (disable with -interproc=false).

At each sink the analyzer forms L(arg) ⊆ L(contract) and discharges it
with the repository's decision procedure: SAT on {arg ⊆ L(observed),
arg ⊆ Σ*\L(contract)} refutes the containment, and the assignment's
deterministic shortest witness becomes the reported counterexample. Every
solve runs under a deadline and state/step budget, and results are
memoized under canonical language fingerprints (see -stats: solver-calls,
cache-hits, widenings, constraints-discharged).

S1 — an argument to a built-in sink (database/sql query/exec methods,
os/exec.Command) whose language escapes the sink's contract: unbalanced
SQL quotes, shell-unsafe program names. The classic seeded instance is
fmt.Sprintf("... '%s'", v) with unconstrained v.

S2 — an argument to a same-package function annotated

	//dprle:subset <param> /<pattern>/

whose language is not contained in the pattern's. Inside the annotated
function the parameter is assumed to satisfy the contract, so forwarding
it to a compatible sink is already proven.

S3 — a malformed //dprle:subset directive (unknown parameter, non-string
parameter, bad or oversized pattern): a contract that silently fails to
parse would silently drop its call-site obligations.

Suppress with //lint:ignore dprlelint/strlang <reason>.`,
	Run: run,
}

// site is one call argument owing a contract proof.
type site struct {
	call   *ast.CallExpr
	arg    int
	c      *contract
	callee string
}

// checker carries one package run.
type checker struct {
	pass   *analysis.Pass
	dom    *strfacts.Domain
	ip     *interproc.Info
	annots annotations

	solverCalls, cacheHits, discharged, unknown, fixpointSkips int
}

func run(pass *analysis.Pass) error {
	ck := &checker{pass: pass, dom: &strfacts.Domain{}}
	defer ck.flushStats()
	if !ck.relevant() {
		return nil
	}
	ck.annots = ck.collectDirectives()
	if interproc.Enabled {
		ck.ip = interproc.Of(pass)
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					ck.checkFunc(fn, fn.Body)
				}
			case *ast.FuncLit:
				ck.checkFunc(fn, fn.Body)
			}
			return true
		})
	}
	return nil
}

// relevant gates the package: without a sink-package import or a
// //dprle:subset directive there is no obligation to discharge, and the
// package skips the dataflow machinery entirely.
func (ck *checker) relevant() bool {
	for _, file := range ck.pass.Files {
		for _, imp := range file.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && sinkImports[path] {
				return true
			}
		}
		for _, cg := range file.Comments {
			for _, cm := range cg.List {
				if strings.HasPrefix(cm.Text, directivePrefix) {
					return true
				}
			}
		}
	}
	return false
}

func (ck *checker) flushStats() {
	ck.pass.CountStat(StatSolverCalls, ck.solverCalls)
	ck.pass.CountStat(StatCacheHits, ck.cacheHits)
	ck.pass.CountStat(StatWidenings, ck.dom.Widenings)
	ck.pass.CountStat(StatDischarged, ck.discharged)
	ck.pass.CountStat(StatUnknown, ck.unknown)
	ck.pass.CountStat(StatFixpointSkips, ck.fixpointSkips)
}

// checkFunc analyzes one function body and discharges its sink sites.
func (ck *checker) checkFunc(fn ast.Node, body *ast.BlockStmt) {
	sites := ck.collectSites(body)
	if len(sites) == 0 {
		return
	}
	lat := &strfacts.Lattice{
		Info:    ck.pass.TypesInfo,
		Tracked: strfacts.TrackedStrings(ck.pass.TypesInfo, fn, body),
		Dom:     ck.dom,
		Entry:   ck.entryFor(fn),
		Model:   ck.model,
	}
	checked := map[*ast.CallExpr]bool{}
	visit := func(n ast.Node, f *strfacts.Facts) {
		// A RangeStmt node stands only for its X operand (see dataflow).
		if rng, ok := n.(*ast.RangeStmt); ok {
			n = rng.X
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false // nested literals get their own pass
			}
			call, ok := m.(*ast.CallExpr)
			if !ok || checked[call] {
				return true
			}
			checked[call] = true
			for _, s := range sites[call] {
				ck.checkSite(s, f, lat)
			}
			return true
		})
	}

	if len(lat.Tracked) == 0 {
		// No flow facts: every argument evaluates under the empty fact.
		empty := &strfacts.Facts{}
		ast.Inspect(body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if stmt, ok := m.(ast.Stmt); ok {
				visit(stmt, empty)
				return false
			}
			return true
		})
		return
	}
	g := dataflow.New(body)
	res, err := dataflow.Solve(g, lat, lat, dataflow.Forward)
	if err != nil {
		// A broken fixpoint leaves this function's sinks unchecked; the
		// skip is surfaced under -stats rather than failing the run.
		ck.fixpointSkips++
		return
	}
	dataflow.WalkForward(g, lat, lat, res, func(n ast.Node, before dataflow.Fact) {
		visit(n, before.(*strfacts.Facts))
	})
}

// collectSites finds every call in body (nested literals excluded) whose
// callee imposes a contract: a built-in sink or an annotated same-package
// function.
func (ck *checker) collectSites(body *ast.BlockStmt) map[*ast.CallExpr][]site {
	table := builtinSinks()
	var out map[*ast.CallExpr][]site
	add := func(call *ast.CallExpr, s site) {
		if out == nil {
			out = map[*ast.CallExpr][]site{}
		}
		out[call] = append(out[call], s)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := lintutil.Callee(ck.pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		if sk, ok := table[callee.FullName()]; ok {
			add(call, site{call: call, arg: sk.arg, c: sk.c, callee: callee.FullName()})
		}
		for _, pc := range ck.annots[callee] {
			add(call, site{call: call, arg: pc.arg, c: pc.c, callee: callee.Name()})
		}
		return true
	})
	return out
}

// entryFor seeds the boundary fact of an annotated function: each
// annotated parameter starts at its contract language instead of Σ*.
func (ck *checker) entryFor(fn ast.Node) map[*types.Var]strfacts.Val {
	fd, ok := fn.(*ast.FuncDecl)
	if !ok {
		return nil
	}
	fobj, _ := ck.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	pcs := ck.annots[fobj]
	if len(pcs) == 0 {
		return nil
	}
	entry := map[*types.Var]strfacts.Val{}
	for _, pc := range pcs {
		entry[pc.v] = ck.dom.FromMachine(pc.c.m)
	}
	return entry
}

// model resolves helper calls through interprocedural string-result
// summaries, so a query assembled in a same-package helper is as visible
// as one assembled inline.
func (ck *checker) model(call *ast.CallExpr, eval func(ast.Expr) strfacts.Val) (strfacts.Val, bool) {
	if ck.ip == nil {
		return strfacts.Top(), false
	}
	callee := lintutil.Callee(ck.pass.TypesInfo, call)
	if callee == nil {
		return strfacts.Top(), false
	}
	sum, ok := ck.ip.ForFunc(callee)
	if !ok || len(sum.StringResults) != 1 {
		return strfacts.Top(), false
	}
	return sum.StringResults[0], true
}

// checkSite evaluates one owed contract and reports a violation with the
// solver's counterexample.
func (ck *checker) checkSite(s site, f *strfacts.Facts, lat *strfacts.Lattice) {
	if s.arg < 0 || s.arg >= len(s.call.Args) || s.call.Ellipsis.IsValid() {
		return
	}
	arg := s.call.Args[s.arg]
	ck.discharged++
	ver := ck.discharge(lat.Eval(arg, f), s.c)
	switch {
	case !ver.known:
		ck.unknown++
	case ver.violated:
		ck.pass.Reportf(arg.Pos(),
			"subset constraint violated: argument to %s can be %q, outside %s /%s/",
			s.callee, ver.witness, s.c.name, s.c.pattern)
	}
}
