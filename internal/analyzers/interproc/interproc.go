// Package interproc computes the caller-visible function summaries the
// interprocedural analyzers (nilness, budgetflow, locksafe) consume: for
// every function in the package under analysis, what a caller can observe
// without reading the body. Summaries are computed bottom-up over the
// package-local call graph (internal/analysis/callgraph) — callees before
// callers, mutually recursive functions iterated to a fixpoint — and each
// per-function pass reuses the existing intraprocedural machinery: the
// dataflow CFG/fixpoint engine and the nilfacts lattice.
//
// The summary lattice has fixed height (a handful of booleans per
// parameter plus a lock set bounded by the locks the package mentions), so
// SCC iteration terminates by construction; the callgraph driver enforces
// the bound explicitly.
//
// Soundness caveats (see DESIGN.md §7.2): the graph is package-local, so
// calls into other packages contribute only seeded facts (a fixed list of
// known-blocking standard-library and solver entry points); dynamic
// dispatch through interfaces and unpinnable function values is skipped
// conservatively — no summary, no assumption — with the skip count
// surfaced through Pass.CountStat under -stats.
package interproc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"dprle/internal/analysis"
	"dprle/internal/analysis/callgraph"
	"dprle/internal/analysis/dataflow"
	"dprle/internal/analyzers/lintutil"
	"dprle/internal/analyzers/nilfacts"
	"dprle/internal/analyzers/strfacts"
)

// StatDynamicSkips is the Pass.CountStat counter name under which the
// number of conservatively skipped dynamic call sites is reported.
const StatDynamicSkips = "dynamic-calls-skipped"

// StatDegradedSCCs counts call-graph components whose summary fixpoint
// exceeded the lattice-height bound and was degraded to the empty summary
// (no caller-visible assumptions) rather than failing the run.
const StatDegradedSCCs = "summary-sccs-degraded"

// maxLockPathSegs caps the receiver-relative field-path depth recorded in
// RecvLocks. Deeper paths (possible only through long acyclic call chains,
// e.g. a.b.c.d.e.mu) are dropped — the no-assumption direction — keeping
// the lock-summary lattice finite regardless of how types nest.
const maxLockPathSegs = 4

// Enabled gates the interprocedural layer. When false (dprlelint
// -interproc=false), consumers fall back to their intraprocedural
// behavior: Of still works if called, but the analyzers consult this flag
// before using summaries, so a summary-layer bug can be bisected away
// without disabling the analyzers that host the findings.
var Enabled = true

// FuncSummary is one function's caller-visible abstraction. Parameter
// indices refer to the declared parameter list (receivers are deliberately
// excluded: the solver's nil-receiver contract makes nil-receiver method
// calls legal).
type FuncSummary struct {
	// DerefsParamWhenNil[i] reports that calling the function with a nil
	// i-th argument — and every other nilable argument non-nil —
	// dereferences it (field access, *p, nil-map write, or a transitive
	// call that does) on some feasible path, i.e. the call panics for a
	// nil argument on its own. Each parameter gets its own boundary solve;
	// derefs reachable only when several parameters are nil at once are
	// deliberately not recorded (a caller-side check cannot distinguish
	// them from the feasible case, so they would be false positives).
	DerefsParamWhenNil []bool
	// StoresParam[i] reports that the i-th parameter may be stored into a
	// global, a field, a container element, or a channel (directly or
	// through a transitive call) — it escapes the call.
	StoresParam []bool
	// BudgetParams[i] reports that the i-th parameter is a *budget.Budget
	// that the function threads into budgeted work (a *B budgeted variant,
	// or another budget-requiring callee): passing nil exempts that work
	// from accounting.
	BudgetParams []bool
	// MayBlock reports that the function may perform a blocking or
	// unbounded operation on the calling goroutine: channel send/receive,
	// a default-less select, ranging over a channel, or a call to a seeded
	// blocking function (budget.Check, solver entry points, io.ReadAll,
	// WaitGroup.Wait, ...). go statements are excluded (the caller does
	// not block); defer bodies are excluded from the caller's blocking
	// profile (they run at return, after the lock-discipline window the
	// consumers care about — see DESIGN.md §7.2 for the caveat).
	MayBlock bool
	// BlockReason names the first (in source order) blocking construct,
	// for diagnostics: "channel send", "select without default",
	// "call to io.ReadAll", "call to helper (may block)", ...
	BlockReason string
	// RecvLocks lists, for methods, the receiver-relative field paths of
	// sync.Mutex/RWMutex values the function may acquire (directly or via
	// same-receiver method calls): "mu", "state.mu", or "" when the
	// receiver itself is the mutex (embedded). Paths are capped at
	// maxLockPathSegs segments, and recursion through a self-referential
	// receiver chain (n.next.M() inside M) contributes nothing — both drop
	// in the no-assumption direction so the set stays finite. Sorted.
	RecvLocks []string
	// GlobalLocks lists package-level mutex variables the function may
	// acquire. Sorted by name for determinism.
	GlobalLocks []*types.Var
	// StringResults[i] is a regular language over-approximating the i-th
	// result of the function, computed with every parameter unconstrained
	// (Σ*). Only set when the signature has at least one string-typed
	// result; non-string entries — and anything the analysis cannot bound
	// — are Σ*. Consumed by the strlang analyzer to see through helper
	// calls that assemble strings.
	StringResults []strfacts.Val
}

// Info bundles the package call graph with its computed summaries.
type Info struct {
	Graph *callgraph.Graph
	// Summaries is indexed by callgraph node ID.
	Summaries []FuncSummary
	// DegradedSCCs counts components whose summary fixpoint failed to
	// converge and fell back to empty summaries (surfaced under -stats).
	DegradedSCCs int
}

// ForFunc returns the summary for a declared function or method of the
// analyzed package.
func (in *Info) ForFunc(fn *types.Func) (FuncSummary, bool) {
	n, ok := in.Graph.ByFunc[fn]
	if !ok {
		return FuncSummary{}, false
	}
	return in.Summaries[n.ID], true
}

// memoKey keys the package's Info in the analysis.Pass memo.
type memoKey struct{}

// Of computes (or returns the memoized) interprocedural info for the
// package a Pass presents. Analyzers running over the same loaded package
// share one computation, which is released together with the package; the
// result depends only on the package content, so memoization cannot change
// findings. The dynamic-dispatch skip and degraded-SCC counts are recorded
// on the calling analyzer's Pass each time, so every consumer's -stats row
// shows the approximation it ran under. Summary computation cannot fail:
// components that do not converge degrade to empty summaries instead of
// aborting the analyzers.
func Of(pass *analysis.Pass) *Info {
	in := pass.Memo(memoKey{}, func() any {
		g := callgraph.Build(pass.TypesInfo, pass.Files)
		sums, degraded := computeSummaries(pass.TypesInfo, g)
		return &Info{Graph: g, Summaries: sums, DegradedSCCs: degraded}
	}).(*Info)
	pass.CountStat(StatDynamicSkips, in.Graph.DynamicSkips)
	pass.CountStat(StatDegradedSCCs, in.DegradedSCCs)
	return in
}

// summarizer implements callgraph.Summarizer for FuncSummary.
type summarizer struct {
	info   *types.Info
	g      *callgraph.Graph
	height int
}

func computeSummaries(info *types.Info, g *callgraph.Graph) ([]FuncSummary, int) {
	// Height: per function the summary can rise once per parameter bit
	// (three bit-vectors), once for MayBlock, and once per lock path that
	// can enter a RecvLocks/GlobalLocks set. Lock paths originate at mutex
	// acquisition sites (each contributes one receiver-relative or global
	// key, possibly re-prefixed along acyclic call chains up to the
	// maxLockPathSegs cap), so the site count bounds the distinct keys
	// that can propagate within any one SCC.
	maxParams, lockSites, maxResults := 0, 0, 0
	for _, n := range g.Nodes {
		if sig := n.Type(); sig != nil {
			if sig.Params().Len() > maxParams {
				maxParams = sig.Params().Len()
			}
			if sig.Results().Len() > maxResults {
				maxResults = sig.Results().Len()
			}
		}
		for _, site := range n.Sites {
			if _, ok := MutexMethod(site.Fn); ok {
				lockSites++
			}
		}
	}
	// Each string result rises through at most 2·MaxGen+6 lattice steps
	// (one per generation and one per language at each generation) before
	// the strfacts widening pins it at Σ*.
	strHeight := maxResults * (2*strfacts.MaxGen + 6)
	s := &summarizer{info: info, g: g, height: 3*maxParams + lockSites + strHeight + len(g.Nodes) + 8}
	raw, degraded := callgraph.Summaries(g, s)
	out := make([]FuncSummary, len(raw))
	for i, r := range raw {
		out[i] = r.(FuncSummary)
	}
	return out, degraded
}

func (s *summarizer) Bottom() callgraph.Summary { return FuncSummary{} }
func (s *summarizer) Height() int               { return s.height }

func (s *summarizer) Equal(a, b callgraph.Summary) bool {
	x, y := a.(FuncSummary), b.(FuncSummary)
	if x.MayBlock != y.MayBlock || x.BlockReason != y.BlockReason {
		return false
	}
	if !eqBools(x.DerefsParamWhenNil, y.DerefsParamWhenNil) ||
		!eqBools(x.StoresParam, y.StoresParam) ||
		!eqBools(x.BudgetParams, y.BudgetParams) {
		return false
	}
	if len(x.RecvLocks) != len(y.RecvLocks) || len(x.GlobalLocks) != len(y.GlobalLocks) {
		return false
	}
	for i := range x.RecvLocks {
		if x.RecvLocks[i] != y.RecvLocks[i] {
			return false
		}
	}
	for i := range x.GlobalLocks {
		if x.GlobalLocks[i] != y.GlobalLocks[i] {
			return false
		}
	}
	return eqStringResults(x.StringResults, y.StringResults)
}

func eqBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Summarize computes one node's summary from its body and the current
// summaries of its callees.
func (s *summarizer) Summarize(n *callgraph.Node, get func(*callgraph.Node) callgraph.Summary) callgraph.Summary {
	sum := FuncSummary{}
	sig := n.Type()
	params := paramVars(sig)
	if len(params) > 0 {
		sum.DerefsParamWhenNil = make([]bool, len(params))
		sum.StoresParam = make([]bool, len(params))
		sum.BudgetParams = make([]bool, len(params))
	}
	getSum := func(node *callgraph.Node) FuncSummary { return get(node).(FuncSummary) }

	s.nilDerefParams(n, params, &sum, getSum)
	s.storesAndBudget(n, params, &sum, getSum)
	s.blocking(n, &sum, getSum)
	s.locks(n, &sum, getSum)
	s.stringResults(n, &sum, getSum)
	return sum
}

// paramVars returns the declared parameter objects of a node's signature
// (empty for function literals and parameterless functions).
func paramVars(sig *types.Signature) []*types.Var {
	if sig == nil {
		return nil
	}
	ps := sig.Params()
	out := make([]*types.Var, ps.Len())
	for i := 0; i < ps.Len(); i++ {
		out[i] = ps.At(i)
	}
	return out
}

// paramIndex resolves a bare identifier argument to a parameter index of
// the enclosing node, or -1.
func paramIndex(info *types.Info, params []*types.Var, e ast.Expr) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		return -1
	}
	for i, p := range params {
		if p == v {
			return i
		}
	}
	return -1
}

// nilable mirrors the nilness analyzer's type filter.
func nilable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map:
		return true
	case *types.Interface:
		return types.Identical(t, types.Universe.Lookup("error").Type())
	}
	return false
}

// boundaryLattice wraps the nilfacts lattice with a custom entry fact:
// every analyzed parameter starts provably nil, so any deref the fixpoint
// reaches with the fact still Nil is a deref a nil-passing caller triggers.
type boundaryLattice struct {
	*nilfacts.Lattice
	entry *nilfacts.Facts
}

func (b boundaryLattice) Boundary() dataflow.Fact { return b.entry }

// nilDerefParams fills DerefsParamWhenNil with one boundary solve per
// tracked parameter: that parameter enters provably nil, every other
// tracked parameter enters non-nil, and a dereference (or transitive
// nil-derefing call) reached while the fact is still Nil marks the bit.
// Seeding the parameters one at a time keeps the summary faithful to its
// per-parameter meaning: a deref guarded by another parameter's nil check
// (`if a == nil { return *b }`) is feasible only when both are nil at
// once, so it must not mark b — a caller passing a provably non-nil a
// cannot trip it. Co-nil panics are deliberately under-reported.
func (s *summarizer) nilDerefParams(n *callgraph.Node, params []*types.Var, sum *FuncSummary, getSum func(*callgraph.Node) FuncSummary) {
	if len(params) == 0 {
		return
	}
	fnNode := ast.Node(n.Decl)
	if n.Lit != nil {
		fnNode = n.Lit
	}
	tracked := nilfacts.TrackedVars(s.info, fnNode, n.Body(), nilable)
	var trackedParams []*types.Var
	for _, p := range params {
		if tracked[p] {
			trackedParams = append(trackedParams, p)
		}
	}
	if len(trackedParams) == 0 {
		return
	}
	lat := &nilfacts.Lattice{Info: s.info, Tracked: tracked}
	g := dataflow.New(n.Body())
	// Map call sites to callee nodes for the transitive check.
	siteCallee := map[*ast.CallExpr]*callgraph.Node{}
	for _, site := range n.Sites {
		if site.Callee != nil && site.Mode == callgraph.Call {
			siteCallee[site.Call] = site.Callee
		}
	}
	for _, p := range trackedParams {
		s.nilDerefOneParam(n, p, params, trackedParams, lat, g, sum, siteCallee, getSum)
	}
}

// nilDerefOneParam runs the boundary solve for a single nil-seeded
// parameter p and marks its DerefsParamWhenNil bit.
func (s *summarizer) nilDerefOneParam(n *callgraph.Node, p *types.Var, params, trackedParams []*types.Var, lat *nilfacts.Lattice, g *dataflow.CFG, sum *FuncSummary, siteCallee map[*ast.CallExpr]*callgraph.Node, getSum func(*callgraph.Node) FuncSummary) {
	entry := map[*types.Var]nilfacts.Val{p: nilfacts.Nil}
	for _, q := range trackedParams {
		if q != p {
			entry[q] = nilfacts.NonNil
		}
	}
	blat := boundaryLattice{Lattice: lat, entry: &nilfacts.Facts{Vals: entry}}
	res, err := dataflow.Solve(g, blat, lat, dataflow.Forward)
	if err != nil {
		// A broken fixpoint leaves the summary empty — the conservative
		// direction (no assumption about the callee).
		return
	}
	mark := func() {
		for i, pp := range params {
			if pp == p {
				sum.DerefsParamWhenNil[i] = true
			}
		}
	}
	// stillNil reports whether e names p while the fact is still Nil.
	stillNil := func(e ast.Expr, f *nilfacts.Facts) bool {
		v := usedVar(s.info, e)
		return v == p && f.Get(v) == nilfacts.Nil
	}
	dataflow.WalkForward(g, blat, lat, res, func(node ast.Node, before dataflow.Fact) {
		f := before.(*nilfacts.Facts)
		if rng, ok := node.(*ast.RangeStmt); ok {
			node = rng.X
		}
		// Nil-map writes through the parameter.
		if as, ok := node.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && stillNil(ix.X, f) {
					if _, isMap := p.Type().Underlying().(*types.Map); isMap {
						mark()
					}
				}
			}
		}
		ast.Inspect(node, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.StarExpr:
				if stillNil(m.X, f) {
					mark()
				}
			case *ast.SelectorExpr:
				sel, ok := s.info.Selections[m]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				if stillNil(m.X, f) {
					if _, isPtr := p.Type().Underlying().(*types.Pointer); isPtr {
						mark()
					}
				}
			case *ast.CallExpr:
				callee, ok := siteCallee[m]
				if !ok {
					return true
				}
				cs := getSum(callee)
				for j, arg := range m.Args {
					if j >= len(cs.DerefsParamWhenNil) || !cs.DerefsParamWhenNil[j] {
						continue
					}
					if stillNil(arg, f) {
						mark()
					}
				}
			}
			return true
		})
	})
}

func usedVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// storesAndBudget fills StoresParam and BudgetParams with a syntactic scan:
// direct stores/threads plus one transitive hop per fixpoint round through
// in-package callees.
func (s *summarizer) storesAndBudget(n *callgraph.Node, params []*types.Var, sum *FuncSummary, getSum func(*callgraph.Node) FuncSummary) {
	if len(params) == 0 {
		return
	}
	markStore := func(e ast.Expr) {
		if i := paramIndex(s.info, params, e); i >= 0 {
			sum.StoresParam[i] = true
		}
	}
	ast.Inspect(n.Body(), func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				if i >= len(m.Rhs) {
					break
				}
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					markStore(m.Rhs[i])
				case *ast.Ident:
					// A store to a package-level variable escapes too.
					id := ast.Unparen(lhs).(*ast.Ident)
					if v, ok := s.info.Uses[id].(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
						markStore(m.Rhs[i])
					}
				}
			}
		case *ast.SendStmt:
			markStore(m.Value)
		case *ast.CompositeLit:
			for _, el := range m.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					markStore(kv.Value)
				} else {
					markStore(el)
				}
			}
		}
		return true
	})

	for _, site := range n.Sites {
		// Budget threading: an argument that is a budget-typed parameter
		// passed into budgeted work, or used directly as the checkpoint
		// receiver (bud.Check(...) — the canonical *B variant body).
		if budgetCheckpoint(site.Fn) {
			if sel, ok := ast.Unparen(site.Call.Fun).(*ast.SelectorExpr); ok {
				if i := paramIndex(s.info, params, sel.X); i >= 0 && lintutil.IsBudgetPtr(params[i].Type()) {
					sum.BudgetParams[i] = true
				}
			}
		}
		var calleeSum FuncSummary
		if site.Callee != nil {
			calleeSum = getSum(site.Callee)
		}
		for j, arg := range site.Call.Args {
			i := paramIndex(s.info, params, arg)
			if i < 0 {
				continue
			}
			if j < len(calleeSum.StoresParam) && calleeSum.StoresParam[j] {
				sum.StoresParam[i] = true
			}
			if lintutil.IsBudgetPtr(params[i].Type()) {
				if site.Fn != nil && lintutil.IsBudgetedVariant(site.Fn) && j == 0 {
					sum.BudgetParams[i] = true
				}
				if j < len(calleeSum.BudgetParams) && calleeSum.BudgetParams[j] {
					sum.BudgetParams[i] = true
				}
			}
		}
	}
}

// budgetCheckpoint reports whether fn is the budget package's
// Check/Preflight accounting entry point.
func budgetCheckpoint(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	pkg := fn.Pkg().Path()
	base := pkg[strings.LastIndex(pkg, "/")+1:]
	return base == "budget" && (fn.Name() == "Check" || fn.Name() == "Preflight")
}

// blockSeeds recognizes known-blocking (or unbounded-work) functions
// outside the package: the budget checkpoint, solver entry points, body
// reads, and the standard library's obvious parking calls.
func BlockSeed(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	pkg := fn.Pkg().Path()
	base := pkg[strings.LastIndex(pkg, "/")+1:]
	name := fn.Name()
	switch {
	case base == "budget" && (name == "Check" || name == "Preflight"):
		return "call to budget checkpoint " + name, true
	case (base == "core" || base == "dprle") &&
		(strings.HasPrefix(name, "Solve") || strings.HasPrefix(name, "Decide")):
		return "call to solver entry point " + name, true
	case pkg == "io" && (name == "ReadAll" || name == "Copy" || name == "ReadFull"):
		return "call to io." + name, true
	case pkg == "time" && name == "Sleep":
		return "call to time.Sleep", true
	case pkg == "sync" && name == "Wait": // (*WaitGroup).Wait, (*Cond).Wait
		return "call to sync wait", true
	case pkg == "net/http" && (name == "Do" || name == "Get" || name == "Post" || name == "PostForm"):
		return "call to net/http " + name, true
	}
	return "", false
}

// blocking fills MayBlock/BlockReason: direct channel operations and
// default-less selects in this body, seeded external calls, and transitive
// blocking through ordinary in-package calls (go/defer excluded — a go
// statement does not block the caller, and deferred work runs at return).
func (s *summarizer) blocking(n *callgraph.Node, sum *FuncSummary, getSum func(*callgraph.Node) FuncSummary) {
	if reason, ok := directBlocker(s.info, n.Body()); ok {
		sum.MayBlock, sum.BlockReason = true, reason
		return
	}
	for _, site := range n.Sites {
		if site.Mode != callgraph.Call {
			continue
		}
		if reason, ok := BlockSeed(site.Fn); ok {
			sum.MayBlock, sum.BlockReason = true, reason
			return
		}
		if site.Callee != nil {
			if cs := getSum(site.Callee); cs.MayBlock {
				sum.MayBlock = true
				sum.BlockReason = "call to " + site.Callee.Name() + " (" + cs.BlockReason + ")"
				return
			}
		}
	}
}

// directBlocker scans one body (excluding nested literals) for channel
// operations that can park the goroutine. Comm clauses of a select that has
// a default case are non-blocking; a select without a default blocks.
func directBlocker(info *types.Info, body *ast.BlockStmt) (string, bool) {
	nonBlockingComm := map[ast.Node]bool{}
	reason, found := "", false
	ast.Inspect(body, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range m.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				reason, found = "select without default", true
				return false
			}
			for _, c := range m.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					nonBlockingComm[cc.Comm] = true
				}
			}
		case *ast.SendStmt:
			if !nonBlockingComm[m] {
				reason, found = "channel send", true
				return false
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && !insideNonBlockingComm(m, nonBlockingComm) {
				reason, found = "channel receive", true
				return false
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[m.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					reason, found = "range over channel", true
					return false
				}
			}
		}
		return true
	})
	return reason, found
}

// insideNonBlockingComm reports whether a receive expression is (part of)
// the comm statement of a select clause already marked non-blocking. The
// AST walk visits selects before their clause bodies, so the map is
// populated by the time the receive is reached; a receive nested deeper in
// the clause body is a plain blocking receive.
func insideNonBlockingComm(recv *ast.UnaryExpr, nonBlocking map[ast.Node]bool) bool {
	for comm := range nonBlocking {
		if comm.Pos() <= recv.Pos() && recv.End() <= comm.End() {
			return true
		}
	}
	return false
}

// mutexMethod recognizes calls to (*sync.Mutex)/(*sync.RWMutex)
// Lock/RLock/Unlock/RUnlock, returning the method name.
func MutexMethod(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	name := named.Obj().Name()
	if name != "Mutex" && name != "RWMutex" {
		return "", false
	}
	return fn.Name(), true
}

// LockTarget resolves the receiver chain of a mutex-method call to its
// root: either a variable (local, parameter, or method receiver) plus the
// field path from it to the mutex, or a package-level mutex variable. The
// empty path means the variable itself is (or embeds) the mutex.
func LockTarget(info *types.Info, call *ast.CallExpr) (base *types.Var, path string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	var parts []string
	e := ast.Expr(sel.X)
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			if v == nil {
				return nil, "", false
			}
			// Reverse the collected parts into a dotted path.
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return v, strings.Join(parts, "."), true
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, "", false
		}
	}
}

// locks fills RecvLocks/GlobalLocks: direct Lock/RLock acquisitions rooted
// at the receiver or at package-level variables, plus one transitive hop
// through same-receiver method calls (r.helper() adds helper's receiver
// locks; r.sub.Method() adds them under "sub."). go/defer sites are
// excluded: a go'd acquisition happens on another goroutine, and deferred
// ones happen after return.
func (s *summarizer) locks(n *callgraph.Node, sum *FuncSummary, getSum func(*callgraph.Node) FuncSummary) {
	recv := recvVar(s.info, n)
	recvSet := map[string]bool{}
	globalSet := map[*types.Var]bool{}

	for _, site := range n.Sites {
		if site.Mode != callgraph.Call {
			continue
		}
		if m, ok := MutexMethod(site.Fn); ok && (m == "Lock" || m == "RLock") {
			base, path, ok := LockTarget(s.info, site.Call)
			if !ok {
				continue
			}
			if recv != nil && base == recv {
				recvSet[path] = true
			} else if base.Parent() != nil && base.Pkg() != nil && base.Parent() == base.Pkg().Scope() {
				globalSet[base] = true
			}
			continue
		}
		// Transitive: a method call whose receiver chain roots at our own
		// receiver pulls in that method's receiver-relative locks,
		// prefixed by the chain; any call pulls in global locks.
		if site.Callee == nil {
			continue
		}
		cs := getSum(site.Callee)
		for _, gv := range cs.GlobalLocks {
			globalSet[gv] = true
		}
		if recv != nil && len(cs.RecvLocks) > 0 {
			if base, path, ok := LockTarget(s.info, site.Call); ok && base == recv {
				if path != "" && s.g.SameSCC(n, site.Callee) {
					// Recursion through a self-referential receiver chain
					// (n.next.M() inside M, or mutually recursive methods
					// walking linked nodes): re-prefixing the callee's
					// paths every fixpoint round would grow them without
					// bound ("mu", "next.mu", "next.next.mu", ...). The
					// locks live on other list nodes, not on this
					// receiver, so dropping the contribution is the
					// no-assumption direction. Same-receiver recursion
					// (path == "") merges unprefixed and cannot grow.
					continue
				}
				for _, lp := range cs.RecvLocks {
					full := lp
					if path != "" {
						if full == "" {
							full = path
						} else {
							full = path + "." + full
						}
					}
					if pathSegs(full) > maxLockPathSegs {
						continue
					}
					recvSet[full] = true
				}
			}
		}
	}

	sum.RecvLocks = sortedKeys(recvSet)
	if len(globalSet) > 0 {
		gvs := make([]*types.Var, 0, len(globalSet))
		for v := range globalSet {
			gvs = append(gvs, v)
		}
		sort.Slice(gvs, func(i, j int) bool {
			if gvs[i].Name() != gvs[j].Name() {
				return gvs[i].Name() < gvs[j].Name()
			}
			return gvs[i].Pos() < gvs[j].Pos()
		})
		sum.GlobalLocks = gvs
	}
}

// pathSegs counts the dotted segments of a receiver-relative lock path
// ("" → 0, "mu" → 1, "state.mu" → 2).
func pathSegs(p string) int {
	if p == "" {
		return 0
	}
	return strings.Count(p, ".") + 1
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// recvVar returns the receiver variable of a method node, nil otherwise.
func recvVar(info *types.Info, n *callgraph.Node) *types.Var {
	if n.Decl == nil || n.Decl.Recv == nil || len(n.Decl.Recv.List) == 0 {
		return nil
	}
	names := n.Decl.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	v, _ := info.Defs[names[0]].(*types.Var)
	return v
}
