// Package budgetflow enforces the solver's resource-budget discipline
// path-sensitively: instead of asking "does this budget-threaded function
// ever call an un-budgeted construction", it asks "on which paths". The
// dataflow engine tracks the nilness of every *budget.Budget variable in
// scope, so the analyzer can tell the legitimate degradation branch
// (`if bud == nil { ... }` — the budget is provably absent) from the bug
// the suite exists to catch: a budget threaded on the happy path but
// dropped on an error or early-return path. It also checks that the error
// of a budgeted call is used, and that goroutines and callees keep the
// caller's budget and context.
package budgetflow

import (
	"go/ast"
	"go/types"
	"sort"

	"dprle/internal/analysis"
	"dprle/internal/analysis/dataflow"
	"dprle/internal/analyzers/interproc"
	"dprle/internal/analyzers/lintutil"
	"dprle/internal/analyzers/nilfacts"
)

var Analyzer = &analysis.Analyzer{
	Name: "budgetflow",
	Doc: `flag paths where a live budget or context is dropped

A budget is live at a point when some *budget.Budget in scope may be
non-nil there: a parameter or local (tracked path-sensitively by a forward
dataflow analysis), a variable the analysis cannot track (captured by a
closure, address-taken, or declared in an enclosing function), or a budget
field of the method's receiver (the solver's gciSolver / maximizer
pattern). Under "if bud == nil" a tracked budget is provably absent.

F1 — a call to a *B budgeted variant passing a nil budget (the literal, or
a variable that is provably nil on this path) while a budget is live: the
construction runs unaccounted on exactly this path, typically an error or
early-return branch that was wired up in a hurry.

F2 — a call to an un-budgeted construction that has a *B sibling while a
budget is live. Calling the un-budgeted form silently re-opens the
worst-case-exponential constructions (determinization, products) the
budget exists to bound.

F3 (interprocedural, disable with -interproc=false) — a nil budget handed
to a same-package function whose summary threads that parameter into
budgeted work (a *B variant or a budget checkpoint, possibly several calls
deep): the accounting chain is severed at this call boundary even though a
live budget is in scope. Summaries come from internal/analyzers/interproc.

R2 — the error result of a *B call must be used. Discarding it (via _, a
bare expression statement, go, or defer) is flagged unless the budget
argument is the literal nil: a nil *budget.Budget is inert by contract
(every method returns nil immediately), so a nil-budget call cannot fail.

C1 — a go statement while a budget is live must reference the budget
(directly, or through a value that carries a budget field). The solver
fans out per CI-group; a worker that does not see the budget performs
unbounded, uncancellable automaton constructions.

C2 — a function that takes a context.Context must not call
context.Background() or context.TODO(): doing so disconnects the work it
starts from the caller's deadline and cancellation. The nil-default idiom
is permitted: assigning context.Background() to the context parameter
itself (if ctx == nil { ctx = context.Background() }).

Suppress with //lint:ignore dprlelint/budgetflow <reason>.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	var ip *interproc.Info
	if interproc.Enabled {
		ip = interproc.Of(pass)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if err := checkDecl(pass, ip, decl); err != nil {
				return err
			}
		}
		checkDiscardedErrors(pass, file)
	}
	return nil
}

// scope describes the budgets one top-level declaration can see: every
// *budget.Budget variable it declares, and the receiver's budget field.
type scope struct {
	decl *ast.FuncDecl // nil for declarations other than functions
	vars []*types.Var  // sorted by position
	recv string        // "s.bud" when the receiver carries a budget field
}

// funcName names the declaration for messages.
func (sc *scope) funcName() string {
	if sc.decl == nil {
		return "func literal"
	}
	return sc.decl.Name.Name
}

func checkDecl(pass *analysis.Pass, ip *interproc.Info, decl ast.Decl) error {
	sc := declScope(pass.TypesInfo, decl)
	if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && hasContextParam(pass.TypesInfo, fn) {
		checkContextDropped(pass, fn)
	}
	if len(sc.vars) == 0 && sc.recv == "" {
		return nil // no budget anywhere in reach
	}
	var err error
	ast.Inspect(decl, func(n ast.Node) bool {
		if err != nil {
			return false
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				err = checkFunc(pass, ip, sc, fn, fn.Body)
			}
		case *ast.FuncLit:
			err = checkFunc(pass, ip, sc, fn, fn.Body)
		}
		return true
	})
	return err
}

func declScope(info *types.Info, decl ast.Decl) *scope {
	sc := &scope{}
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok && !v.IsField() && lintutil.IsBudgetPtr(v.Type()) {
				sc.vars = append(sc.vars, v)
			}
		}
		return true
	})
	sort.Slice(sc.vars, func(i, j int) bool { return sc.vars[i].Pos() < sc.vars[j].Pos() })
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return sc
	}
	sc.decl = fn
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return sc
	}
	name := fn.Recv.List[0].Names[0]
	rv, ok := info.Defs[name].(*types.Var)
	if !ok || name.Name == "_" {
		return sc
	}
	if field := lintutil.BudgetField(rv.Type()); field != "" {
		sc.recv = name.Name + "." + field
	}
	return sc
}

func checkFunc(pass *analysis.Pass, ip *interproc.Info, sc *scope, fn ast.Node, body *ast.BlockStmt) error {
	tracked := nilfacts.TrackedVars(pass.TypesInfo, fn, body, lintutil.IsBudgetPtr)
	lat := &nilfacts.Lattice{Info: pass.TypesInfo, Tracked: tracked}
	g := dataflow.New(body)
	res, err := dataflow.Solve(g, lat, lat, dataflow.Forward)
	if err != nil {
		return err
	}
	reported := map[ast.Node]bool{}
	dataflow.WalkForward(g, lat, lat, res, func(n ast.Node, before dataflow.Fact) {
		checkNode(pass, ip, sc, lat, n, before.(*nilfacts.Facts), reported)
	})
	return nil
}

// liveBudget names a budget that may be non-nil at n (the earliest
// declared, for deterministic messages), or returns "" when every budget
// in scope there is provably nil. A variable counts while it is lexically
// in scope; a tracked one only when its fact is not Nil.
func liveBudget(sc *scope, lat *nilfacts.Lattice, f *nilfacts.Facts, n ast.Node) string {
	for _, v := range sc.vars {
		if v.Pos() >= n.Pos() || v.Parent() == nil || !v.Parent().Contains(n.Pos()) {
			continue
		}
		if !lat.Tracked[v] || f.Get(v) != nilfacts.Nil {
			return v.Name()
		}
	}
	return sc.recv
}

func checkNode(pass *analysis.Pass, ip *interproc.Info, sc *scope, lat *nilfacts.Lattice, n ast.Node, f *nilfacts.Facts, reported map[ast.Node]bool) {
	if rng, ok := n.(*ast.RangeStmt); ok {
		n = rng.X
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // has its own CFG and its own budget scope
		case *ast.GoStmt:
			// C1: a worker that cannot see the live budget.
			if live := liveBudget(sc, lat, f, m); live != "" && !referencesBudget(pass.TypesInfo, m.Call) {
				pass.Reportf(m.Pos(),
					"goroutine spawned in budget-threaded function %s does not reference the budget; its work is unaccounted and uncancellable",
					sc.funcName())
			}
			return true
		case *ast.CallExpr:
			if !reported[m] {
				checkCall(pass, ip, sc, lat, m, f, reported)
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, ip *interproc.Info, sc *scope, lat *nilfacts.Lattice, call *ast.CallExpr, f *nilfacts.Facts, reported map[ast.Node]bool) {
	callee := lintutil.Callee(pass.TypesInfo, call)
	if callee == nil {
		return
	}
	live := liveBudget(sc, lat, f, call)
	if live == "" {
		return // every budget in scope is provably nil: degradation path
	}
	switch {
	case lintutil.IsBudgetedVariant(callee) && len(call.Args) > 0:
		// F1: nil budget argument while a budget may be live.
		if lat.Eval(call.Args[0], f) == nilfacts.Nil {
			reported[call] = true
			pass.Reportf(call.Pos(),
				"budget dropped on this path: %s is called with a nil budget while %s may be live; thread %s through (or guard this path with %s == nil)",
				callee.Name(), live, live, live)
		}
	case lintutil.BudgetedSibling(callee) != nil:
		// F2: un-budgeted construction while a budget may be live.
		sib := lintutil.BudgetedSibling(callee)
		reported[call] = true
		pass.Reportf(call.Pos(),
			"un-budgeted %s reached on a path where %s may be live; use %s and pass %s",
			callee.Name(), live, sib.Name(), live)
	default:
		// F3: nil handed to a summary-known budget-threading callee.
		if ip == nil {
			return
		}
		sum, ok := ip.ForFunc(callee)
		if !ok {
			return
		}
		for j, arg := range call.Args {
			if j >= len(sum.BudgetParams) || !sum.BudgetParams[j] {
				continue
			}
			if lat.Eval(arg, f) == nilfacts.Nil {
				reported[call] = true
				pass.Reportf(call.Pos(),
					"budget dropped at call boundary: %s threads its budget into budgeted work but receives nil here while %s may be live; pass %s",
					callee.Name(), live, live)
				return
			}
		}
	}
}

// referencesBudget reports whether any expression in the spawned call —
// the callee, its arguments, or a func literal's body — evaluates to a
// value that gives access to a budget.
func referencesBudget(info *types.Info, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || found {
			return !found
		}
		if tv, ok := info.Types[e]; ok && !tv.IsNil() && lintutil.CarriesBudget(tv.Type) {
			found = true
		}
		return !found
	})
	return found
}

// checkDiscardedErrors implements R2 over every statement of the file.
func checkDiscardedErrors(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				checkDiscardedError(pass, call, nil)
			}
		case *ast.GoStmt:
			checkDiscardedError(pass, n.Call, nil)
		case *ast.DeferStmt:
			checkDiscardedError(pass, n.Call, nil)
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					checkDiscardedError(pass, call, n.Lhs)
				}
			}
		}
		return true
	})
}

// checkDiscardedError reports a *B call whose error result is dropped. lhs
// is nil when the call's results are discarded wholesale (expression
// statement, go, defer); otherwise it is the assignment's left-hand side.
func checkDiscardedError(pass *analysis.Pass, call *ast.CallExpr, lhs []ast.Expr) {
	callee := lintutil.Callee(pass.TypesInfo, call)
	if callee == nil || !lintutil.IsBudgetedVariant(callee) {
		return
	}
	if lhs != nil {
		// The error is the last result by the *B convention.
		nres := callee.Type().(*types.Signature).Results().Len()
		if len(lhs) != nres {
			return
		}
		if id, ok := lhs[nres-1].(*ast.Ident); !ok || id.Name != "_" {
			return
		}
	}
	// Nil-budget contract: a literal-nil budget argument cannot trip, so
	// its error is statically nil and safe to drop.
	if len(call.Args) > 0 && lintutil.IsNilIdent(pass.TypesInfo, call.Args[0]) {
		return
	}
	pass.Reportf(call.Pos(),
		"error result of %s is discarded; a non-nil budget can trip mid-construction (only a literal nil budget cannot fail)",
		callee.Name())
}

func hasContextParam(info *types.Info, fn *ast.FuncDecl) bool {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	params := obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkContextDropped implements C2.
func checkContextDropped(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	// The nil-default idiom `ctx = context.Background()` (re-assigning a
	// context declared outside the body, i.e. the parameter) keeps the
	// caller's context when one was given; collect those calls first and
	// skip them below.
	defaulted := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || !isContextType(obj.Type()) || (obj.Pos() >= fn.Body.Pos() && obj.Pos() <= fn.Body.End()) {
			return true
		}
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			defaulted[call] = true
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || defaulted[call] {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[pkgID].(*types.PkgName)
		if !ok || pn.Imported().Path() != "context" {
			return true
		}
		if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
			pass.Reportf(call.Pos(),
				"%s takes a context.Context but calls context.%s, dropping the caller's cancellation and deadline",
				fn.Name.Name, sel.Sel.Name)
		}
		return true
	})
}
