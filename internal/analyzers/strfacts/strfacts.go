// Package strfacts implements the string-language lattice used by the
// strlang analyzer and the interprocedural string summaries: the abstract
// value of a Go string variable is a regular language over the byte
// alphabet, represented by a minimized machine from internal/nfa — the
// paper's own abstract domain (§2), dogfooded as a lint lattice.
//
// The lattice must have finite height even though regular languages form
// an infinite-ascending-chain order, so every value carries a generation
// counter: a join whose operands denote different languages produces a
// strictly larger generation, and normalization widens any value past
// MaxGen — or past the state-size cap — to Σ*, the lattice top. Loop
// back-edges therefore widen to Σ* after at most MaxGen rounds, and the
// dataflow fixpoint terminates within the declared Height. All automaton
// constructions run under an internal/budget cap; a construction the
// budget refuses also widens to Σ*, so the analysis can never hang on an
// adversarial machine.
package strfacts

import (
	"context"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sync"

	"dprle/internal/analysis/dataflow"
	"dprle/internal/analyzers/nilfacts"
	"dprle/internal/budget"
	"dprle/internal/nfa"
)

const (
	// MaxGen is the number of language-growing joins a value survives
	// before widening to Σ*.
	MaxGen = 3
	// MaxValStates caps the minimized machine size of a single abstract
	// value; larger languages widen to Σ*.
	MaxValStates = 96
	// normStates is the internal/budget state allowance for one
	// normalization (minimize or intersect); exhaustion widens to Σ*.
	normStates = 1 << 13
)

// Val is the abstract value of one string variable: a regular language.
// The zero Val is Σ* (top, "any string"), so unmapped variables are
// soundly unconstrained.
//
// Two distinct Σ* values exist, told apart by generation: gen 0 is merely
// *unknown* (a parameter, an unmodelled call) and still concatenates
// structurally — lit·Σ*·lit keeps its shape — while gen > MaxGen is
// *widened*, and stays Σ* through every further operation. Without the
// sticky form, a loop that concatenates onto a widened variable would
// oscillate (Σ* → Σ*·x → join back to Σ* → …) instead of converging.
type Val struct {
	m   *nfa.NFA // minimized machine; nil ⇒ Σ*
	gen int
	key string // canonical key of m; "" ⇒ Σ*
}

// Top returns Σ* at generation zero: unknown, but not widened.
func Top() Val { return Val{} }

// IsTop reports whether the value is Σ*.
func (v Val) IsTop() bool { return v.m == nil }

// Machine returns the minimized machine, or nil for Σ*.
func (v Val) Machine() *nfa.NFA { return v.m }

// Key returns the canonical fingerprint of the language ("" for Σ*).
// Equal keys mean equal languages: the machine is the minimal DFA, which
// is unique up to isomorphism, and CanonicalKey is isomorphism-invariant.
func (v Val) Key() string { return v.key }

// Gen returns the widening generation.
func (v Val) Gen() int { return v.gen }

// SameLang reports whether two values denote the same language.
func (v Val) SameLang(o Val) bool { return v.key == o.key }

// IsEmpty reports whether the value is the empty language ∅ (the result
// of an infeasible refinement; never stored in Facts).
func (v Val) IsEmpty() bool { return v.m != nil && v.m.IsEmpty() }

// anyKey memoizes the canonical key of Σ*, so normalization can collapse
// machines that happen to denote every string into the cheap top form.
var anyKey = sync.OnceValue(func() string {
	m, _ := nfa.MinimizedB(nil, nfa.AnyString()) // nil budget cannot fail
	return m.CanonicalKey()
})

// Domain performs all Val construction and counts widenings for -stats.
// The zero Domain is ready to use; it is not safe for concurrent use.
type Domain struct {
	// Widenings counts collapses to Σ* forced by a cap (generation,
	// machine size, or budget refusal).
	Widenings int
}

// widened is the sticky Σ*: every operation on it stays Σ*.
func widened() Val { return Val{gen: MaxGen + 1} }

// norm minimizes m under budget and wraps it, widening to Σ* when the
// generation, the size cap, or the budget trips.
func (d *Domain) norm(m *nfa.NFA, gen int) Val {
	if m == nil {
		return Val{gen: gen}
	}
	if gen > MaxGen {
		d.Widenings++
		return widened()
	}
	bud := budget.New(context.Background(), budget.Limits{MaxStates: normStates})
	min, err := nfa.MinimizedB(bud, m)
	if err != nil || min.NumStates() > MaxValStates {
		d.Widenings++
		return widened()
	}
	key := min.CanonicalKey()
	if key == anyKey() {
		return Val{gen: gen} // Σ* in disguise: use the canonical form
	}
	return Val{m: min, gen: gen, key: key}
}

// Lit returns the singleton language {s}.
func (d *Domain) Lit(s string) Val { return d.norm(nfa.Literal(s), 0) }

// FromMachine wraps an arbitrary machine (e.g. a compiled contract) as a
// generation-zero value.
func (d *Domain) FromMachine(m *nfa.NFA) Val { return d.norm(m, 0) }

// Join returns a value covering both operands. Operands denoting the same
// language join to themselves; different languages union and advance the
// generation, widening to Σ* past MaxGen — the rule that bounds every
// rising chain.
func (d *Domain) Join(a, b Val) Val {
	if a.IsTop() || b.IsTop() {
		return Val{gen: maxInt(a.gen, b.gen)}
	}
	if a.key == b.key {
		if b.gen < a.gen {
			return b
		}
		return a
	}
	return d.norm(nfa.Union(a.m, b.m), maxInt(a.gen, b.gen)+1)
}

// Concat returns the concatenation a·b. An unknown Σ* operand (gen 0)
// concatenates structurally — lit·Σ*·lit keeps its shape — while the
// generation propagates as the operand max, so concatenating onto a
// widened value stays widened: this is what makes `s += x` loops
// converge instead of oscillating.
func (d *Domain) Concat(a, b Val) Val {
	gen := maxInt(a.gen, b.gen)
	if a.IsTop() && b.IsTop() {
		return Val{gen: gen}
	}
	ma, mb := a.m, b.m
	if ma == nil {
		ma = nfa.AnyString()
	}
	if mb == nil {
		mb = nfa.AnyString()
	}
	return d.norm(nfa.Concat(ma, mb), gen)
}

// Star returns a*, covering any number of repetitions.
func (d *Domain) Star(a Val) Val {
	if a.IsTop() {
		return a
	}
	return d.norm(nfa.Star(a.m), a.gen)
}

// Meet refines a by intersection with the singleton {lit} (branch
// refinement on s == "lit"). feasible=false reports an empty result: the
// refined edge cannot be taken. A budget refusal keeps a unrefined, and a
// widened value refuses refinement entirely — narrowing after widening
// could reintroduce the oscillation widening exists to break.
func (d *Domain) Meet(a Val, lit string) (v Val, feasible bool) {
	if a.IsTop() {
		if a.gen > MaxGen {
			return a, true
		}
		return d.Lit(lit), true
	}
	bud := budget.New(context.Background(), budget.Limits{MaxStates: normStates})
	m, err := nfa.IntersectB(bud, a.m, nfa.Literal(lit))
	if err != nil {
		return a, true // refusal: keep the sound, coarser value
	}
	if m.Trim().IsEmpty() {
		return Val{}, false
	}
	return d.norm(m, a.gen), true
}

// IsString reports whether t is a string type (including named string
// types), the condition for a variable to be tracked by this lattice.
func IsString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// Facts maps tracked string variables to their languages. A nil *Facts is
// the lattice bottom (unreachable); a missing entry means gen-0 Σ*
// (unknown). Widened Σ* values (gen > 0) are stored explicitly: the
// generation is the sticky widening marker, and dropping it would let a
// loop rediscover structure the widening just erased.
type Facts struct {
	Vals map[*types.Var]Val
}

// Get returns the fact for v (Σ* when untracked or widened away).
func (f *Facts) Get(v *types.Var) Val {
	if f == nil || v == nil {
		return Top()
	}
	return f.Vals[v]
}

// Lattice is the join-semilattice plus transfer function over Facts. It
// implements both dataflow.Lattice and dataflow.Transfer.
type Lattice struct {
	Info    *types.Info
	Tracked map[*types.Var]bool
	Dom     *Domain
	// Entry seeds the boundary fact: parameters whose language is assumed
	// at function entry (//dprle:subset contracts). Missing entries are Σ*.
	Entry map[*types.Var]Val
	// Model, when non-nil, resolves calls the builtin models do not cover
	// — typically to interprocedural string summaries. It runs after the
	// builtin models and reports ok=false to decline.
	Model func(call *ast.CallExpr, eval func(ast.Expr) Val) (Val, bool)
}

// Bottom implements dataflow.Lattice.
func (l *Lattice) Bottom() dataflow.Fact { return (*Facts)(nil) }

// Boundary implements dataflow.Lattice: tracked variables start at Σ*
// except where Entry assumes a contract language.
func (l *Lattice) Boundary() dataflow.Fact {
	vals := map[*types.Var]Val{}
	for v, val := range l.Entry {
		if l.Tracked[v] && keep(val) {
			vals[v] = val
		}
	}
	return &Facts{Vals: vals}
}

// Height implements dataflow.Lattice. Each variable's entry rises through
// at most MaxGen+2 languages (one per generation, then Σ*), and its
// generation can rise a further MaxGen+1 times at a fixed language; plus
// the boundary and bottom steps.
func (l *Lattice) Height() int { return len(l.Tracked)*(2*MaxGen+6) + 2 }

// keep reports whether a value carries information worth storing: any
// constrained language, or a Σ* whose generation marks prior widening.
func keep(v Val) bool { return !v.IsTop() || v.gen > 0 }

// Join implements dataflow.Lattice. Entries missing on one side are gen-0
// Σ* there; the language join may widen (see Domain.Join).
func (l *Lattice) Join(a, b dataflow.Fact) dataflow.Fact {
	x, y := a.(*Facts), b.(*Facts)
	if x == nil {
		return y
	}
	if y == nil {
		return x
	}
	out := map[*types.Var]Val{}
	for v, xv := range x.Vals {
		if j := l.Dom.Join(xv, y.Get(v)); keep(j) {
			out[v] = j
		}
	}
	for v, yv := range y.Vals {
		if _, seen := x.Vals[v]; seen {
			continue
		}
		if j := l.Dom.Join(x.Get(v), yv); keep(j) {
			out[v] = j
		}
	}
	return &Facts{Vals: out}
}

// Equal implements dataflow.Lattice: per-entry language equality AND
// generation equality — the generation is part of the lattice element, or
// widening markers would stop propagating before the fixpoint sees them.
func (l *Lattice) Equal(a, b dataflow.Fact) bool {
	x, y := a.(*Facts), b.(*Facts)
	if x == nil || y == nil {
		return x == y
	}
	if len(x.Vals) != len(y.Vals) {
		return false
	}
	for v, xv := range x.Vals {
		yv, ok := y.Vals[v]
		if !ok || !xv.SameLang(yv) || xv.gen != yv.gen {
			return false
		}
	}
	return true
}

func (l *Lattice) set(f *Facts, v *types.Var, val Val) *Facts {
	if !l.Tracked[v] {
		return f
	}
	out := map[*types.Var]Val{}
	for k, x := range f.Vals {
		out[k] = x
	}
	if keep(val) {
		out[v] = val
	} else {
		delete(out, v)
	}
	return &Facts{Vals: out}
}

// Node implements dataflow.Transfer for the statement kinds that bind
// tracked variables; everything else leaves the fact unchanged.
func (l *Lattice) Node(n ast.Node, fact dataflow.Fact) dataflow.Fact {
	f := fact.(*Facts)
	if f == nil {
		return f
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		return l.assign(n, f)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v, ok := l.Info.Defs[name].(*types.Var)
					if !ok || !l.Tracked[v] {
						continue
					}
					val := l.Dom.Lit("") // zero value: the empty string
					if len(vs.Values) == len(vs.Names) {
						val = l.Eval(vs.Values[i], f)
					} else if len(vs.Values) > 0 {
						val = Top() // multi-value initializer
					}
					f = l.set(f, v, val)
				}
			}
		}
		return f
	case *ast.RangeStmt:
		// Key/Value are rebound each iteration to unknown elements.
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if v := l.objOf(id); v != nil {
					f = l.set(f, v, Top())
				}
			}
		}
		return f
	}
	return f
}

func (l *Lattice) assign(as *ast.AssignStmt, f *Facts) *Facts {
	if as.Tok == token.ADD_ASSIGN {
		// s += e is s = s + e for strings.
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if v := l.objOf(id); v != nil && l.Tracked[v] {
				val := l.Dom.Concat(f.Get(v), l.Eval(as.Rhs[0], f))
				return l.set(f, v, val)
			}
		}
		return f
	}
	if len(as.Lhs) == len(as.Rhs) {
		// Evaluate every rhs against the incoming fact before binding, so
		// `a, b = b, a` swaps languages correctly.
		vals := make([]Val, len(as.Rhs))
		for i, r := range as.Rhs {
			vals[i] = l.Eval(r, f)
		}
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if v := l.objOf(id); v != nil {
					f = l.set(f, v, vals[i])
				}
			}
		}
		return f
	}
	// Multi-value form (s, err := f()): every bound variable is Σ*.
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			if v := l.objOf(id); v != nil {
				f = l.set(f, v, Top())
			}
		}
	}
	return f
}

// objOf resolves an identifier to the variable it defines or uses.
func (l *Lattice) objOf(id *ast.Ident) *types.Var {
	if v, ok := l.Info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := l.Info.Uses[id].(*types.Var)
	return v
}

// Eval computes the language of a string-typed expression under the given
// facts. Anything it cannot model precisely is Σ* — always sound.
func (l *Lattice) Eval(e ast.Expr, f *Facts) Val {
	e = ast.Unparen(e)
	if tv, ok := l.Info.Types[e]; ok && tv.Value != nil {
		if s, ok := stringConstant(tv.Value); ok {
			return l.Dom.Lit(s)
		}
		return Top()
	}
	switch e := e.(type) {
	case *ast.Ident:
		if v := l.objOf(e); v != nil && l.Tracked[v] {
			return f.Get(v)
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD && IsString(l.typeOf(e)) {
			return l.Dom.Concat(l.Eval(e.X, f), l.Eval(e.Y, f))
		}
	case *ast.CallExpr:
		// A conversion T(x) between string types keeps the language.
		if tv, ok := l.Info.Types[e.Fun]; ok && tv.IsType() {
			if len(e.Args) == 1 && IsString(l.typeOf(e.Args[0])) {
				return l.Eval(e.Args[0], f)
			}
			return Top()
		}
		return l.callModel(e, f)
	}
	return Top()
}

func (l *Lattice) typeOf(e ast.Expr) types.Type {
	if tv, ok := l.Info.Types[e]; ok {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

// Branch implements dataflow.Transfer: it refines facts along the edges
// of string-literal comparisons (s == "lit", s != "lit") over tracked
// variables and returns bottom when the edge is infeasible.
func (l *Lattice) Branch(cond ast.Expr, taken bool, fact dataflow.Fact) dataflow.Fact {
	f := fact.(*Facts)
	if f == nil {
		return f
	}
	v, lit, eqOnTrue, ok := l.stringComparison(cond)
	if !ok {
		return f
	}
	cur := f.Get(v)
	if eqOnTrue == taken {
		// The edge where s == lit holds.
		refined, feasible := l.Dom.Meet(cur, lit)
		if !feasible {
			return (*Facts)(nil)
		}
		return l.set(f, v, refined)
	}
	// The edge where s != lit holds: infeasible when s is exactly {lit}.
	if single := l.Dom.Lit(lit); cur.SameLang(single) {
		return (*Facts)(nil)
	}
	return f
}

// stringComparison recognizes `s == "lit"` / `"lit" == s` (and !=) over a
// tracked variable against a constant string.
func (l *Lattice) stringComparison(cond ast.Expr) (v *types.Var, lit string, eqOnTrue, ok bool) {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, "", false, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	var operand ast.Expr
	if s, isConst := l.constString(y); isConst {
		operand, lit = x, s
	} else if s, isConst := l.constString(x); isConst {
		operand, lit = y, s
	} else {
		return nil, "", false, false
	}
	id, isID := operand.(*ast.Ident)
	if !isID {
		return nil, "", false, false
	}
	vv := l.objOf(id)
	if vv == nil || !l.Tracked[vv] {
		return nil, "", false, false
	}
	return vv, lit, be.Op == token.EQL, true
}

func (l *Lattice) constString(e ast.Expr) (string, bool) {
	if tv, ok := l.Info.Types[e]; ok && tv.Value != nil {
		return stringConstant(tv.Value)
	}
	return "", false
}

// TrackedStrings returns the string-typed variables eligible for language
// tracking in fn — declared within fn, never address-taken, never touched
// from a nested function literal (the nilfacts eligibility rule).
func TrackedStrings(info *types.Info, fn ast.Node, body *ast.BlockStmt) map[*types.Var]bool {
	return nilfacts.TrackedVars(info, fn, body, IsString)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// stringConstant extracts the value of a string constant.
func stringConstant(v constant.Value) (string, bool) {
	if v.Kind() == constant.String {
		return constant.StringVal(v), true
	}
	return "", false
}
