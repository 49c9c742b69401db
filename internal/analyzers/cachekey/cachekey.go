// Package cachekey flags solve-cache keys built from NFA forms other than
// (*nfa.NFA).Key. The cache's soundness argument (DESIGN.md §10,
// internal/core/cache.go) rests on equal keys meaning identical machines,
// and Key, the machine's exact serialization memoized on the machine, is the
// form that guarantees it. String, the raw state ids Start and Final, and
// fmt-rendering an *nfa.NFA (its String summary or its pointer) can alias
// distinct machines, so a hit could hand one system another's answer.
// Marshal and Dot are exact but repeat, on every probe, the serialization
// that Key memoizes.
package cachekey

import (
	"fmt"
	"go/ast"
	"go/types"
	"path"

	"dprle/internal/analysis"
	"dprle/internal/analyzers/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "cachekey",
	Doc: `cachekey: cache keys must be built from (*nfa.NFA).Key

The solve cache treats equal keys as proof that two machines are
identical, so every machine-derived part of a key must be the machine's
exact serialization. This analyzer reports arguments to solvecache.Key and
to (*solvecache.Cache).Get/Put whose value derives from another NFA form:

  - String, which renders only counts and state ids
  - raw state ids (Start, Final)
  - fmt-rendering an *nfa.NFA value, which falls back to its String
    summary or its pointer
  - Marshal and Dot, which are exact but re-serialize the machine on
    every probe

Taint is tracked through local assignments within a function. Use
(*nfa.NFA).Key for machine identity; facts such as NumStates are fine.`,
	Run: run,
}

// rawForms maps NFA methods unfit for cache keys to the reason: either
// the result can alias distinct machines, or it repeats the serialization
// Key memoizes.
var rawForms = map[string]string{
	"Marshal": "re-serializes the machine on every probe; Key memoizes it",
	"Dot":     "re-renders the machine on every probe; Key memoizes its serialization",
	"String":  "renders only counts and state ids, which distinct machines share",
	"Start":   "is a bare state id, which distinct machines share",
	"Final":   "is a bare state id, which distinct machines share",
}

// fmtRenderers are the fmt functions that stringify their operands; an
// *nfa.NFA operand renders via String() or pointer formatting, both of
// which can alias distinct machines.
var fmtRenderers = map[string]bool{
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Append": true, "Appendf": true, "Appendln": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// checkFunc runs the two passes over one function: first collect locals
// assigned (in source order) from raw-form expressions, then report any
// sink argument whose subtree reaches a tainted form.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	taints := map[types.Object]string{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		// Only the 1:1 shapes (x := e, x = e, x += e) propagate taint;
		// multi-value unpacking of a tainted call is already reported at
		// the call itself if it feeds a sink.
		if len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if reason := subtreeTaint(info, as.Rhs[i], taints); reason != "" {
				taints[obj] = reason
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		args := sinkArgs(info, call)
		for _, arg := range args {
			if reason := subtreeTaint(info, arg, taints); reason != "" {
				pass.Reportf(arg.Pos(),
					"cache key built from a raw NFA form: %s; use (*nfa.NFA).Key", reason)
			}
		}
		return true
	})
}

// sinkArgs returns the arguments of call that become cache-key material:
// every argument of solvecache.Key, and the key argument of
// (*solvecache.Cache).Get/Put. Nil for any other call.
func sinkArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	fn := lintutil.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || path.Base(fn.Pkg().Path()) != "solvecache" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil {
		if (fn.Name() == "Get" || fn.Name() == "Put") &&
			isNamed(recv.Type(), "Cache", "solvecache") && len(call.Args) > 0 {
			return call.Args[:1]
		}
		return nil
	}
	if fn.Name() == "Key" {
		return call.Args
	}
	return nil
}

// subtreeTaint reports why the expression's value derives from a raw NFA
// form, or "" if it does not. It walks the whole subtree, so taint
// survives concatenation, fmt wrapping, and slice/append plumbing.
func subtreeTaint(info *types.Info, e ast.Expr, taints map[types.Object]string) string {
	var reason string
	ast.Inspect(e, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				if r, ok := taints[obj]; ok {
					reason = r
					return false
				}
			}
		case *ast.CallExpr:
			if r := callTaint(info, x); r != "" {
				reason = r
				return false
			}
		}
		return true
	})
	return reason
}

// callTaint reports whether the call itself produces a raw-form value: a
// rawForms NFA method, or a fmt renderer handed an *nfa.NFA.
func callTaint(info *types.Info, call *ast.CallExpr) string {
	fn := lintutil.Callee(info, call)
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		if why, ok := rawForms[fn.Name()]; ok && isNamed(recv.Type(), "NFA", "nfa") {
			return fmt.Sprintf("nfa.NFA.%s %s", fn.Name(), why)
		}
		return ""
	}
	if fn.Pkg() != nil && path.Base(fn.Pkg().Path()) == "fmt" && fmtRenderers[fn.Name()] {
		for _, arg := range call.Args {
			if tv, ok := info.Types[arg]; ok && isNamed(tv.Type, "NFA", "nfa") {
				return fmt.Sprintf("fmt.%s renders an *nfa.NFA by its String summary or pointer", fn.Name())
			}
		}
	}
	return ""
}

// isNamed reports whether t is the named type (or pointer to it) with the
// given name declared in a package whose path ends in pkgBase. Matching by
// name and path suffix lets the analyzer run over analysistest fixtures,
// which supply their own minimal nfa and solvecache packages.
func isNamed(t types.Type, name, pkgBase string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && path.Base(obj.Pkg().Path()) == pkgBase
}
