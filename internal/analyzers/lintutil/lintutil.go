// Package lintutil holds type- and AST-level predicates shared by the
// dprlelint analyzers: recognizing the solver's *budget.Budget type, the
// *B budgeted-sibling convention, and budget-carrying types.
package lintutil

import (
	"go/ast"
	"go/types"
	"path"
)

// IsBudgetPtr reports whether t is *budget.Budget — a pointer to a named
// type Budget declared in a package whose path ends in "budget". Matching
// by name and path suffix (rather than the exact import path) lets the
// analyzers run unchanged over analysistest fixtures, which supply their
// own minimal budget package.
func IsBudgetPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Budget" || obj.Pkg() == nil {
		return false
	}
	return path.Base(obj.Pkg().Path()) == "budget"
}

// CarriesBudget reports whether a value of type t gives access to a
// budget: it is *budget.Budget itself, or a struct (possibly behind a
// pointer) with a *budget.Budget field.
func CarriesBudget(t types.Type) bool {
	return t != nil && (IsBudgetPtr(t) || BudgetField(t) != "")
}

// BudgetField names the first *budget.Budget field of a struct type
// (possibly behind a pointer), or returns "" when there is none — the
// solver's maximizer/gciSolver pattern of a budget carried by a receiver.
func BudgetField(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if IsBudgetPtr(st.Field(i).Type()) {
			return st.Field(i).Name()
		}
	}
	return ""
}

// BudgetedSibling returns the *B variant of callee, if one exists by the
// solver's convention: a function (or method on the same receiver type)
// named callee.Name()+"B" whose first parameter is *budget.Budget and
// whose last result is error. Returns nil if there is no such sibling.
func BudgetedSibling(callee *types.Func) *types.Func {
	name := callee.Name() + "B"
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var cand types.Object
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		obj, _, _ := types.LookupFieldOrMethod(t, true, callee.Pkg(), name)
		cand = obj
	} else if callee.Pkg() != nil {
		cand = callee.Pkg().Scope().Lookup(name)
	}
	fn, ok := cand.(*types.Func)
	if !ok {
		return nil
	}
	fsig := fn.Type().(*types.Signature)
	params := fsig.Params()
	results := fsig.Results()
	if params.Len() == 0 || !IsBudgetPtr(params.At(0).Type()) {
		return nil
	}
	if results.Len() == 0 || !isErrorType(results.At(results.Len()-1).Type()) {
		return nil
	}
	return fn
}

// IsBudgetedVariant reports whether fn itself follows the *B convention:
// name ends in "B", first parameter *budget.Budget, last result error.
func IsBudgetedVariant(fn *types.Func) bool {
	if len(fn.Name()) < 2 || fn.Name()[len(fn.Name())-1] != 'B' {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	results := sig.Results()
	if params.Len() == 0 || !IsBudgetPtr(params.At(0).Type()) {
		return false
	}
	return results.Len() > 0 && isErrorType(results.At(results.Len()-1).Type())
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// Callee resolves a call expression to the static *types.Func it invokes,
// or nil for calls through function values, type conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsNilIdent reports whether the expression is the untyped nil literal.
func IsNilIdent(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
