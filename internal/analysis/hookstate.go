package analysis

import (
	"go/ast"
	"go/types"
)

// The hookstate analyzer guards the "a World owns everything it
// touches" audit (PR 3): package-level hook variables — func-typed
// globals like experiments.Observe/ObserveCell — are process-wide
// mutable state, and library code that writes them mid-experiment
// couples unrelated worlds together (the Fig6Explain bug class: a
// library function swapped the package hook and broke the parallel
// sweep's isolation).
//
// The rule is mechanical: assignments to package-level variables of
// function type are allowed only in package main — the driver binaries
// that own process configuration and install registration closures
// (trace.Set.CellHook) at startup. Everywhere else, observers must be
// threaded explicitly (World.SetObserver, function parameters). Hook
// *tables* — package-level slices, arrays, or maps with function
// elements, the natural shape for one-observer-per-cell registration —
// are hooks too:
// writing an element (or appending) from library code couples worlds
// exactly the same way, so those writes are flagged as well. Tests are
// outside xemem-vet's scope and may save/restore hooks freely.
func newHookstate() *Analyzer {
	a := &Analyzer{
		Name:    "hookstate",
		Doc:     "flags writes to package-level func-typed hook variables outside package main; library code must thread observers explicitly",
		Version: 1,
	}
	a.Run = func(pass *Pass) any {
		if pass.Pkg.Types == nil || pass.Pkg.Types.Name() == "main" {
			return nil
		}
		for _, f := range pass.Pkg.Files {
			checkHookWrites(pass, f)
		}
		return nil
	}
	return a
}

func checkHookWrites(pass *Pass, f *ast.File) {
	info := pass.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range as.Lhs {
			var id *ast.Ident
			switch l := l.(type) {
			case *ast.Ident:
				id = l
			case *ast.SelectorExpr:
				id = l.Sel
			case *ast.IndexExpr:
				// Element write into a hook table: Hooks[i] = f.
				switch x := ast.Unparen(l.X).(type) {
				case *ast.Ident:
					id = x
				case *ast.SelectorExpr:
					id = x.Sel
				default:
					continue
				}
			default:
				continue
			}
			v, ok := info.Uses[id].(*types.Var)
			if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				continue // not a package-level variable
			}
			if !isHookType(v.Type()) {
				continue
			}
			pass.Reportf(l.Pos(),
				"write to package-level hook %s.%s outside package main: hooks are installed once by driver binaries; library code must thread observers explicitly (World.SetObserver or parameters)",
				v.Pkg().Name(), v.Name())
		}
		return true
	})
}

// isHookType reports whether t is a hook shape: a function, or a hook
// table (slice, array, or map with function elements).
func isHookType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Signature:
		return true
	case *types.Slice:
		_, ok := u.Elem().Underlying().(*types.Signature)
		return ok
	case *types.Array:
		_, ok := u.Elem().Underlying().(*types.Signature)
		return ok
	case *types.Map:
		_, ok := u.Elem().Underlying().(*types.Signature)
		return ok
	}
	return false
}
