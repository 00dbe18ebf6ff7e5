package analysis

import (
	"go/ast"
	"go/types"
)

// The partition analyzer guards the engine's one-runnable-goroutine
// invariant: exactly one actor runs at a time, and the only actor whose
// mutable state a dispatch may touch is the running actor itself (plus
// whatever the engine's own primitives — Unblock, Spawn, resources — do
// on its behalf). Code that reaches into *another* actor's state from
// inside an actor closure (reading its clock, drawing from its RNG
// stream, advancing it) couples the result to dispatch order behind the
// scheduler's back. The name is historical: the rule keeps each actor's
// state private to its own dispatch. Goroutines need no rule here: the
// determinism analyzer forbids every go statement outside tests.
//
// The rule is conservative: inside any function or closure that
// receives a *sim.Actor parameter (an actor body, in this codebase's
// idiom), a method call on an actor *other than* one of those
// parameters is flagged — except the immutable identity methods (ID,
// Name, World), which are set at spawn and safe to read from anywhere.
// A nested actor closure resets the scope; plain closures inherit it;
// build-time and post-run code (no actor parameter in scope) is exempt.
func newPartition() *Analyzer {
	return &Analyzer{
		Name: "partition",
		Doc:  "flags actor-state access on an actor other than the running one inside actor closures; actors interact only through the engine's primitives",
		Run: func(pass *Pass) {
			if pass.Pkg.Types.Name() == "main" || isSimPackage(pass.Module, pass.Pkg) {
				return
			}
			for _, f := range pass.Pkg.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
						checkPartitionScope(pass, fd.Body, actorParams(pass.Pkg.Info, fd.Type))
					}
				}
			}
		},
	}
}

// partitionSafeMethods are the Actor methods readable on any actor:
// immutable identity, fixed at spawn.
var partitionSafeMethods = map[string]bool{
	"ID": true, "Name": true, "World": true,
}

// actorParams collects the *sim.Actor-typed parameters of a function
// signature (nil when it has none).
func actorParams(info *types.Info, ft *ast.FuncType) map[types.Object]bool {
	var own map[types.Object]bool
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj == nil || !isActorType(obj.Type()) {
				continue
			}
			if own == nil {
				own = make(map[types.Object]bool)
			}
			own[obj] = true
		}
	}
	return own
}

// isActorType reports whether t is (a pointer to) the engine's Actor
// type. The package is matched by path suffix so fixture modules
// exercise the same rule.
func isActorType(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			obj := u.Obj()
			return obj.Name() == "Actor" && obj.Pkg() != nil && hasSuffixPath(obj.Pkg().Path(), "internal/sim")
		default:
			return false
		}
	}
}

// checkPartitionScope walks one function body with the given
// running-actor scope, re-scoping at nested function literals: a
// literal with its own actor parameter is a new actor body, one without
// runs inside the current dispatch and inherits.
func checkPartitionScope(pass *Pass, body ast.Node, own map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			next := own
			if ps := actorParams(pass.Pkg.Info, n.Type); len(ps) > 0 {
				next = ps
			}
			checkPartitionScope(pass, n.Body, next)
			return false
		case *ast.CallExpr:
			checkPartitionCall(pass, n, own)
		}
		return true
	})
}

// checkPartitionCall flags a method call on a foreign actor from inside
// an actor scope.
func checkPartitionCall(pass *Pass, call *ast.CallExpr, own map[types.Object]bool) {
	if len(own) == 0 {
		return // build-time or post-run code: no window is running
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := pass.Pkg.Info.Selections[sel]
	if !ok || !isActorType(s.Recv()) {
		return
	}
	if partitionSafeMethods[sel.Sel.Name] {
		return
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if obj := pass.Pkg.Info.Uses[id]; obj != nil && own[obj] {
			return // the running actor's own primitive
		}
	}
	pass.Reportf(sel.Pos(),
		"%s called on an actor other than the running one: actor state is private to its own dispatch; interact through the engine's primitives (or pass the actor in as the running parameter)",
		sel.Sel.Name)
}
