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
// scheduler's back, and a running-actor capture that escapes into a
// goroutine touches actor state outside any dispatch at all. The name
// is historical: the rule keeps each actor's state private to its own
// dispatch.
//
// Two rules, both conservative:
//
//  1. Foreign-actor calls (v1): inside any function or closure that
//     receives a *sim.Actor parameter (an actor body, in this codebase's
//     idiom), a method call on an actor *other than* one of those
//     parameters is flagged — except the immutable identity methods
//     (ID, Name, World), which are set at spawn and safe to
//     read from anywhere. A nested actor closure resets the scope; plain
//     closures inherit it; build-time and post-run code (no actor
//     parameter in scope) is exempt.
//
//  2. Closure escape (v2, interprocedural): a plain closure that
//     captures the running actor must not leave the dispatch that owns
//     it. Launching one on a goroutine (`go`), handing it to a scheduler
//     spawn, or passing it to *any* helper whose summary says the
//     matching parameter may run on another goroutine is flagged — the
//     captured actor would be touched outside its own dispatch. Known
//     safe pairings may carry an //xemem:allow partition directive
//     with the reason.
func newPartition() *Analyzer {
	return &Analyzer{
		Name:    "partition",
		Doc:     "flags actor-state access on an actor other than the running one inside actor closures, and running-actor captures that escape into other goroutines (directly or through a helper); actors interact only through the engine's primitives",
		Version: 3,
		Run: func(pass *Pass) any {
			if pass.Pkg.Types == nil || pass.Pkg.Types.Name() == "main" || isSimPackage(pass.Module, pass.Pkg) {
				return nil
			}
			for _, f := range pass.Pkg.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
						checkPartitionScope(pass, fd.Body, actorParams(pass.Pkg.Info, fd.Type))
					}
				}
			}
			return nil
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
// runs inside the current dispatch and inherits. Along the way it
// tracks locals bound to plain closures, so a capture that escapes via
// a named closure is caught like an inline one.
func checkPartitionScope(pass *Pass, body ast.Node, own map[types.Object]bool) {
	info := pass.Pkg.Info
	closures := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			next := own
			if ps := actorParams(info, n.Type); len(ps) > 0 {
				next = ps
			}
			checkPartitionScope(pass, n.Body, next)
			return false
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if fl, ok := n.Rhs[i].(*ast.FuncLit); ok {
					if id, ok := l.(*ast.Ident); ok {
						if obj := info.Defs[id]; obj != nil {
							closures[obj] = fl
						}
					}
				}
			}
		case *ast.GoStmt:
			if len(own) > 0 && usesAnyOf(info, n.Call, own) {
				pass.Reportf(n.Pos(),
					"goroutine launched from an actor body captures the running actor: its state would be touched outside its own dispatch; route the work through the scheduler (Spawn)")
				return false
			}
		case *ast.CallExpr:
			checkPartitionCall(pass, n, own)
			checkClosureEscape(pass, n, own, closures)
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

// checkClosureEscape flags a plain closure capturing the running actor
// handed to a goroutine-spawning callee: a scheduler spawn by name, or
// any helper whose summary marks the matching func parameter as
// go-escaping.
func checkClosureEscape(pass *Pass, call *ast.CallExpr, own map[types.Object]bool, closures map[types.Object]*ast.FuncLit) {
	if len(own) == 0 {
		return
	}
	info := pass.Pkg.Info
	sums := pass.Module.Summaries()
	callee := resolveCallee(info, call)
	cs := sums.Of(callee)
	spawn := spawnNames[calleeName(call)]
	if !spawn && cs == nil {
		return
	}
	inspect := func(arg ast.Expr, escaping bool, how string) {
		if !escaping {
			return
		}
		fl, _ := ast.Unparen(arg).(*ast.FuncLit)
		if fl == nil {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				fl = closures[info.Uses[id]]
			}
		}
		if fl == nil || len(actorParams(info, fl.Type)) > 0 {
			return // not a closure we track, or a fresh actor body (re-scoped)
		}
		if !usesAnyOf(info, fl.Body, own) {
			return
		}
		pass.Reportf(arg.Pos(),
			"closure capturing the running actor escapes into another goroutine via %s: the captured actor's state would be touched outside its own dispatch; pass data instead of capturing the actor", how)
	}
	if spawn {
		for _, arg := range call.Args {
			inspect(arg, true, calleeName(call))
		}
		return
	}
	forEachArg(info, call, callee, func(arg ast.Expr, pi int) {
		inspect(arg, pi < len(cs.GoEscaped) && cs.GoEscaped[pi], calleeName(call))
	})
}

// usesAnyOf reports whether any identifier under n refers to one of the
// given objects.
func usesAnyOf(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
