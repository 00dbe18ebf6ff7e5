package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The chargecheck analyzer guards the §4 cost model's integrity in two
// directions:
//
//  1. Dead cost constants: every field of sim.Costs must somewhere flow
//     into a charge — an Actor.Charge/Advance/AdvanceTo, a Resource
//     acquisition (Acquire/AcquireOp/Exec), or a sim.CopyTime
//     conversion feeding one. A calibrated constant nothing
//     charges is drift waiting to happen: the model documents a cost the
//     simulation silently omits. Flow is tracked through local
//     assignments, stores, and composite literals — and, via the
//     interprocedural summaries, through helpers: an argument position a
//     callee summary marks sunk is a charge zone at the call site, and a
//     call whose callee returns Costs-derived values charges those
//     fields when the call itself sits in a charge zone. A field that
//     merely *returns* from a helper whose result never reaches a sink
//     is no longer considered charged.
//
//  2. Clock bypasses: inside the engine package, an Actor's virtual
//     clock (the `now` field) may only be mutated by the charge path
//     (Advance), the scheduler's handoff points (Unblock/Spawn) and
//     the poll tick the scheduler takes for a parked PollDeadline
//     (pollTick). Any other write desynchronizes actors from the
//     ready-queue ordering invariant.

// chargeSinks are the call names whose arguments constitute "being
// charged". Matching is by name, deliberately over-approximate: a cost
// that reaches any same-named sink is assumed charged (chargecheck never
// false-positives on plumbing style, at the price of missing exotic
// leaks).
var chargeSinks = map[string]bool{
	"Charge": true, "Advance": true, "AdvanceTo": true,
	"Acquire": true, "AcquireOp": true, "Exec": true,
	"CopyTime": true,
	// The timeout primitives: interval and deadline both become
	// virtual-time advances on the polling actor.
	"PollDeadline": true, "Await": true, "Retry": true,
}

// clockPath are the sim functions allowed to write Actor.now directly:
// the advance primitive, the scheduler handoffs that re-baseline a
// woken or newborn actor, and the scheduler's poll tick, which advances
// a parked poller by the step its own Advance would have taken.
var clockPath = map[string]bool{
	"Advance": true, "Unblock": true, "Spawn": true, "SpawnAt": true,
	"pollTick": true,
}

// chargecheck accumulates, over the per-package passes, the Costs
// fields some flow charges and the fields' declarations (which only the
// engine package, where the struct lives, contributes).
type chargecheck struct {
	charged map[string]bool
	fields  []fieldRef
}

// fieldRef names a struct field at its (root-relative) declaration
// position.
type fieldRef struct {
	Name string
	Pos  token.Position
}

func newChargecheck() *Analyzer {
	c := &chargecheck{charged: make(map[string]bool)}
	return &Analyzer{
		Name:   "chargecheck",
		Doc:    "flags sim.Costs fields never charged through Charge/Advance or a resource acquisition (flow tracked through helpers via summaries), and Actor clock writes that bypass the charge path",
		Run:    c.run,
		Finish: c.finish,
	}
}

func (c *chargecheck) run(pass *Pass) {
	sums := pass.Module.Summaries()
	sim := isSimPackage(pass.Module, pass.Pkg)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			markChargedFields(sums, pass.Pkg.Info, fd, c.charged)
			if sim {
				checkClockWrites(pass, fd)
			}
		}
	}
	if sim {
		for _, f := range sums.CostsFields() {
			c.fields = append(c.fields, fieldRef{Name: f.Name(), Pos: pass.Module.Position(f.Pos())})
		}
	}
}

// markChargedFields computes, for one function, the source regions whose
// expressions flow toward a charge (sink arguments — syntactic and
// summary-derived — stores, composite literals, and transitively the
// right-hand sides feeding locals that do), then records every Costs
// field read inside them and every Costs-returning call made inside
// them.
func markChargedFields(sums *Summaries, info *types.Info, fd *ast.FuncDecl, charged map[string]bool) {
	if len(sums.CostsFields()) == 0 {
		return
	}
	zones := sums.sinkZones(info, fd.Body)
	_, storeRHS := collectAssigns(info, fd.Body)
	zones = append(zones, storeRHS...)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if cl, ok := n.(*ast.CompositeLit); ok {
			zones = append(zones, rangeOf(cl))
		}
		return true
	})
	zones, _ = taintFlow(info, fd.Body, zones, nil)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sums.IsCostsField(sel.Obj()) && inAny(zones, n.Pos()) {
				charged[sel.Obj().Name()] = true
			}
		case *ast.CallExpr:
			// A call in a charge zone charges whatever Costs fields its
			// callee's results carry.
			if inAny(zones, n.Pos()) {
				if cs := sums.Of(resolveCallee(info, n)); cs != nil {
					for _, name := range cs.CostsReturns {
						charged[name] = true
					}
				}
			}
		}
		return true
	})
}

// collectObjectsIn gathers the objects of identifiers lying inside zone.
func collectObjectsIn(info *types.Info, root ast.Node, zone posRange, into map[types.Object]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && zone.contains(id.Pos()) {
			if obj := info.Uses[id]; obj != nil {
				into[obj] = true
			}
		}
		return true
	})
}

// checkClockWrites flags direct mutations of an Actor's `now` field
// outside the charge path.
func checkClockWrites(pass *Pass, fd *ast.FuncDecl) {
	if clockPath[fd.Name.Name] {
		return
	}
	info := pass.Pkg.Info
	flag := func(sel *ast.SelectorExpr) {
		if sel.Sel.Name != "now" {
			return
		}
		if t := info.Types[sel.X].Type; t == nil || namedTypeName(t) != "Actor" {
			return
		}
		pass.Reportf(sel.Pos(),
			"%s writes Actor.now directly, bypassing the charge path; use Advance (or Charge for attributed costs)", funcName(fd))
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if sel, ok := l.(*ast.SelectorExpr); ok {
					flag(sel)
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok {
				flag(sel)
			}
		}
		return true
	})
}

// finish reports the engine's Costs constants no package charges.
func (c *chargecheck) finish(f *FinishPass) {
	for _, field := range c.fields {
		if c.charged[field.Name] {
			continue
		}
		f.Reportf(field.Pos,
			"cost constant Costs.%s is never charged: no flow into Charge/Advance*/Acquire*/Exec/CopyTime anywhere in the module"+
				" — wire it into a substrate cost path or document the exception with //xemem:allow chargecheck -- <reason>", field.Name)
	}
}
