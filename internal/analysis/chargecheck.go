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
//     into a charge — an Actor.Charge/ChargeN/Advance/AdvanceN, a
//     Resource acquisition (Acquire/AcquireOp/TryAcquire/Exec), or a
//     sim.CopyTime conversion feeding one. A calibrated constant nothing
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
//     clock (the `now` field) may only be mutated by the charge path —
//     Advance/AdvanceN — and the scheduler's handoff points
//     (Unblock/Spawn). Any other write desynchronizes actors from the
//     ready-queue ordering invariant.

// chargeSinks are the call names whose arguments constitute "being
// charged". Matching is by name, deliberately over-approximate: a cost
// that reaches any same-named sink is assumed charged (chargecheck never
// false-positives on plumbing style, at the price of missing exotic
// leaks).
var chargeSinks = map[string]bool{
	"Charge": true, "ChargeN": true,
	"Advance": true, "AdvanceN": true, "AdvanceTo": true, "Sleep": true,
	"Acquire": true, "AcquireOp": true, "TryAcquire": true, "Exec": true,
	"CopyTime": true,
	// The timeout primitives: interval and deadline both become
	// virtual-time advances on the polling actor.
	"PollDeadline": true, "Await": true,
}

// clockPath are the sim functions allowed to write Actor.now directly:
// the two advance primitives plus the scheduler handoffs that
// re-baseline a woken or newborn actor.
var clockPath = map[string]bool{
	"Advance": true, "AdvanceN": true, "Unblock": true, "Spawn": true, "SpawnAt": true,
}

// chargeFacts is chargecheck's per-package contribution to the
// module-level dead-constant verdict.
type chargeFacts struct {
	// Charged lists the Costs field names some flow in this package
	// charges.
	Charged []string `json:"charged,omitempty"`
	// Fields carries the Costs field declarations themselves — emitted
	// only by the engine package, where the struct lives.
	Fields []fieldRef `json:"fields,omitempty"`
}

// fieldRef names a struct field at its (root-relative) declaration
// position.
type fieldRef struct {
	Name string         `json:"name"`
	Pos  token.Position `json:"pos"`
}

func newChargecheck() *Analyzer {
	return &Analyzer{
		Name:    "chargecheck",
		Doc:     "flags sim.Costs fields never charged through Charge/ChargeN/AdvanceN or a resource acquisition (flow tracked through helpers via summaries), and Actor clock writes that bypass the charge path",
		Version: 3,
		Run:     chargecheckRun,
		Finish:  chargecheckFinish,
	}
}

func chargecheckRun(pass *Pass) any {
	sums := pass.Module.Summaries()
	sim := isSimPackage(pass.Module, pass.Pkg)
	charged := make(map[string]bool)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			markChargedFields(sums, pass.Pkg.Info, fd, charged)
			if sim {
				checkClockWrites(pass, fd)
			}
		}
	}

	facts := chargeFacts{Charged: sortedNames(charged)}
	if sim {
		for _, f := range sums.CostsFields() {
			facts.Fields = append(facts.Fields, fieldRef{Name: f.Name(), Pos: pass.Module.Position(f.Pos())})
		}
	}
	if facts.Charged == nil && facts.Fields == nil {
		return nil
	}
	return facts
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
			"%s writes Actor.now directly, bypassing the charge path; use Advance/AdvanceN (or Charge/ChargeN for attributed costs)", funcName(fd))
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

// chargecheckFinish unions every package's charged-field set against the
// engine's Costs declaration and reports the constants nothing charges.
func chargecheckFinish(f *FinishPass) {
	charged := make(map[string]bool)
	var fields []fieldRef
	for _, path := range f.Paths() {
		var facts chargeFacts
		if !f.Fact(path, &facts) {
			continue
		}
		for _, name := range facts.Charged {
			charged[name] = true
		}
		fields = append(fields, facts.Fields...)
	}
	for _, field := range fields {
		if charged[field.Name] {
			continue
		}
		f.Reportf(field.Pos,
			"cost constant Costs.%s is never charged: no flow into Charge/ChargeN/Advance*/Acquire*/Exec/CopyTime anywhere in the module"+
				" — wire it into a substrate cost path or document the exception with //xemem:allow chargecheck -- <reason>", field.Name)
	}
}
