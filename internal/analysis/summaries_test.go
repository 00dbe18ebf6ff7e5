package analysis_test

import (
	"go/types"
	"path/filepath"
	"reflect"
	"testing"

	"xemem/internal/analysis"
)

// lookupFunc resolves a (possibly unexported) function or method in a
// fixture package.
func lookupFunc(t *testing.T, m *analysis.Module, pkgPath, recv, name string) *types.Func {
	t.Helper()
	pkg := m.Lookup(pkgPath)
	if pkg == nil || pkg.Types == nil {
		t.Fatalf("package %s not loaded", pkgPath)
	}
	if recv == "" {
		fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
		if !ok {
			t.Fatalf("%s.%s not found", pkgPath, name)
		}
		return fn
	}
	obj := pkg.Types.Scope().Lookup(recv)
	if obj == nil {
		t.Fatalf("%s.%s not found", pkgPath, recv)
	}
	sel, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, pkg.Types, name)
	fn, ok := sel.(*types.Func)
	if !ok {
		t.Fatalf("method %s.%s.%s not found", pkgPath, recv, name)
	}
	return fn
}

// TestSummariesCharge pins the dataflow facts the chargecheck fixture
// relies on: a laundering helper's parameter is sunk, a cost-returning
// helper reports its Costs fields, and a dead-returning helper does
// not get its result charged for free.
func TestSummariesCharge(t *testing.T) {
	m, err := analysis.Load(filepath.Join("testdata", "chargecheck"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sums := m.Summaries()

	chargeAll := sums.Of(lookupFunc(t, m, "fixture/internal/sub", "", "chargeAll"))
	if chargeAll == nil {
		t.Fatal("no summary for sub.chargeAll")
	}
	// Plain function: a=0, op=1, d=2. Every Charge argument is a charge
	// zone (deliberately over-approximate — it can only silence, never
	// invent, a finding), so op and d are sunk but the actor is not.
	if want := []bool{false, true, true}; !reflect.DeepEqual(chargeAll.Sunk, want) {
		t.Errorf("chargeAll.Sunk = %v, want %v", chargeAll.Sunk, want)
	}

	pick := sums.Of(lookupFunc(t, m, "fixture/internal/sub", "", "pick"))
	if want := []string{"Picked"}; !reflect.DeepEqual(pick.CostsReturns, want) {
		t.Errorf("pick.CostsReturns = %v, want %v", pick.CostsReturns, want)
	}
	pickDead := sums.Of(lookupFunc(t, m, "fixture/internal/sub", "", "pickDead"))
	if want := []string{"PickedDead"}; !reflect.DeepEqual(pickDead.CostsReturns, want) {
		t.Errorf("pickDead.CostsReturns = %v, want %v", pickDead.CostsReturns, want)
	}

	// The method index space puts the receiver at 0: Actor.Charge sinks
	// its duration parameter (index 2, after the op string).
	charge := sums.Of(lookupFunc(t, m, "fixture/internal/sim", "Actor", "Charge"))
	if len(charge.Sunk) != 3 || !charge.Sunk[2] || charge.Sunk[1] {
		t.Errorf("Actor.Charge.Sunk = %v, want duration-only at index 2", charge.Sunk)
	}

	if fields := sums.CostsFields(); len(fields) == 0 {
		t.Error("CostsFields: fixture sim.Costs not located")
	}
}

// TestSummariesRelease pins ownership facts: a helper that releases
// the handle for its caller, against one that only reads it.
func TestSummariesRelease(t *testing.T) {
	m, err := analysis.Load(filepath.Join("testdata", "paircheck"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sums := m.Summaries()

	retire := sums.Of(lookupFunc(t, m, "fixture/internal/app", "", "retire"))
	if want := []bool{false, true}; !reflect.DeepEqual(retire.Released, want) {
		t.Errorf("retire.Released = %v, want %v", retire.Released, want)
	}
	classify := sums.Of(lookupFunc(t, m, "fixture/internal/app", "", "classify"))
	if classify.Released[0] || classify.Escaped[0] {
		t.Errorf("classify = released %v escaped %v, want a neutral read",
			classify.Released, classify.Escaped)
	}
}
