package experiments

import (
	"fmt"
	"strings"

	"xemem/internal/sim"
	"xemem/internal/sim/trace"
)

// Observe, when non-nil, is invoked for every simulation world an
// experiment constructs, with a label identifying the configuration the
// world runs (e.g. "fig6/enclaves=2/size=1024MB"). Installing a
// sim.Observer on the world — typically the trace.Set.Get(label) tracer —
// captures that configuration's full event stream. Leave nil for zero
// overhead; the simulated results are bit-identical either way. The hook
// is a package variable because experiments construct their worlds
// internally, one per configuration point; set it before an experiment
// starts and leave it alone until the experiment returns — under the
// parallel sweep runner it is read from worker goroutines. With more
// than one worker, tracers registered through this hook land in
// completion order; use ObserveCell for worker-count-independent order.
var Observe func(label string, w *sim.World)

// ObserveCell is the cell-aware variant of Observe, consumed by the
// parallel sweep runner: it additionally receives the sweep-cell index
// of the world being announced, so a trace.Set.CellHook() can order
// tracers by cell rather than by which worker registered first. When
// both hooks are set, ObserveCell wins.
var ObserveCell func(cell int, label string, w *sim.World)

// observeFn announces one world of one sweep cell to whatever hook is
// installed; nil means no tracing.
type observeFn = func(label string, w *sim.World)

// cellObserve resolves the observer for sweep cell i from the package
// hooks. Resolve once per cell while enumerating (before workers start);
// the returned closure is then safe to call from a worker goroutine.
func cellObserve(cell int) observeFn {
	if oc := ObserveCell; oc != nil {
		return func(label string, w *sim.World) { oc(cell, label, w) }
	}
	return Observe
}

// announce invokes obs, falling back to the package Observe hook when
// obs is nil (the path for direct calls to per-cell run functions, e.g.
// from the golden-trace tests). It is also the seam through which the
// package-level engine selection (EngineWorkers) reaches every
// experiment world: announce runs right after world construction,
// before any actor is dispatched.
func announce(obs observeFn, label string, w *sim.World) {
	engineHook(w)
	if obs == nil {
		obs = Observe
	}
	if obs != nil {
		obs(label, w)
	}
}

// Breakdown renders, per traced configuration, where simulated time went:
// the top operations by charged time, every resource's busy/wait profile,
// and every receive queue's residency — the per-figure tables the
// -metrics flag prints.
func Breakdown(s *trace.Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-figure virtual-time breakdown (%d traced worlds)\n", len(s.Tracers()))
	for _, t := range s.Tracers() {
		b.WriteString(t.Summary())
	}
	return b.String()
}
