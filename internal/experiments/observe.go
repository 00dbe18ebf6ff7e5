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

// ObserveCell, when non-nil, is called once per sweep cell while the
// cells are enumerated, serially and before any worker starts, and
// returns the observer for that cell's worlds. Set it to a
// trace.Set's Reserve and the set exports tracers in enumeration order
// whichever worker builds them. When both hooks are set, ObserveCell
// wins.
var ObserveCell func() func(label string, w *sim.World)

// observeFn announces one world of one sweep cell to whatever hook is
// installed; nil means no tracing.
type observeFn = func(label string, w *sim.World)

// cellObserve resolves the observer for the next sweep cell from the
// package hooks. Call it once per cell while enumerating; the returned
// closure is then safe to call from a worker goroutine.
func cellObserve() observeFn {
	if oc := ObserveCell; oc != nil {
		return oc()
	}
	return Observe
}

// announce invokes obs, falling back to the package Observe hook when
// obs is nil (the path for direct calls to per-cell run functions, e.g.
// from the golden-trace tests).
func announce(obs observeFn, label string, w *sim.World) {
	if obs == nil {
		obs = Observe
	}
	if obs != nil {
		obs(label, w)
	}
}

// cellTracer announces a sweep cell's world and returns the tracer its
// digest comes from: the one the installed hook put on the world, else a
// private digest-only tracer installed here.
func cellTracer(obs observeFn, label string, w *sim.World) *trace.Tracer {
	announce(obs, label, w)
	switch o := w.Observer().(type) {
	case *trace.Tracer:
		return o
	case interface{ Unwrap() *trace.Tracer }: // a repro probe's windowed tracer
		return o.Unwrap()
	}
	tr := trace.NewTracer(label)
	tr.SetKeepEvents(false)
	w.SetObserver(tr)
	return tr
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
